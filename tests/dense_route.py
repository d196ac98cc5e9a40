"""The register route to the principal angles: a generic certified
eigensolve of two dense density matrices, an independent reference for
the oracle's counted geometry in the tests.  Also the tiled views of that
geometry, each orbit block's values repeated once per weight of its
orbit, which the tests compare with whole-space references."""

import numpy as np

from qudisc import oracle
from qudisc.spectrum import canonicalize

SUPPORT_TOL = 1e-9


def components(linked: np.ndarray) -> np.ndarray:
    """The connected component of every vertex of a symmetric boolean
    adjacency matrix, numbered by its smallest vertex: each vertex takes
    the smallest label among itself and its neighbours, then its label's
    label, until nothing changes."""
    labels = np.arange(len(linked))
    while True:
        reached = np.where(linked, labels, len(labels)).min(axis=1)
        reached = np.minimum(reached, labels)
        reached = reached[reached]
        if np.array_equal(reached, labels):
            return labels
        labels = reached


def principal_angles(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Descending cosines of the principal angles between the supports of
    two positive semidefinite matrices, min(rank1, rank2) of them, from the
    generic certified eigensolver ``oracle.hermitian_eig``.

    Both states are block-diagonal on the connected components of their
    joint nonzero pattern, exactly, and so are their supports and the
    supports' cross-Gram matrix.  Each component is certified and
    eigensolved on its own, the components of one size (of both states)
    in one stacked call, and takes its own SVD.  The min(d1, d2) cosines
    of the whole supports are the components' cosines plus a zero for
    every pair the components leave out.  A pattern without zeros is
    one component, the whole matrices."""
    linked = (rho1 != 0) | (rho2 != 0)
    _, component = np.unique(components(linked | linked.T), return_inverse=True)
    sizes = np.bincount(component)
    order, starts = np.argsort(component, kind="stable"), np.cumsum(sizes) - sizes
    cosines, ranks = [], np.zeros((2, len(sizes)), dtype=int)
    for size in sorted(set(sizes.tolist())):
        labels = np.flatnonzero(sizes == size)
        rows = order[starts[labels][:, None] + np.arange(size)]  # each one's members, ascending
        blocks = np.stack([rho[rows[:, :, None], rows[:, None, :]] for rho in (rho1, rho2)])
        values, vectors = oracle.hermitian_eig(blocks)
        support = values > SUPPORT_TOL
        ranks[:, labels] = support.sum(axis=-1)
        for i in range(len(labels)):
            b1, b2 = (vectors[j, i][:, support[j, i]] for j in range(2))
            cosines.append(np.linalg.svd(b1.conj().T @ b2, compute_uv=False))
    unpaired = ranks.sum(axis=1).min() - ranks.min(axis=0).sum()
    cosines = np.concatenate([*cosines, np.zeros(unpaired)])
    return -np.sort(-np.clip(cosines, 0.0, 1.0))


def tiled_cosines(geometry):
    """The d1 paired cosines of every weight block, descending: each orbit
    block's cosines repeated once per weight of its orbit."""
    return -np.sort(-np.concatenate([np.tile(b.cosines, b.size) for b in geometry.blocks]))


def lambda_spectra(cfgs, cap=None):
    """Eigenvalues of the weighted difference eta2*rho2 - eta1*rho1 on the
    joint support supp(rho1)+supp(rho2), ascending, ``span_rank`` per
    config; the rest of the n^N-dimensional space is its kernel.  They come
    from the oracle's geometry and its batched eigensolve, one
    ``hermitian_eig`` call per matrix size, and each block's
    eigenvalues repeat once per weight of its orbit.  For n_a < n_c the
    mirrored canonical config's operator is minus the site-reversed one,
    so its eigenvalues are negated."""
    groups = oracle._groups(cfgs, cap)
    values = iter(oracle._batched_eigvalues([
        group.eta2 * (b.r2 / group.geometry.d2) - group.eta1 * (b.r1 / group.geometry.d1)
        for group in groups for b in group.geometry.blocks]))
    spectra = [None] * len(cfgs)
    for group in groups:
        tiled = np.concatenate([np.tile(next(values), b.size) for b in group.geometry.blocks],
                               axis=1)
        for i, row in zip(group.indices, tiled):
            spectra[i] = np.sort(-row if canonicalize(cfgs[i])[1] else row)
    return spectra
