"""First-principles dense-matrix certification of the closed forms.

Everything here works on the full n^N-dimensional tensor space (sites
ordered A-block, B-block, C-block, most significant site first) and is
deliberately independent of the block formulas it checks: the supports
are products of symmetric-subspace bases built from multiset vectors,
principal angles come from an SVD, the Helstrom value from diagonalizing
the weighted difference operator, and the unambiguous POVM is assembled
vector by vector from the Jordan pairs.

The Haar-averaged states are real symmetric: the symmetrizer is a mean
of permutation matrices.  The whole dense geometry (supports, angles,
the weighted difference operator and the POVM) therefore runs in
float64 with real-symmetric ``eigh`` and real SVDs.  Only the Haar
sampler works with complex vectors, because random pure states are
complex; ``hermitian_eig`` accepts either kind of input.

The geometry is built for canonical configs (n_a >= n_c) only, and
from the support bases alone: each must have the rank the formulas give,
orthonormal columns and no weight outside the frame of the joint span.
A mirrored config reuses it: reversing the site order maps one config's
states onto the other's, with rho1 and rho2 exchanged.

Both mean states are U(n)-invariant, so they commute with its diagonal
torus: each multiset column of the support bases has one definite label
weight, the label content of its site strings.  The geometry checks that
every column is exactly zero on the rows of every other weight, then
certifies each weight block (the rows and columns of one weight) on its
own.  Blocks of one shape (rows, d1_w, d2_w) are certified as one stack:
each SVD, product and per-block check (orthonormality, span size, lost
weight, completeness) is one batched call, and members whose span sizes
differ are split.  Supports, principal angles, the weighted difference
operator and the POVM are all block-diagonal by weight.  Blocks of equal
span size form one stack for Lambda and the POVM, and these take every
prior of a config at once: one batched ``hermitian_eig`` call per stack
and config.  Every block is computed, the label-permuted copies
included.

The dense states of ``mean_states`` feed only the independent second
route, ``principal_angles``.  It splits both states, exactly, into the
connected components of their joint nonzero pattern and diagonalizes
each component with ``hermitian_eig`` (numpy's ``eigh`` wrapped in
explicit residual and unitarity checks), the components of one size in
one stacked call.

The Haar sampler draws one stream per (seed, n) and returns the mean
tensor power of every requested order from it, so the lemma checks that
share a dimension share their draws.  Each order's mean is still the
mean of iid Haar draws, with the law it would have alone.  It is
accumulated on one site string per multiset (D_m x D_m, not n^m x n^m),
each order's monomials built from the order below, and expanded to the
full space only at the end, so ``verify`` compares it in the full space
against ``symmetrizer``, which stays an independent check of the
multiset basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discrimination import total_failure
from .errors import OracleError, PreconditionError
from .spectrum import ProblemConfig, canonicalize, jordan_spectrum

DEFAULT_DIM_CAP = 4096
SUPPORT_TOL = 1e-9
GROUP_TOL = 1e-7
_HAAR_CHUNK = 4096  # draws per chunk: the chunk's temporaries stay in cache


def _check_cap(dim: int, cap: int | None) -> None:
    limit = DEFAULT_DIM_CAP if cap is None else cap
    if dim > limit:
        raise OracleError(f"dense dimension {dim} exceeds cap {limit}")


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Hermitian eigendecomposition of one matrix or of a stack
    ``(..., s, s)``: ascending eigenvalues and unitary eigenvector
    matrices, with every matrix's residual and unitarity checked
    explicitly."""
    defect = np.abs(m - _adjoint(m)).max(initial=0.0)
    if defect > 1e-12:
        raise OracleError(f"matrix not Hermitian: max asymmetry {defect:.3e}")
    values, vectors = np.linalg.eigh(m)
    scale = np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))
    residual = np.abs(m @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1), initial=0.0)
    worst = np.unravel_index(np.argmax(residual - 1e-10 * scale), scale.shape)
    if residual[worst] > 1e-10 * scale[worst]:
        raise OracleError(
            f"eigensolver residual {residual[worst]:.3e} exceeds 1e-10*{scale[worst]:.3e}"
        )
    unitarity = np.abs(_adjoint(vectors) @ vectors - np.eye(m.shape[-1])).max(initial=0.0)
    if unitarity > 1e-10:
        raise OracleError(f"eigenvector matrix not unitary: defect {unitarity:.3e}")
    return values, vectors


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron is far too slow for ~1000x1000 outputs; one broadcast
    # multiply plus reshape is equivalent for 2-d inputs
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def _multiset_keys(m: int, n: int) -> np.ndarray:
    """For each of the n^m site-label strings, its multiset of labels: the
    sorted string read as a base-n number (keys order like the multisets)."""
    digits = np.sort(np.indices((n,) * m).reshape(m, -1), axis=0)
    return n ** np.arange(m - 1, -1, -1) @ digits


def _sym_basis(m: int, n: int) -> np.ndarray:
    """Orthonormal columns spanning the fully symmetric subspace of m
    copies of C^n: one normalized vector per multiset of site labels,
    in ``combinations_with_replacement`` order.

    The strings sharing a multiset key are that column's support.
    O(m * n^m)."""
    _, column, counts = np.unique(_multiset_keys(m, n), return_inverse=True, return_counts=True)
    basis = np.zeros((n**m, len(counts)))
    basis[np.arange(n**m), column] = 1.0 / np.sqrt(counts[column])
    return basis


def symmetrizer(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Projector onto the fully symmetric subspace of m copies of C^n
    (real: the mean of the m! site permutations)."""
    _check_cap(n**m, cap)
    basis = _sym_basis(m, n)
    return basis @ basis.T


def _register_bases(cfg: ProblemConfig) -> tuple[np.ndarray, ...]:
    """Symmetric bases of the registers AB, C, A and BC, in that order."""
    return tuple(_sym_basis(m, cfg.n) for m in (cfg.n1, cfg.n_c, cfg.n_a, cfg.n2))


def mean_states(cfg: ProblemConfig, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The two Haar-averaged inputs as dense density matrices: maximally
    mixed on sym(AB) x sym(C) and on sym(A) x sym(BC)."""
    dim = cfg.n ** cfg.total_copies
    _check_cap(dim, cap)
    ab, c, a, bc = (basis @ basis.T for basis in _register_bases(cfg))
    rho1 = _kron(ab, c) / cfg.d1
    rho2 = _kron(a, bc) / cfg.d2
    for rho in (rho1, rho2):
        if abs(float(np.trace(rho).real) - 1.0) > 1e-12:
            raise OracleError("mean state trace deviates from one")
    return rho1, rho2


def haar_average(
    orders: Sequence[int], n: int, samples: int, seed: int, cap: int | None = None
) -> list[np.ndarray]:
    """Empirical means of the m-fold tensor power projectors, one per order
    m in ``orders``, over one stream of Haar-random pure states in C^n;
    deterministic for a fixed (seed, n, samples), and each order's mean is
    the same whichever other orders share the call.  Each state is a
    normalized complex Gaussian vector, drawn as 2n real normals read in
    complex view.

    Every entry of psi^(x)m is the monomial of its site string's multiset,
    so each order accumulates one representative (sorted) string per
    multiset, a D_m x D_m product per chunk, and is expanded to the full
    n^m x n^m matrix by an index gather at the end.  Order m's monomials
    are order m-1's, gathered by the string without its largest label,
    times that label's amplitude."""
    _check_cap(n ** max(orders), cap)
    if samples < 1:
        raise ValueError("need at least one sample")
    top = max(orders)
    # the multiset keys of every order up to the top one, and each key's
    # string position; a sorted string's key drops its largest label, the
    # last base-n digit, under // n
    keys, columns = zip(*(np.unique(_multiset_keys(m, n), return_inverse=True)
                          for m in range(1, top + 1)))
    steps = [(np.searchsorted(shorter, key // n), key % n) for shorter, key in zip(keys, keys[1:])]
    accs = {m: np.zeros((len(keys[m - 1]),) * 2, dtype=complex) for m in orders}
    rng = np.random.default_rng((seed, n))
    chunk = np.empty((_HAAR_CHUNK, 2 * n))
    for start in range(0, samples, _HAAR_CHUNK):
        real = chunk[: min(_HAAR_CHUNK, samples - start)]
        rng.standard_normal(out=real)
        real /= np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]
        # one row per label, one column per draw
        psi = real.view(complex).T
        cols = psi  # order 1: the labels themselves, in key order
        for m in range(1, top + 1):
            if m > 1:
                parent, last = steps[m - 2]
                cols = cols[parent]
                cols *= psi[last]  # in place, as np.prod multiplies: the same bits
            if m in accs:
                accs[m] += cols @ cols.conj().T
    return [(accs[m] / samples)[np.ix_(columns[m - 1], columns[m - 1])] for m in orders]


def _positions(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices sorted by label (stably), with each label's first slot in
    them and its count."""
    counts = np.bincount(labels)
    return np.argsort(labels, kind="stable"), np.cumsum(counts) - counts, counts


def _members(positions: tuple, labels: np.ndarray, size: int) -> np.ndarray:
    """``(len(labels), size)`` indices of the given labels, each of which
    has exactly ``size`` members, in ascending order."""
    order, starts, _ = positions
    return order[starts[labels][:, None] + np.arange(size)]


def _components(linked: np.ndarray) -> np.ndarray:
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


def _group_cosines(cosines: np.ndarray) -> list[tuple[float, int]]:
    groups: list[tuple[float, int]] = []
    for c in cosines:  # already descending
        if groups and groups[-1][0] - c <= GROUP_TOL:
            prev, count = groups[-1]
            groups[-1] = (prev, count + 1)
        else:
            groups.append((float(c), 1))
    return groups


def principal_angles(rho1: np.ndarray, rho2: np.ndarray) -> list[tuple[float, int]]:
    """Cosines of the principal angles between the two supports, grouped
    into (cosine, multiplicity) pairs, largest first.  Supports come from
    the generic certified eigensolver; use ``jordan_angles`` for the
    fast config-level route.

    Both states are block-diagonal on the connected components of their
    joint nonzero pattern, exactly, and so are their supports and the
    supports' cross-Gram matrix.  Each component is certified and
    eigensolved on its own, the components of one size (of both states)
    in one stacked call, and takes its own SVD.  The min(d1, d2) cosines
    of the whole supports are the components' cosines plus a zero for
    every pair the components leave out.  A pattern without zeros is
    one component, the whole matrices."""
    linked = (rho1 != 0) | (rho2 != 0)
    _, component = np.unique(_components(linked | linked.T), return_inverse=True)
    positions = _positions(component)
    sizes = positions[2]
    cosines, ranks = [], np.zeros((2, len(sizes)), dtype=int)
    for size in sorted(set(sizes.tolist())):
        labels = np.flatnonzero(sizes == size)
        rows = _members(positions, labels, size)
        blocks = np.stack([rho[rows[:, :, None], rows[:, None, :]] for rho in (rho1, rho2)])
        values, vectors = hermitian_eig(blocks)
        support = values > SUPPORT_TOL
        ranks[:, labels] = support.sum(axis=-1)
        for i in range(len(labels)):
            b1, b2 = (vectors[j, i][:, support[j, i]] for j in range(2))
            cosines.append(np.linalg.svd(_adjoint(b1) @ b2, compute_uv=False))
    unpaired = ranks.sum(axis=1).min() - ranks.min(axis=0).sum()
    cosines = np.concatenate([*cosines, np.zeros(unpaired)])
    return _group_cosines(-np.sort(-np.clip(cosines, 0.0, 1.0)))


@dataclass(frozen=True)
class _Stack:
    """Weight blocks of one span size s, stacked along a leading axis of
    B blocks, each in an orthonormal frame of its own share of the joint
    span supp(rho1)+supp(rho2).  The pair columns of degenerate pairs,
    and the padding of the pair columns to s, are zero, with cosine NaN."""

    r1: np.ndarray  # (B, s, s) rho1 in the block frames
    r2: np.ndarray
    identity: np.ndarray  # (B, s, s) span identity rebuilt from the Jordan pieces
    unpaired: np.ndarray  # (B, s, s) projector on supp(rho2) directions with no partner
    sp1: np.ndarray  # (B, s, s) per-pair unit vectors orthogonal to the rho1 direction
    sp2: np.ndarray  # (B, s, s) per-pair unit vectors orthogonal to the rho2 direction
    pair_cosines: np.ndarray  # (B, s) cosines of the non-degenerate pairs


@dataclass(frozen=True)
class _Geometry:
    """Prior-independent dense-oracle data for one canonical config, split
    into label-weight blocks and stacked by span size.

    All operators built downstream (the weighted difference Lambda and the
    unambiguous POVM elements) live inside the joint span and commute with
    the diagonal torus of U(n), so every remaining check is a batch of
    small dense computations, one block per weight."""

    dim: int
    span_rank: int
    cosines: np.ndarray  # paired singular values of every block, descending
    stacks: tuple[_Stack, ...]  # ascending span size
    unpaired_rank: int
    completeness_residual: float


def _column_weights(b: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The label weight of each column of ``b``, given the weight of each
    row; every column must be exactly zero on the rows of other weights."""
    keys = weight[np.abs(b).argmax(axis=0)]
    stray = float(np.abs(np.where(weight[:, None] == keys, 0.0, b)).max(initial=0.0))
    if stray > 0.0:
        raise OracleError(f"support basis column has weight {stray:.3e} outside its label weight")
    return keys


def _weight_blocks(b1: np.ndarray, b2: np.ndarray, d1: int, d2: int) -> tuple:
    """Certify and reduce a stack of weight blocks of one shape: the two
    support bases' rows and columns of each weight, ``(B, rows, d1_w)``
    and ``(B, rows, d2_w)``.  Returns, per span size s, the members'
    ``_Stack`` fields; every member's paired singular values; and the
    squared weight each basis has outside the members' spans.

    Members may differ in span size and in their number of live
    (non-degenerate) pairs: each span size is reduced on its own, and
    the dead pairs' columns are zeroed and their cosines NaN."""
    for b in (b1, b2):
        gram = np.abs(_adjoint(b) @ b - np.eye(b.shape[-1])).max(initial=0.0)
        if gram > 1e-10:
            raise OracleError(f"support basis not orthonormal: defect {gram:.3e}")
    u_span, stacked_sv, _ = np.linalg.svd(np.concatenate([b1, b2], axis=-1), full_matrices=False)
    span_sizes = (stacked_sv > 1e-6).sum(axis=-1)

    u, sigma, vh = np.linalg.svd(_adjoint(b1) @ b2)
    sigma = np.clip(sigma, 0.0, 1.0)
    pairs = sigma.shape[-1]
    f = b1 @ u  # Jordan basis of supp(rho1)
    g = b2 @ _adjoint(vh)  # paired + unpaired directions in supp(rho2)
    f_paired, g_paired, g_extra = f[..., :pairs], g[..., :pairs], g[..., pairs:]
    live = 1.0 - sigma > GROUP_TOL  # degenerate pairs carry no complement
    norms = np.where(live, np.sqrt(1.0 - sigma**2), 1.0)[:, None, :]
    keep = live[:, None, :]
    p2 = np.where(keep, (f_paired - g_paired * sigma[:, None, :]) / norms, 0.0)
    p1 = np.where(keep, (g_paired - f_paired * sigma[:, None, :]) / norms, 0.0)

    by_size, lost_sq = [], np.zeros(2)
    for s in sorted(set(span_sizes.tolist())):
        member = span_sizes == s
        w = u_span[member][..., :s]
        r_pair = []
        for i, (b, rank) in enumerate(((b1, d1), (b2, d2))):
            coords = _adjoint(w) @ b[member]
            lost_sq[i] += float(np.sum(np.abs(b[member] - w @ coords) ** 2))
            r_pair.append(coords @ _adjoint(coords) / rank)
        sf, se = _adjoint(w) @ f[member], _adjoint(w) @ g_extra[member]
        sp1, sp2 = (np.zeros(w.shape[:1] + (s, s), dtype=w.dtype) for _ in range(2))
        sp1[..., :pairs], sp2[..., :pairs] = _adjoint(w) @ p1[member], _adjoint(w) @ p2[member]
        pair_cosines = np.full(w.shape[:1] + (s,), np.nan)
        pair_cosines[:, :pairs] = np.where(live[member], sigma[member], np.nan)
        unpaired = se @ _adjoint(se)
        identity = sf @ _adjoint(sf) + sp1 @ _adjoint(sp1) + unpaired
        by_size.append((s, (*r_pair, identity, unpaired, sp1, sp2, pair_cosines)))
    return by_size, sigma, lost_sq


@lru_cache(maxsize=64)
def _jordan_geometry(n: int, n_a: int, n_b: int, n_c: int, cap: int | None) -> _Geometry:
    """Build and certify the dense geometry for one canonical copy
    configuration (n_a >= n_c) from the register bases: the weight blocks
    of one shape (rows, d1_w, d2_w) at a time, each shape's blocks as one
    stack."""
    cfg = ProblemConfig(n, n_a, n_b, n_c, 0.5)  # priors do not enter here
    if not cfg.is_canonical:
        raise PreconditionError("_jordan_geometry expects n_a >= n_c; canonicalize first")
    dim = n ** cfg.total_copies
    _check_cap(dim, cap)
    ab, c, a, bc = _register_bases(cfg)
    b1, b2 = _kron(ab, c), _kron(a, bc)
    d1, d2 = cfg.d1, cfg.d2
    for b, rank in ((b1, d1), (b2, d2)):
        if b.shape[1] != rank:
            raise OracleError(f"support basis has {b.shape[1]} columns, expected rank {rank}")
    # the label content of each site string, numbered 0, 1, ... in key order
    _, weight = np.unique(_multiset_keys(cfg.total_copies, n), return_inverse=True)
    index = [_positions(labels) for labels in
             (weight, _column_weights(b1, weight), _column_weights(b2, weight))]
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for key, shape in enumerate(zip(*(counts.tolist() for *_, counts in index))):
        shapes.setdefault(shape, []).append(key)

    by_size: dict[int, list[tuple]] = {}
    cosines, lost_sq = [], np.zeros(2)
    for (rows, cols1, cols2), keys in shapes.items():
        keys = np.array(keys)
        r, c1, c2 = (_members(i, keys, size) for i, size in zip(index, (rows, cols1, cols2)))
        blocks, sigma, lost = _weight_blocks(
            b1[r[:, :, None], c1[:, None, :]], b2[r[:, :, None], c2[:, None, :]], d1, d2
        )
        for s, fields in blocks:
            by_size.setdefault(s, []).append(fields)
        cosines.append(sigma.ravel())
        lost_sq += lost
    # the blocks share no row, so the lost weight is one Frobenius total
    lost = float(np.sqrt(lost_sq.max()))
    if lost > 1e-9:
        raise OracleError(f"support has weight {lost:.3e} outside the joint span")

    stacks = tuple(
        _Stack(*map(np.concatenate, zip(*parts))) for _, parts in sorted(by_size.items())
    )
    span = sum(st.identity.shape[0] * st.identity.shape[-1] for st in stacks)
    # the POVM elements always sum to the identity on the joint support by
    # construction, so the completeness residual is prior-independent
    completeness = max(
        float(np.abs(st.identity - np.eye(st.identity.shape[-1])).max()) for st in stacks
    )
    cosines = -np.sort(-np.concatenate(cosines))
    # every column of b2 lies in one block: the rest of supp(rho2) is unpaired
    return _Geometry(dim, span, cosines, stacks, d2 - len(cosines), completeness)


def jordan_angles(cfg: ProblemConfig, cap: int | None = None) -> list[tuple[float, int]]:
    """Principal angles between the supports of the two dense mean states,
    via the certified support bases; grouped like ``principal_angles``.
    The angles do not depend on the orientation."""
    canonical, _ = canonicalize(cfg)
    geometry = _jordan_geometry(canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, cap)
    return _group_cosines(geometry.cosines)


def _shared_geometry(
    cfgs: Sequence[ProblemConfig], cap: int | None
) -> tuple[list[ProblemConfig], bool, _Geometry, np.ndarray, np.ndarray]:
    """The canonical forms of configs that differ only in their priors,
    whether they were swapped, their one geometry, and their canonical
    priors as ``(P, 1, 1, 1)`` arrays that broadcast over a stack."""
    pairs = [canonicalize(cfg) for cfg in cfgs]
    canonical = [c for c, _ in pairs]
    first = canonical[0]
    copies = (first.n, first.n_a, first.n_b, first.n_c)
    if any((c.n, c.n_a, c.n_b, c.n_c) != copies for c in canonical):
        raise PreconditionError("batched configs must differ only in their priors")
    geometry = _jordan_geometry(*copies, cap)
    eta1, eta2 = (np.array([getattr(c, eta) for c in canonical])[:, None, None, None]
                  for eta in ("eta1", "eta2"))
    return canonical, pairs[0][1], geometry, eta1, eta2


def lambda_spectra(cfgs: Sequence[ProblemConfig], cap: int | None = None) -> np.ndarray:
    """Eigenvalues of the weighted difference eta2*rho2 - eta1*rho1 on the
    full tensor space, one row per config (the kernel outside the joint
    support contributes its zeros explicitly).  The configs differ only in
    their priors, so every prior's operators of one stack take one
    ``hermitian_eig`` call.  For n_a < n_c the mirrored canonical config's
    operator is minus the site-reversed one, so its eigenvalues are
    negated."""
    _, swapped, geometry, eta1, eta2 = _shared_geometry(cfgs, cap)
    values = np.concatenate([
        hermitian_eig(eta2 * st.r2 - eta1 * st.r1)[0].reshape(len(cfgs), -1)
        for st in geometry.stacks
    ], axis=1)
    padded = np.zeros((len(cfgs), geometry.dim))
    padded[:, : geometry.span_rank] = -values if swapped else values
    return np.sort(padded, axis=1)


def lambda_spectrum(cfg: ProblemConfig, cap: int | None = None) -> np.ndarray:
    """``lambda_spectra`` of one config."""
    return lambda_spectra([cfg], cap)[0]


def helstrom_probabilities(cfgs: Sequence[ProblemConfig], cap: int | None = None) -> list[float]:
    """Minimum-error probabilities from the dense trace norms of configs
    that differ only in their priors."""
    norms = np.abs(lambda_spectra(cfgs, cap)).sum(axis=1)
    return [0.5 * (1.0 - float(norm)) for norm in norms]


def helstrom_probability(cfg: ProblemConfig, cap: int | None = None) -> float:
    """Minimum-error probability from the dense trace norm."""
    return helstrom_probabilities([cfg], cap)[0]


@dataclass(frozen=True)
class PovmReport:
    """Numerical certification of the unambiguous POVM for one config."""

    config: ProblemConfig
    min_eigenvalue: float
    completeness_residual: float
    error_rho1_pi2: float
    error_rho2_pi1: float
    failure_probability: float
    expected_failure: float
    unpaired_rank: int

    @property
    def failure_residual(self) -> float:
        return abs(self.failure_probability - self.expected_failure)

    def passed(self) -> bool:
        """Positivity, completeness and zero error to 1e-10; the failure
        probability to 1e-9."""
        return (
            self.min_eigenvalue >= -1e-10
            and self.completeness_residual <= 1e-10
            and self.error_rho1_pi2 <= 1e-10
            and self.error_rho2_pi1 <= 1e-10
            and self.failure_residual <= 1e-9
        )


def certify_povms(
    cfgs: Sequence[ProblemConfig],
    cap: int | None = None,
    *,
    printed_high_branch: bool = False,
) -> list[PovmReport]:
    """Assemble the optimal unambiguous POVM from the numerically extracted
    Jordan pairs and measure all of its required properties, for configs
    that differ only in their priors: one spectrum for all of them, and
    one ``hermitian_eig`` call per stack for every prior's Pi0, Pi1 and
    Pi2 together.

    Pi1 weights the per-pair directions orthogonal to the state-2 vector,
    Pi2 those orthogonal to the state-1 vector plus the unpaired part of
    supp(rho2); Pi0 is the remainder of the joint-support identity.
    Degenerate pairs (cosine 1) carry no unambiguous information and fall
    entirely into Pi0.

    ``printed_high_branch`` is the negative control: it builds the POVM
    from the erratum q1 = O_k, which must break the failure-probability
    equality whenever a HIGH branch is active.
    """
    canonical, _, geo, eta1, eta2 = _shared_geometry(cfgs, cap)
    spectrum = jordan_spectrum(canonical[0])
    overlaps = np.array([b.overlap for b in spectrum.blocks])
    results = [total_failure(c, spectrum, printed_high_branch=printed_high_branch)
               for c in canonical]
    # per prior and block k, the weights of Pi1 and Pi2 on its pair
    # directions; no live pair can match O_0 = 1
    q_by_k = [{b.k: (b.q1, b.q2) for b in result.blocks} for result in results]
    weights = np.array([[[(1.0 - q) / (1.0 - float(b.overlap_sq)) if b.k else np.nan
                          for q in qs[b.k]] for b in spectrum.blocks] for qs in q_by_k])

    priors = len(cfgs)
    min_eig = np.full(priors, np.inf)
    err12, err21, failure = np.zeros((3, priors))
    for st in geo.stacks:
        live = ~np.isnan(st.pair_cosines)
        hits = np.abs(st.pair_cosines[live][:, None] - overlaps) < GROUP_TOL
        counts = hits.sum(axis=1)
        if np.any(counts != 1):
            bad = int(np.argmax(counts != 1))
            raise OracleError(
                f"cosine {float(st.pair_cosines[live][bad])!r} matches {counts[bad]} blocks"
            )
        pair_weights = np.zeros((priors,) + live.shape + (2,))
        pair_weights[:, live] = weights[:, hits.argmax(axis=1)]
        m1 = (st.sp2 * pair_weights[..., None, :, 0]) @ _adjoint(st.sp2)
        m2 = (st.sp1 * pair_weights[..., None, :, 1]) @ _adjoint(st.sp1) + st.unpaired
        m0 = st.identity - m1 - m2
        values = hermitian_eig(np.concatenate([m0, m1, m2], axis=1))[0]
        min_eig = np.minimum(min_eig, values.min(axis=(1, 2)))
        err12 += np.einsum("bij,pbji->p", st.r1, m2).real
        err21 += np.einsum("bij,pbji->p", st.r2, m1).real
        failure += np.einsum("pbij,pbji->p", eta1 * st.r1 + eta2 * st.r2, m0).real
    if geo.dim > geo.span_rank:  # zero eigenvalues outside the joint span
        min_eig = np.minimum(min_eig, 0.0)
    reports = []
    for i, (cfg, c, result) in enumerate(zip(cfgs, canonical, results)):
        # an injected fault is measured against a second, honest solve
        honest = total_failure(c, spectrum) if printed_high_branch else result
        reports.append(PovmReport(
            config=cfg,
            min_eigenvalue=float(min_eig[i]),
            completeness_residual=geo.completeness_residual,
            error_rho1_pi2=float(err12[i]),
            error_rho2_pi1=float(err21[i]),
            failure_probability=float(failure[i]),
            expected_failure=honest.q_total,
            unpaired_rank=geo.unpaired_rank,
        ))
    return reports


def certify_povm(
    cfg: ProblemConfig,
    cap: int | None = None,
    *,
    printed_high_branch: bool = False,
) -> PovmReport:
    """``certify_povms`` of one config."""
    return certify_povms([cfg], cap, printed_high_branch=printed_high_branch)[0]
