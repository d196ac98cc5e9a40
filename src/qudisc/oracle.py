"""First-principles dense-matrix certification of the closed forms.

Sites are ordered A-block, B-block, C-block, most significant site
first.  The geometry is built without the block formulas it checks: the
supports are products of symmetric-subspace bases built from multisets,
principal angles come from an SVD, the Helstrom value from diagonalizing
the weighted difference operator, and the unambiguous POVM is assembled
vector by vector from the Jordan pairs.  The closed forms only label,
by one rule: ``block_labels`` gives a cosine the block of its nearest O_k,
nearer than half the smallest gap between the O_k.  ``group_by_blocks``
counts the labels by orbit weight against d^k exactly, and the POVM
weighs each live pair by its label's optimum, measuring the rest densely.

The Haar-averaged states are real symmetric: the symmetrizer is a mean
of permutation matrices.  The whole dense geometry (supports, angles,
the weighted difference operator and the POVM) therefore runs in
float64 with real-symmetric ``eigh`` and real SVDs.  Only the Haar
sampler works with complex vectors, because random pure states are
complex; ``hermitian_eig`` accepts either kind of input.

The geometry is built for canonical configs (n_a >= n_c) only; a
mirrored config reuses it, since reversing the site order maps one
config's states onto the other's with rho1 and rho2 exchanged.  It forms
no array with n^N rows.  Both mean states commute with the diagonal torus
of U(n), so the cross-Gram matrix G = B1^T B2 of the support bases
sym(AB) x sym(C) and sym(A) x sym(BC) is block-diagonal by label weight,
and ``_gram_block`` counts each block from multisets.  They also commute
with label permutations, and the blocks of one orbit of weights are
row-and-column permutations of one matrix, so one block per orbit is
certified, reduced once for every config that shares it
(``_orbit_block``), and every total is weighted by the orbit's size.
The supports meet in the totally symmetric subspace sym(ABC), one
vector per label weight, so every block has one degenerate pair (cosine
1) and spans d1_w + d2_w - 1 directions.  Each block's Gram matrix
K = [[I, G], [G^T, I]] is checked to have that rank and factored as
C^T C: C holds both bases in an orthonormal frame of the block's joint
span, and supports, angles, Lambda and the POVM all live in these
frames.  Lambda and the POVM take any list of configs: each config
builds its geometry, labels its cosines and solves its priors once, and
``_batched_eigvalues`` puts the operator stacks of every (config, prior)
whose block shares one orbit reduction through one ``hermitian_eig``
call, with every gate failing on a NaN.

``check_gram_counts`` checks the integer counts that ``_gram_block``
rounds, one ``_block_counts`` per orbit shared with the geometry,
exactly against the n^N site strings of every weight.  The Haar
sampler's means are compared in the full n^m space against
``symmetrizer``, which stays an independent check of the multiset basis.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .discrimination import _normal, _solve_blocks
from .errors import OracleError, PreconditionError
from .spectrum import JordanSpectrum, ProblemConfig, canonicalize, jordan_spectrum

DEFAULT_DIM_CAP = 4096
_HAAR_CHUNK = 1024  # draws per chunk: small temporaries; the stream does not depend on it


def _check_cap(dim: int, cap: int | None = None) -> None:
    limit = DEFAULT_DIM_CAP if cap is None else cap
    if dim > limit:
        raise OracleError(f"dense dimension {dim} exceeds cap {limit}")


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Hermitian eigendecomposition of one matrix or of a stack
    ``(..., s, s)``: ascending eigenvalues and unitary eigenvector
    matrices, with every matrix's residual and unitarity checked
    explicitly.  A non-finite entry, in or out, raises ``OracleError``:
    every gate is written so that a NaN fails it."""
    if not np.isfinite(m).all():
        raise OracleError("matrix has a non-finite entry")
    defect = np.abs(m - _adjoint(m)).max(initial=0.0)
    if defect > 1e-12:
        raise OracleError(f"matrix not Hermitian: max asymmetry {defect:.3e}")
    values, vectors = np.linalg.eigh(m)
    scale = np.maximum(1.0, np.abs(values).max(axis=-1, initial=0.0))
    residual = np.abs(m @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1), initial=0.0)
    # argmax picks the first NaN, which then fails the gate
    worst = np.unravel_index(np.argmax(residual - 1e-10 * scale), scale.shape)
    if not residual[worst] <= 1e-10 * scale[worst]:
        raise OracleError(
            f"eigensolver residual {residual[worst]:.3e} exceeds 1e-10*{scale[worst]:.3e}"
        )
    unitarity = np.abs(_adjoint(vectors) @ vectors - np.eye(m.shape[-1])).max(initial=0.0)
    if not unitarity <= 1e-10:
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


def symmetrizer(m: int, n: int) -> np.ndarray:
    """Projector onto the fully symmetric subspace of m copies of C^n
    (real: the mean of the m! site permutations)."""
    _check_cap(n**m)
    basis = _sym_basis(m, n)
    return basis @ basis.T


def mean_states(cfg: ProblemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two Haar-averaged inputs as dense density matrices: maximally
    mixed on sym(AB) x sym(C) and on sym(A) x sym(BC)."""
    _check_cap(cfg.n ** cfg.total_copies)
    ab, c, a, bc = (_sym_basis(m, cfg.n) for m in (cfg.n1, cfg.n_c, cfg.n_a, cfg.n2))
    rho1 = _kron(ab @ ab.T, c @ c.T) / cfg.d1
    rho2 = _kron(a @ a.T, bc @ bc.T) / cfg.d2
    for rho in (rho1, rho2):
        if abs(float(np.trace(rho).real) - 1.0) > 1e-12:
            raise OracleError("mean state trace deviates from one")
    return rho1, rho2


def haar_average(cases: Sequence[tuple[int, int]], samples: int, seed: int) -> list[np.ndarray]:
    """Empirical means of the m-fold tensor power projectors, one per case
    (m, n), over one stream of Haar-random pure states; deterministic for a
    fixed (seed, largest n, samples).  The stream is an SFC64 generator
    seeded with (seed, N), N the largest n.  Each draw is 2N real normals
    read as N complex numbers, and each n normalizes the first n of them: a
    slice of a standard complex Gaussian vector is again one, so every
    dimension sees exact Haar draws.  One product per chunk with a fixed
    0/1 matrix gives every prefix's squared norm at once, and each n reads
    its own.

    Every entry of psi^(x)m is the monomial of its site string's multiset,
    so each n accumulates its top order on one sorted string per multiset,
    a D_m x D_m product per chunk, expanded to the full n^m x n^m matrix by
    an index gather at the end.  Every draw has unit norm, so a lower
    order's mean is a partial trace of the top order's."""
    tops = {n: max(m for m, k in cases if k == n) for _, n in cases}
    _check_cap(max(n**m for n, m in tops.items()))
    if samples < 1:
        raise ValueError("need at least one sample")
    # per n: its top order's multisets as label digits (a row per site),
    # the multiset of each site string, and the running sum
    parts = []
    for n, m in tops.items():
        keys, columns = np.unique(_multiset_keys(m, n), return_inverse=True)
        digits = keys // n ** np.arange(m - 1, -1, -1)[:, None] % n
        parts.append((n, digits, columns, np.zeros((len(keys),) * 2, dtype=complex)))
    size = max(tops)
    rng = np.random.Generator(np.random.SFC64((seed, size)))
    # cum[i, j] = 1 where real coordinate i belongs to the first j + 1 complex ones
    cum = (np.arange(2 * size)[:, None] // 2 <= np.arange(size)).astype(float)
    chunk = np.empty((_HAAR_CHUNK, 2 * size))
    for start in range(0, samples, _HAAR_CHUNK):
        real = chunk[: min(_HAAR_CHUNK, samples - start)]
        rng.standard_normal(out=real)
        draws = real.view(complex).T.copy()  # contiguous: a row per coordinate
        scale = (1 / np.sqrt((real * real) @ cum)).T  # row n - 1: 1 / |first n coordinates|
        for n, digits, _, acc in parts:
            psi = draws[:n] * scale[n - 1]
            cols = psi[digits[0]]
            for site in digits[1:]:
                cols *= psi[site]
            acc += cols @ cols.conj().T
    means = {n: (acc / samples)[np.ix_(columns, columns)] for n, _, columns, acc in parts}
    return [means[n].reshape(n**m, n ** (tops[n] - m), n**m, -1).trace(axis1=1, axis2=3)
            for m, n in cases]


@dataclass(frozen=True)
class _Block:
    """The weight blocks of one orbit of label weights, as one (d1_w, d2_w)
    block reduced in an orthonormal frame of its share of the joint span
    supp(rho1)+supp(rho2), of size s = d1_w + d2_w - 1.  Only the
    p = d1_w - 1 live pairs carry pair vectors; the degenerate pair (the
    block's symmetric vector, cosine 1) has none."""

    size: int  # weights in the orbit: every orbit total is the block's times size
    r1: np.ndarray  # (s, s) projector on supp(rho1) in the block frame: rho1 is r1 / d1
    r2: np.ndarray  # (s, s) projector on supp(rho2): rho2 is r2 / d2
    identity: np.ndarray  # (s, s) span identity rebuilt from the Jordan pieces
    unpaired: np.ndarray  # (s, s) projector on supp(rho2) directions with no partner
    sp1: np.ndarray  # (s, p) per-pair unit vectors orthogonal to the rho1 direction
    sp2: np.ndarray  # (s, p) per-pair unit vectors orthogonal to the rho2 direction
    cosines: np.ndarray  # (d1_w,) descending cosines of every pair, the degenerate one first
    key: tuple = ()  # the (parts, n_a, n_c) of the orbit reduction whose arrays it shares


@dataclass(frozen=True)
class _Geometry:
    """Prior-independent dense-oracle data for one canonical config, one
    block per orbit of label weights.  Every operator built downstream
    (Lambda and the POVM elements) lives inside the joint span and
    commutes with the torus and the label permutations, so it is checked
    block by block, each block standing for its orbit's size."""

    dim: int
    span_rank: int
    blocks: tuple[_Block, ...]  # one per orbit
    completeness_residual: float
    d1: int  # the ranks that scale every block's r1 and r2 to rho1 and rho2
    d2: int


def _string_counts(counts: np.ndarray) -> np.ndarray:
    """The number of site strings of the multiset of each label-count row,
    m!/prod(c!), or 0 where a count is negative, as exact Python integers
    (an object array)."""
    valid = (counts >= 0).all(axis=1)
    safe = np.where(valid[:, None], counts, 0)
    sites = safe.sum(axis=1)
    table = np.array([math.factorial(m) for m in range(sites.max(initial=0) + 1)], dtype=object)
    return np.where(valid, table[sites] // table[safe].prod(axis=1), 0)


def _orbits(n: int, total: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The orbits of the label weights of ``total`` sites under the label
    permutations, one at a time: each orbit's nonzero counts, a partition
    of total into at most n parts, descending, in reverse-lexicographic
    order, and its number of weights, n!/((n - l)! prod mult!) for l parts
    of those multiplicities, a Python int."""
    parts = [total]
    while parts:
        yield tuple(parts), (math.perm(n, len(parts))
                             // math.prod(map(math.factorial, Counter(parts).values())))
        # next: shrink the last part that can, refill the rest greedily below it
        for i in reversed(range(len(parts))):
            top, rest = parts[i] - 1, sum(parts[i:])
            if top and rest - top <= top * (n - i - 1):
                full, last = divmod(rest - top, top)
                parts[i:] = [top] * (full + 1) + [last] * bool(last)
                break
        else:
            parts = []



@lru_cache(maxsize=256)
def _block_counts(weight: tuple[int, ...], n_a: int, n_c: int) -> tuple[np.ndarray, ...]:
    """The exact string counts of the block of G = B1^T B2 of weight w.
    B1's columns are the pairs (M_AB, M_C) and B2's the pairs (M_A, M_BC),
    of weight M_AB + M_C and M_A + M_BC.  The block's rows are the M_C <= w
    of n_c labels and its columns the M_A <= w of n_a labels, both in
    ``np.indices`` order.  Returns those count rows, |M_C| and |M_AB| per
    row, |M_A| and |M_BC| per column, and the matrix of |M_B|,
    M_B = M_AB - M_A, 0 where M_B has a negative count.  ``_gram_block``
    and ``check_gram_counts`` read the same cached arrays, so they are
    read-only."""
    w = np.array(weight)
    below = np.indices(w + 1).reshape(len(w), -1).T  # every count row <= w
    sites = below.sum(axis=1)
    m_c, m_a = below[sites == n_c], below[sites == n_a]
    r, c = len(m_c), len(m_a)
    m_b = w - m_c[:, None, :] - m_a
    s = _string_counts(np.concatenate([m_c, w - m_c, m_a, w - m_a, m_b.reshape(r * c, -1)]))
    counts = (m_c, m_a, s[:r], s[r:2 * r], s[2 * r:2 * r + c], s[2 * r + c:2 * (r + c)],
              s[2 * (r + c):].reshape(r, c))
    for array in counts:
        array.setflags(write=False)
    return counts


def _gram_block(weight: tuple[int, ...], n_a: int, n_c: int) -> np.ndarray:
    """The ``(d1_w, d2_w)`` block of G = B1^T B2 of weight w.  Both bases'
    columns are normalized sums of site strings, so an entry is the number
    of strings its two columns share, |M_A| |M_B| |M_C|, over their norms:
    |M_B| sqrt(|M_A| |M_C| / (|M_AB| |M_BC|)), each count rounded once."""
    strings_c, strings_ab, strings_a, strings_bc, strings_b = (
        counts.astype(float) for counts in _block_counts(weight, n_a, n_c)[2:])
    return strings_b * np.sqrt(strings_a * strings_c[:, None] / (strings_ab[:, None] * strings_bc))


def _row_positions(rows: np.ndarray, found: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The index in ``rows`` of each row of ``found``, or -1 where it is
    none of them; every row is a count row below ``shape``."""
    table = np.full(math.prod(shape), -1)
    table[np.ravel_multi_index(rows.T, shape)] = np.arange(len(rows))
    return table[np.ravel_multi_index(found.T, shape)]


def check_gram_counts(cfg: ProblemConfig) -> None:
    """Check, in exact integers against the n^N site strings, the counts
    that ``_gram_block`` rounds for the geometry: each orbit's
    ``_block_counts(parts)``, parts its descending weight with the zeros
    dropped, evaluated once and shared with the geometry.  Every string
    lies in the (weight, M_C, M_A) cell of its registers' label counts,
    and its weight's labels sorted by descending count (ties by label)
    carry that cell onto a cell of the orbit's block.  For every label
    weight, a cell must hold |M_A| |M_B| |M_C| strings, a row (a B1
    column) |M_AB| |M_C| and a column (a B2 column) |M_A| |M_BC|, the
    squared norms, and no string may lie outside the blocks;
    ``OracleError`` at the first mismatch."""
    n, total = cfg.n, cfg.total_copies
    _check_cap(n**total)
    sites = np.indices((n,) * total).reshape(total, -1)  # a row per site, A first
    a, b, c = ((register[:, :, None] == np.arange(n)).sum(axis=0)
               for register in np.split(sites, [cfg.n_a, cfg.n_a + cfg.n_b]))
    weight = a + b + c
    order = np.argsort(-weight, axis=1, kind="stable")
    descending, c, a = (np.take_along_axis(x, order, axis=1) for x in (weight, c, a))
    # rows as base-(N+1) numbers, which order like the rows
    radix = (total + 1) ** np.arange(n - 1, -1, -1)
    _, first, of_weight = np.unique(weight @ radix, return_index=True, return_inverse=True)
    _, first_of_orbit, of_orbit = np.unique(descending @ radix, return_index=True,
                                            return_inverse=True)
    stray = 0
    for orbit, string in enumerate(first_of_orbit):
        parts = tuple(int(p) for p in descending[string] if p)
        m_c, m_a, s_c, s_ab, s_a, s_bc, s_b = _block_counts(parts, cfg.n_a, cfg.n_c)
        own = of_orbit == orbit
        members, local = np.unique(of_weight[own], return_inverse=True)
        shape = tuple(p + 1 for p in parts)
        rows, cols = (_row_positions(m, x[own, :len(parts)], shape)
                      for m, x in ((m_c, c), (m_a, a)))
        inside = (rows >= 0) & (cols >= 0)
        stray += int((~inside).sum())
        cells = (len(members), len(m_c), len(m_a))
        index = (local * cells[1] + rows) * cells[2] + cols
        strings = np.bincount(index[inside], minlength=math.prod(cells)).reshape(cells)
        checks = (("cell", s_a * s_b * s_c[:, None], strings),
                  ("B1 column", s_ab * s_c, strings.sum(axis=2)),
                  ("B2 column", s_a * s_bc, strings.sum(axis=1)))
        for j, member in enumerate(members):
            for name, counted, enumerated in checks:
                if counted.tolist() != enumerated[j].tolist():
                    w = tuple(weight[first[member]].tolist())
                    raise OracleError(f"{name} string counts {counted.tolist()} of weight {w} "
                                      f"(parts {parts}) differ from the site strings' "
                                      f"{enumerated[j].tolist()}")
    if stray:
        raise OracleError(f"{stray} site strings lie outside every Gram block")


def _weight_block(g: np.ndarray) -> _Block:
    """Certify and reduce the weight block ``g`` of G = B1^T B2, as one
    weight's block.  Its basis columns [B1_w B2_w] have
    the Gram matrix K = [[I, G], [G^T, I]].  The supports share exactly the
    block's symmetric vector, so K must have rank s = d1_w + d2_w - 1
    (eigenvalues above 1e-12); it is factored as C^T C on its top s
    eigenpairs, C holding the bases in an orthonormal frame of their joint
    span, and C^T C must match K to 1e-10.  The rank check leaves SVD pair
    0, at cosine 1, the only degenerate pair."""
    size1, size2 = g.shape
    span = size1 + size2 - 1
    gram = np.block([[np.eye(size1), g], [_adjoint(g), np.eye(size2)]])
    values, vectors = np.linalg.eigh(gram)
    rank = int((values > 1e-12).sum())
    if rank != span:
        raise OracleError(f"weight block spans {rank} directions, expected {span}")
    frame = np.sqrt(values[-span:])[:, None] * _adjoint(vectors[:, -span:])
    defect = float(np.abs(_adjoint(frame) @ frame - gram).max())
    if defect > 1e-10:
        raise OracleError(f"span frame misses the support Gram matrix by {defect:.3e}")
    b1, b2 = frame[:, :size1], frame[:, size1:]

    u, sigma, vh = np.linalg.svd(g)
    sigma = np.clip(sigma, 0.0, 1.0)
    pairs = len(sigma)
    f = b1 @ u  # Jordan basis of supp(rho1)
    g2 = b2 @ _adjoint(vh)  # paired + unpaired directions in supp(rho2)
    # the degenerate pair 0 carries no complement
    f_live, g_live, g_extra = f[:, 1:pairs], g2[:, 1:pairs], g2[:, pairs:]
    cos = sigma[1:]
    norm = np.sqrt(1.0 - cos**2)
    sp1 = (g_live - f_live * cos) / norm
    sp2 = (f_live - g_live * cos) / norm
    unpaired = g_extra @ _adjoint(g_extra)
    identity = f @ _adjoint(f) + sp1 @ _adjoint(sp1) + unpaired
    return _Block(1, b1 @ _adjoint(b1), b2 @ _adjoint(b2), identity, unpaired, sp1, sp2, sigma)


@lru_cache(maxsize=256)
def _orbit_block(gram: Callable, parts: tuple[int, ...], n_a: int, n_c: int) -> _Block:
    """The reduced block of every orbit whose weights have the nonzero
    counts ``parts``, at any n (zero counts add no rows or columns).  The
    key holds ``gram`` (``_gram_block``): a replacement keys its own.  Every
    config that shares the block reads its arrays, so they are read-only."""
    block = replace(_weight_block(gram(parts, n_a, n_c)), key=(parts, n_a, n_c))
    for array in (block.r1, block.r2, block.identity, block.unpaired, block.sp1, block.sp2,
                  block.cosines):
        array.setflags(write=False)
    return block


@lru_cache(maxsize=64)
def _jordan_geometry(n: int, n_a: int, n_b: int, n_c: int, cap: int | None) -> _Geometry:
    """Build and certify the dense geometry for one canonical copy
    configuration (n_a >= n_c) from the weight blocks of G = B1^T B2, one
    block per orbit of weights (of its descending weight: permuting the
    labels permutes a block's rows and columns), each total weighted by
    the orbit's size.  The cap bounds sum d1_w + d2_w - 1 over the orbits,
    which is counted first and refused as soon as it passes the cap."""
    cfg = ProblemConfig(n, n_a, n_b, n_c, 0.5)  # priors do not enter here
    if not cfg.is_canonical:
        raise PreconditionError("_jordan_geometry expects n_a >= n_c; canonicalize first")
    built = 0
    for parts, _ in _orbits(n, cfg.total_copies):
        # d1_w and d2_w count the rows x <= parts with |x| = n_c and n_a:
        # coefficients of prod_i (1 + x + ... + x^parts_i), as Python ints
        rows = np.ones(1, dtype=object)
        for part in parts:
            rows = np.convolve(rows, np.ones(part + 1, dtype=object))[:n_a + 1]
        built += rows[n_c] + rows[n_a] - 1
        _check_cap(built, cap)
    blocks = [replace(_orbit_block(_gram_block, parts, n_a, n_c), size=size)
              for parts, size in _orbits(n, cfg.total_copies)]
    # a block spans d1_w + d2_w - 1 directions and holds d1_w pairs
    columns = [sum(b.size * len(b.cosines) for b in blocks),
               sum(b.size * (len(b.identity) + 1 - len(b.cosines)) for b in blocks)]
    if columns != [cfg.d1, cfg.d2]:
        raise OracleError(f"support bases have {columns} columns, expected {cfg.d1}, {cfg.d2}")
    span = sum(b.size * len(b.identity) for b in blocks)
    # the POVM elements always sum to the identity on the joint support by
    # construction, so the completeness residual is prior-independent
    completeness = max(float(np.abs(b.identity - np.eye(len(b.identity))).max()) for b in blocks)
    return _Geometry(n ** cfg.total_copies, span, tuple(blocks), completeness, cfg.d1, cfg.d2)


def block_labels(cosines: np.ndarray, spectrum: JordanSpectrum) -> np.ndarray:
    """The Jordan block k of each cosine: the block of its nearest O_k.  A
    label is certified only if the cosine lies closer to that O_k than half
    the smallest gap between the O_k, so that float noise cannot pick it;
    otherwise ``OracleError`` is raised."""
    overlaps = np.array([b.overlap for b in spectrum.blocks])
    half_gap = float((overlaps[:-1] - overlaps[1:]).min()) / 2
    distances = np.abs(cosines[:, None] - overlaps)
    labels = distances.argmin(axis=1)
    residual = float(distances.min(axis=1).max(initial=0.0))
    if not residual < half_gap:  # a NaN cosine fails too
        raise OracleError(f"cosine residual {residual:.1e} "
                          f"reaches half the smallest gap {half_gap:.1e}")
    return labels


def group_by_blocks(cosines: np.ndarray, spectrum: JordanSpectrum,
                    weights: np.ndarray | int = 1) -> list[tuple[float, int]]:
    """Count the cosines of each closed-form Jordan block, each labelled
    by ``block_labels`` and counted ``weights`` times (its orbit's size,
    exact as Python ints), and certify every count against d^k exactly.
    Per block, returns its cosine farthest from O_k and d^k; raises
    ``OracleError`` on an uncertified label or a wrong count."""
    labels = block_labels(cosines, spectrum)
    groups = []
    for block in spectrum.blocks:
        own = labels == block.k
        count = int((own * weights).sum())
        if count != block.multiplicity:
            raise OracleError(f"block {block.k} holds {count} cosines, "
                              f"expected d^k = {block.multiplicity}")
        farthest = cosines[own][np.abs(cosines[own] - block.overlap).argmax()]
        groups.append((float(farthest), block.multiplicity))
    return groups


def jordan_angles(cfg: ProblemConfig, cap: int | None = None) -> list[tuple[float, int]]:
    """Principal angles between the supports of the two dense mean states,
    via the certified support bases, as ``group_by_blocks`` pairs, each orbit
    block's cosines counted once per weight of its orbit; orientation-free."""
    canonical, _ = canonicalize(cfg)
    geometry = _jordan_geometry(canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, cap)
    cosines = np.concatenate([b.cosines for b in geometry.blocks])
    sizes = np.array([b.size for b in geometry.blocks for _ in b.cosines], dtype=object)
    return group_by_blocks(cosines, jordan_spectrum(canonical), sizes)


@dataclass(frozen=True)
class _Group:
    """The configs that share one canonical geometry: their indices in the
    caller's list and canonical forms, and their canonical priors as
    ``(P, 1, 1)`` arrays that broadcast over a block."""

    geometry: _Geometry
    indices: list[int]
    canonical: list[ProblemConfig]
    eta1: np.ndarray
    eta2: np.ndarray


def _groups(cfgs: Sequence[ProblemConfig], cap: int | None) -> list[_Group]:
    """``cfgs`` grouped by their canonical copies, in order of first
    appearance, each group with its one geometry."""
    members: dict[tuple[int, ...], list] = {}
    for i, cfg in enumerate(cfgs):
        c, _ = canonicalize(cfg)
        members.setdefault((c.n, c.n_a, c.n_b, c.n_c), []).append((i, c))
    groups = []
    for copies, group in members.items():
        indices, canonical = map(list, zip(*group))
        eta1, eta2 = (np.array([getattr(c, eta) for c in canonical])[:, None, None]
                      for eta in ("eta1", "eta2"))
        groups.append(_Group(_jordan_geometry(*copies, cap), indices, canonical, eta1, eta2))
    return groups


def _batched_eigvalues(stacks: Sequence[tuple[tuple, np.ndarray]]) -> list[np.ndarray]:
    """The eigenvalues of every ``(key, stack)``, in input order.  The
    stacks of one key (one orbit reduction) go through one
    ``hermitian_eig`` call, concatenated in input order."""
    places: dict[tuple, list[int]] = {}
    for i, (key, _) in enumerate(stacks):
        places.setdefault(key, []).append(i)
    values: list[np.ndarray] = [np.empty(0)] * len(stacks)
    for indices in places.values():
        parts = [stacks[i][1] for i in indices]
        solved = hermitian_eig(np.concatenate(parts))[0]
        for i, part in zip(indices, np.split(solved, np.cumsum([len(p) for p in parts])[:-1])):
            values[i] = part
    return values


def helstrom_probabilities(cfgs: Sequence[ProblemConfig], cap: int | None = None) -> list[float]:
    """Minimum-error probabilities from the dense trace norms of any
    configs: the trace norm of eta2*rho2 - eta1*rho1 sums each orbit
    block's absolute eigenvalues times the orbit's size, every (config,
    prior) on one shared orbit block in one ``hermitian_eig`` call."""
    groups = _groups(cfgs, cap)
    values = iter(_batched_eigvalues([
        (b.key, group.eta2 * (b.r2 / group.geometry.d2) - group.eta1 * (b.r1 / group.geometry.d1))
        for group in groups for b in group.geometry.blocks]))
    probabilities = [0.0] * len(cfgs)
    for group in groups:
        norms = sum(b.size * np.abs(next(values)).sum(axis=1) for b in group.geometry.blocks)
        for i, norm in zip(group.indices, norms):
            probabilities[i] = 0.5 * (1.0 - float(norm))
    return probabilities


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
    Jordan pairs and measure all of its required properties, for any
    configs.  Each canonical config takes one spectrum, one
    ``block_labels`` call over all its live cosines and one block solve
    per prior; every (config, prior) on one shared orbit block has its
    Pi0, Pi1 and Pi2 go through one ``hermitian_eig`` call.  The errors and
    the failure probability of a block count once per weight of its orbit.

    Pi1 weights the per-pair directions orthogonal to the state-2 vector,
    Pi2 those orthogonal to the state-1 vector plus the unpaired part of
    supp(rho2); Pi0 is the remainder of the joint-support identity.
    Each block's degenerate pair (cosine 1) carries no unambiguous
    information and falls entirely into Pi0.  Each live pair takes the
    block that ``block_labels`` certifies for its cosine; an uncertified
    label, or a live pair labelled with the degenerate block 0, raises
    ``OracleError``.

    ``printed_high_branch`` is the negative control: it builds the POVM
    from the erratum q1 = O_k, which must break the failure-probability
    equality whenever a HIGH branch is active.
    """
    groups = _groups(cfgs, cap)
    stacks, totals = [], []
    for group in groups:
        geo = group.geometry
        spectrum = jordan_spectrum(group.canonical[0])
        solves = [_solve_blocks(c, spectrum, printed_high_branch) for c in group.canonical]
        # an injected fault is measured against a second, honest solve
        honest = ([_solve_blocks(c, spectrum) for c in group.canonical] if printed_high_branch
                  else solves)
        expected = [_normal("Q_opt", sum(s.q_term for s in solved)) for solved in honest]
        # per prior and live block k, the weights of Pi1 and Pi2 on its pair
        # directions (block 0, O_0 = 1, is the degenerate pair)
        ratios = [b.overlap_sq_ratio for b in spectrum.blocks[1:]]
        weights = np.array([[[(1.0 - q) / (1.0 - num / den) for q in (s.q1, s.q2)]
                             for s, (num, den) in zip(solved[1:], ratios)]
                            for solved in solves])
        labels = block_labels(np.concatenate([b.cosines[1:] for b in geo.blocks]), spectrum)
        if not labels.all():
            raise OracleError("a live pair's cosine is labelled with the degenerate block 0")
        ends = np.cumsum([len(b.cosines) - 1 for b in geo.blocks])
        err12, err21, failure = np.zeros((3, len(group.indices)))
        # summed in block order, as a call for the one config sums them
        for b, own in zip(geo.blocks, np.split(labels, ends[:-1])):
            w = weights[:, own - 1]
            m1 = (b.sp2 * w[:, None, :, 0]) @ _adjoint(b.sp2)
            m2 = (b.sp1 * w[:, None, :, 1]) @ _adjoint(b.sp1) + b.unpaired
            m0 = b.identity - m1 - m2
            r1, r2 = b.r1 / geo.d1, b.r2 / geo.d2
            err12 += b.size * np.einsum("ij,pji->p", r1, m2).real
            err21 += b.size * np.einsum("ij,pji->p", r2, m1).real
            failure += b.size * np.einsum("pij,pji->p", group.eta1 * r1 + group.eta2 * r2,
                                          m0).real
            stacks.append((b.key, np.stack([m0, m1, m2], axis=1)))
        totals.append((expected, err12, err21, failure))
    minima = (values.min(axis=(1, 2)) for values in _batched_eigvalues(stacks))
    reports: list[PovmReport] = [None] * len(cfgs)  # type: ignore[list-item]
    for group, (expected, err12, err21, failure) in zip(groups, totals):
        geo = group.geometry
        min_eig = np.min([next(minima) for _ in geo.blocks], axis=0)
        if geo.dim > geo.span_rank:  # zero eigenvalues outside the joint span
            min_eig = np.minimum(min_eig, 0.0)
        for p, i in enumerate(group.indices):
            reports[i] = PovmReport(
                config=cfgs[i],
                min_eigenvalue=float(min_eig[p]),
                completeness_residual=geo.completeness_residual,
                error_rho1_pi2=float(err12[p]),
                error_rho2_pi1=float(err21[p]),
                failure_probability=float(failure[p]),
                expected_failure=expected[p],
                unpaired_rank=geo.d2 - geo.d1,
            )
    return reports


def certify_povm(
    cfg: ProblemConfig,
    cap: int | None = None,
    *,
    printed_high_branch: bool = False,
) -> PovmReport:
    """``certify_povms`` of one config."""
    return certify_povms([cfg], cap, printed_high_branch=printed_high_branch)[0]
