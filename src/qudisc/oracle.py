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
own.  Supports, principal angles, the weighted difference operator and
the POVM are all block-diagonal by weight.  Blocks of equal span size
are stacked, and each stack takes one batched ``hermitian_eig`` call.
Every block is computed, the label-permuted copies included.

The dense states of ``mean_states`` feed only the independent second
route, where ``support_basis`` diagonalizes them with ``hermitian_eig``
(numpy's ``eigh`` wrapped in explicit residual and unitarity checks).

The Haar sampler draws one stream per (seed, n) and returns the mean
tensor power of every requested order from it, so the lemma checks that
share a dimension share their draws.  Each order's mean is still the
mean of iid Haar draws, with the law it would have alone.  It is
accumulated on one site string per multiset (D_m x D_m, not n^m x n^m)
and expanded to the full space only at the end, so ``verify`` compares
it in the full space against ``symmetrizer``, which stays an independent
check of the multiset basis.
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
    so each order accumulates one representative string per multiset
    (a D_m x D_m product per chunk) and is expanded to the full n^m x n^m
    matrix by an index gather at the end."""
    _check_cap(n ** max(orders), cap)
    if samples < 1:
        raise ValueError("need at least one sample")
    strings, columns = [], []
    for m in orders:
        _, first, column = np.unique(_multiset_keys(m, n), return_index=True, return_inverse=True)
        strings.append(np.indices((n,) * m).reshape(m, -1)[:, first])  # sorted label strings
        columns.append(column)
    accs = [np.zeros((s.shape[1],) * 2, dtype=complex) for s in strings]
    rng = np.random.default_rng((seed, n))
    for start in range(0, samples, _HAAR_CHUNK):
        count = min(_HAAR_CHUNK, samples - start)
        real = rng.standard_normal((count, 2 * n))
        real /= np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]
        # one row per label, one column per draw
        psi = real.view(complex).T
        for acc, labels in zip(accs, strings):
            cols = np.prod(psi[labels], axis=0)
            acc += cols @ cols.conj().T
    return [(acc / samples)[np.ix_(column, column)] for acc, column in zip(accs, columns)]


def support_basis(rho: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the support (eigenvalues above
    ``SUPPORT_TOL``)."""
    values, vectors = hermitian_eig(rho)
    return vectors[:, values > SUPPORT_TOL]


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
    fast config-level route."""
    b1 = support_basis(rho1)
    b2 = support_basis(rho2)
    cosines = np.clip(np.linalg.svd(b1.conj().T @ b2, compute_uv=False), 0.0, 1.0)
    return _group_cosines(cosines)


@dataclass(frozen=True)
class _Stack:
    """Weight blocks of one span size s, stacked along a leading axis of
    B blocks, each in an orthonormal frame of its own share of the joint
    span supp(rho1)+supp(rho2).  Pair columns are padded with zeros, and
    their cosines with NaN, to s."""

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


def _weight_block(b1: np.ndarray, b2: np.ndarray, d1: int, d2: int) -> tuple:
    """Certify and reduce the two support bases' rows and columns of one
    label weight: the block's ``_Stack`` fields (without the stack axis),
    its paired singular values and the squared weight each basis has
    outside the block's span."""
    u_span, stacked_sv, _ = np.linalg.svd(np.hstack([b1, b2]), full_matrices=False)
    w = u_span[:, stacked_sv > 1e-6]
    r_pair, lost_sq = [], []
    for b, rank in ((b1, d1), (b2, d2)):
        gram = np.abs(b.conj().T @ b - np.eye(b.shape[1])).max(initial=0.0)
        if gram > 1e-10:
            raise OracleError(f"support basis not orthonormal: defect {gram:.3e}")
        coords = w.conj().T @ b
        lost_sq.append(float(np.linalg.norm(b - w @ coords)) ** 2)
        r_pair.append(coords @ coords.conj().T / rank)

    u, sigma, vh = np.linalg.svd(b1.conj().T @ b2)
    sigma = np.clip(sigma, 0.0, 1.0)
    f = b1 @ u  # Jordan basis of supp(rho1)
    g = b2 @ vh.conj().T  # paired + unpaired directions in supp(rho2)
    g_paired, g_extra = g[:, : len(sigma)], g[:, len(sigma):]
    live = 1.0 - sigma > GROUP_TOL  # degenerate pairs carry no complement
    norms = np.sqrt(1.0 - sigma[live] ** 2)
    p2 = (f[:, live] - g_paired[:, live] * sigma[live]) / norms
    p1 = (g_paired[:, live] - f[:, live] * sigma[live]) / norms

    sf, se = w.conj().T @ f, w.conj().T @ g_extra
    sp1, sp2 = (np.zeros((w.shape[1],) * 2, dtype=w.dtype) for _ in range(2))
    pair_cosines = np.full(w.shape[1], np.nan)
    pairs = int(live.sum())
    sp1[:, :pairs], sp2[:, :pairs] = w.conj().T @ p1, w.conj().T @ p2
    pair_cosines[:pairs] = sigma[live]
    unpaired = se @ se.conj().T
    identity = sf @ sf.conj().T + sp1 @ sp1.conj().T + unpaired
    return (*r_pair, identity, unpaired, sp1, sp2, pair_cosines), sigma, lost_sq


@lru_cache(maxsize=None)
def _jordan_geometry(n: int, n_a: int, n_b: int, n_c: int, cap: int | None) -> _Geometry:
    """Build and certify the dense geometry for one canonical copy
    configuration (n_a >= n_c) from the register bases, one label-weight
    block at a time."""
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
    key1, key2 = _column_weights(b1, weight), _column_weights(b2, weight)

    by_size: dict[int, list[tuple]] = {}
    cosines, lost_sq = [], np.zeros(2)
    for key in range(weight.max() + 1):
        rows = weight == key
        block, sigma, lost = _weight_block(
            b1[np.ix_(rows, key1 == key)], b2[np.ix_(rows, key2 == key)], d1, d2
        )
        by_size.setdefault(len(block[0]), []).append(block)
        cosines.append(sigma)
        lost_sq += lost
    # the blocks share no row, so the lost weight is one Frobenius total
    lost = float(np.sqrt(lost_sq.max()))
    if lost > 1e-9:
        raise OracleError(f"support has weight {lost:.3e} outside the joint span")

    stacks = tuple(_Stack(*map(np.stack, zip(*group))) for _, group in sorted(by_size.items()))
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


def lambda_spectrum(cfg: ProblemConfig, cap: int | None = None) -> np.ndarray:
    """Eigenvalues of the weighted difference eta2*rho2 - eta1*rho1 on the
    full tensor space (the kernel outside the joint support contributes
    its zeros explicitly).  For n_a < n_c the mirrored canonical config's
    operator is minus the site-reversed one, so its eigenvalues are
    negated."""
    canonical, swapped = canonicalize(cfg)
    geometry = _jordan_geometry(canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, cap)
    values = np.concatenate([
        hermitian_eig(canonical.eta2 * st.r2 - canonical.eta1 * st.r1)[0].ravel()
        for st in geometry.stacks
    ])
    padded = np.zeros(geometry.dim)
    padded[: geometry.span_rank] = -values if swapped else values
    return np.sort(padded)


def helstrom_probability(cfg: ProblemConfig, cap: int | None = None) -> float:
    """Minimum-error probability from the dense trace norm."""
    values = lambda_spectrum(cfg, cap)
    return 0.5 * (1.0 - float(np.abs(values).sum()))


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


def certify_povm(
    cfg: ProblemConfig,
    cap: int | None = None,
    *,
    printed_high_branch: bool = False,
) -> PovmReport:
    """Assemble the optimal unambiguous POVM from the numerically extracted
    Jordan pairs and measure all of its required properties.

    Pi1 weights the per-pair directions orthogonal to the state-2 vector,
    Pi2 those orthogonal to the state-1 vector plus the unpaired part of
    supp(rho2); Pi0 is the remainder of the joint-support identity.
    Degenerate pairs (cosine 1) carry no unambiguous information and fall
    entirely into Pi0.

    ``printed_high_branch`` is the negative control: it builds the POVM
    from the erratum q1 = O_k, which must break the failure-probability
    equality whenever a HIGH branch is active.
    """
    canonical, _ = canonicalize(cfg)
    geo = _jordan_geometry(canonical.n, canonical.n_a, canonical.n_b, canonical.n_c, cap)
    spectrum = jordan_spectrum(canonical)
    result = total_failure(canonical, spectrum, printed_high_branch=printed_high_branch)
    q_by_k = {b.k: (b.q1, b.q2) for b in result.blocks}
    overlaps = np.array([b.overlap for b in spectrum.blocks])
    # per block k, the weights of Pi1 and Pi2 on its pair directions; no
    # live pair can match O_0 = 1
    weights = np.array([[(1.0 - q) / (1.0 - float(b.overlap_sq)) if b.k else np.nan
                         for q in q_by_k[b.k]] for b in spectrum.blocks])

    min_eig, err12, err21, failure = np.inf, 0.0, 0.0, 0.0
    for st in geo.stacks:
        live = ~np.isnan(st.pair_cosines)
        hits = np.abs(st.pair_cosines[live][:, None] - overlaps) < GROUP_TOL
        counts = hits.sum(axis=1)
        if np.any(counts != 1):
            bad = int(np.argmax(counts != 1))
            raise OracleError(
                f"cosine {float(st.pair_cosines[live][bad])!r} matches {counts[bad]} blocks"
            )
        pair_weights = np.zeros(live.shape + (2,))
        pair_weights[live] = weights[hits.argmax(axis=1)]
        m1 = (st.sp2 * pair_weights[:, None, :, 0]) @ _adjoint(st.sp2)
        m2 = (st.sp1 * pair_weights[:, None, :, 1]) @ _adjoint(st.sp1) + st.unpaired
        m0 = st.identity - m1 - m2
        min_eig = min(min_eig, float(hermitian_eig(np.concatenate([m0, m1, m2]))[0].min()))
        err12 += float(np.einsum("bij,bji->", st.r1, m2).real)
        err21 += float(np.einsum("bij,bji->", st.r2, m1).real)
        mixed = canonical.eta1 * st.r1 + canonical.eta2 * st.r2
        failure += float(np.einsum("bij,bji->", mixed, m0).real)
    if geo.dim > geo.span_rank:  # zero eigenvalues outside the joint span
        min_eig = min(min_eig, 0.0)
    # an injected fault is measured against a second, honest solve
    honest = total_failure(canonical, spectrum) if printed_high_branch else result
    return PovmReport(
        config=cfg,
        min_eigenvalue=min_eig,
        completeness_residual=geo.completeness_residual,
        error_rho1_pi2=err12,
        error_rho2_pi1=err21,
        failure_probability=failure,
        expected_failure=honest.q_total,
        unpaired_rank=geo.unpaired_rank,
    )
