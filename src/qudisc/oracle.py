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
states onto the other's, with rho1 and rho2 exchanged.  The dense states
of ``mean_states`` feed only the independent second route, where
``support_basis`` diagonalizes them with ``hermitian_eig`` (numpy's
``eigh`` wrapped in explicit residual and unitarity checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discrimination import total_failure
from .errors import OracleError, PreconditionError
from .spectrum import ProblemConfig, canonicalize, jordan_spectrum

DEFAULT_DIM_CAP = 4096
SUPPORT_TOL = 1e-9
GROUP_TOL = 1e-7
_HAAR_CHUNK = 20_000


def _check_cap(dim: int, cap: int | None) -> None:
    limit = DEFAULT_DIM_CAP if cap is None else cap
    if dim > limit:
        raise OracleError(f"dense dimension {dim} exceeds cap {limit}")


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified Hermitian eigendecomposition: ascending eigenvalues and a
    unitary eigenvector matrix, with residuals checked explicitly."""
    defect = np.abs(m - m.conj().T).max()
    if defect > 1e-12:
        raise OracleError(f"matrix not Hermitian: max asymmetry {defect:.3e}")
    values, vectors = np.linalg.eigh(m)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    residual = np.abs(m @ vectors - vectors * values).max()
    if residual > 1e-10 * scale:
        raise OracleError(f"eigensolver residual {residual:.3e} exceeds 1e-10*{scale:.3e}")
    unitarity = np.abs(vectors.conj().T @ vectors - np.eye(m.shape[0])).max()
    if unitarity > 1e-10:
        raise OracleError(f"eigenvector matrix not unitary: defect {unitarity:.3e}")
    return values, vectors


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron is far too slow for ~1000x1000 outputs; one broadcast
    # multiply plus reshape is equivalent for 2-d inputs
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def _sym_basis(m: int, n: int) -> np.ndarray:
    """Orthonormal columns spanning the fully symmetric subspace of m
    copies of C^n: one normalized vector per multiset of site labels,
    in ``combinations_with_replacement`` order.

    Each of the n^m site-label strings is sorted into its multiset key
    (read as a base-n number, keys order like the multisets); the
    strings sharing a key are that column's support.  O(m * n^m)."""
    digits = np.sort(np.indices((n,) * m).reshape(m, -1), axis=0)
    keys = n ** np.arange(m - 1, -1, -1) @ digits
    _, column, counts = np.unique(keys, return_inverse=True, return_counts=True)
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


def haar_average(m: int, n: int, samples: int, seed: int, cap: int | None = None) -> np.ndarray:
    """Empirical mean of the m-fold tensor power projector over Haar-random
    pure states; deterministic for a fixed (seed, m, n, samples).  Each
    state is a normalized complex Gaussian vector, drawn as 2n real normals
    read in complex view."""
    dim = n**m
    _check_cap(dim, cap)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng((seed, m, n))
    acc = np.zeros((dim, dim), dtype=complex)
    for start in range(0, samples, _HAAR_CHUNK):
        count = min(_HAAR_CHUNK, samples - start)
        real = rng.standard_normal((count, 2 * n))
        real /= np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]
        # one column per draw: the broadcast products then run along draws
        psi = cols = real.view(complex).T.copy()
        for _ in range(m - 1):
            cols = (cols[:, None, :] * psi[None, :, :]).reshape(-1, count)
        acc += cols @ cols.conj().T
    return acc / samples


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
class _Geometry:
    """Prior-independent dense-oracle data for one canonical config,
    reduced to an orthonormal frame of supp(rho1)+supp(rho2).

    All operators built downstream (the weighted difference Lambda and the
    unambiguous POVM elements) live inside this span, so once both support
    bases lie in the frame, every remaining check is a small dense
    computation in the frame."""

    dim: int
    span_rank: int
    cosines: np.ndarray  # paired singular values, descending
    r1: np.ndarray  # rho1 in the span frame
    r2: np.ndarray
    sf: np.ndarray  # Jordan basis of supp(rho1), span frame
    sp1: np.ndarray  # per-pair unit vectors orthogonal to the rho1 direction
    sp2: np.ndarray  # per-pair unit vectors orthogonal to the rho2 direction
    se: np.ndarray  # supp(rho2) directions with no partner in supp(rho1)
    pair_cosines: np.ndarray  # cosines of the non-degenerate pairs
    completeness_residual: float


@lru_cache(maxsize=None)
def _jordan_geometry(n: int, n_a: int, n_b: int, n_c: int, cap: int | None) -> _Geometry:
    """Build and certify the dense geometry for one canonical copy
    configuration (n_a >= n_c) from the register bases."""
    cfg = ProblemConfig(n, n_a, n_b, n_c, 0.5)  # priors do not enter here
    if not cfg.is_canonical:
        raise PreconditionError("_jordan_geometry expects n_a >= n_c; canonicalize first")
    dim = n ** cfg.total_copies
    _check_cap(dim, cap)
    ab, c, a, bc = _register_bases(cfg)
    b1, b2 = _kron(ab, c), _kron(a, bc)
    u_span, stacked_sv, _ = np.linalg.svd(np.hstack([b1, b2]), full_matrices=False)
    w = u_span[:, stacked_sv > 1e-6]
    r_pair = []
    for b, rank in ((b1, cfg.d1), (b2, cfg.d2)):
        if b.shape[1] != rank:
            raise OracleError(f"support basis has {b.shape[1]} columns, expected rank {rank}")
        gram = np.abs(b.conj().T @ b - np.eye(rank)).max()
        if gram > 1e-10:
            raise OracleError(f"support basis not orthonormal: defect {gram:.3e}")
        coords = w.conj().T @ b
        lost = np.linalg.norm(b - w @ coords)
        if lost > 1e-9:
            raise OracleError(f"support has weight {lost:.3e} outside the joint span")
        r_pair.append(coords @ coords.conj().T / rank)
    r1, r2 = r_pair

    u, sigma, vh = np.linalg.svd(b1.conj().T @ b2)
    sigma = np.clip(sigma, 0.0, 1.0)
    f = b1 @ u  # Jordan basis of supp(rho1)
    g = b2 @ vh.conj().T  # paired + unpaired directions in supp(rho2)
    g_paired, g_extra = g[:, : len(sigma)], g[:, len(sigma):]
    live = 1.0 - sigma > GROUP_TOL  # degenerate pairs carry no complement
    norms = np.sqrt(1.0 - sigma[live] ** 2)
    p2 = (f[:, live] - g_paired[:, live] * sigma[live]) / norms
    p1 = (g_paired[:, live] - f[:, live] * sigma[live]) / norms

    sf = w.conj().T @ f
    sp1 = w.conj().T @ p1
    sp2 = w.conj().T @ p2
    se = w.conj().T @ g_extra
    # the POVM elements always sum to the identity on the joint support by
    # construction, so the completeness residual is prior-independent
    identity_t = sf @ sf.conj().T + sp1 @ sp1.conj().T + se @ se.conj().T
    completeness = float(np.abs(identity_t - np.eye(w.shape[1])).max())
    return _Geometry(dim, w.shape[1], sigma, r1, r2,
                     sf, sp1, sp2, se, sigma[live], completeness)


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
    values, _ = hermitian_eig(canonical.eta2 * geometry.r2 - canonical.eta1 * geometry.r1)
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
    o_by_k = [(b.overlap, b.k, float(b.overlap_sq)) for b in spectrum.blocks]

    weight1, weight2 = [], []
    for s in geo.pair_cosines:
        matches = [item for item in o_by_k if abs(item[0] - s) < GROUP_TOL]
        if len(matches) != 1:
            raise OracleError(f"cosine {s!r} matches {len(matches)} blocks")
        _, k, o2 = matches[0]
        q1, q2 = q_by_k[k]
        weight1.append((1.0 - q1) / (1.0 - o2))
        weight2.append((1.0 - q2) / (1.0 - o2))

    m1 = (geo.sp2 * np.asarray(weight1)) @ geo.sp2.conj().T
    m2 = (geo.sp1 * np.asarray(weight2)) @ geo.sp1.conj().T + geo.se @ geo.se.conj().T
    identity_t = (
        geo.sf @ geo.sf.conj().T + geo.sp1 @ geo.sp1.conj().T + geo.se @ geo.se.conj().T
    )
    m0 = identity_t - m1 - m2

    min_eig = min(float(hermitian_eig(op)[0].min()) for op in (m0, m1, m2))
    if geo.dim > geo.span_rank:  # zero eigenvalues outside the joint span
        min_eig = min(min_eig, 0.0)
    err12 = float(np.trace(geo.r1 @ m2).real)
    err21 = float(np.trace(geo.r2 @ m1).real)
    failure = float(
        (canonical.eta1 * np.trace(geo.r1 @ m0) + canonical.eta2 * np.trace(geo.r2 @ m0)).real
    )
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
        unpaired_rank=geo.se.shape[1],
    )
