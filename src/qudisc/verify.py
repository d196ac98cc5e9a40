"""Certification grid: every closed form checked against the dense oracle.

Each check family walks a grid of problem configurations and reports one
pass/fail line with its worst residual.  The Monte-Carlo family is fully
seeded so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .combinatorics import Partition, unitary_dim
from .discrimination import (
    bound_p0,
    bound_q0,
    minerror_probability,
    total_failure,
)
from .errors import OracleError
from .spectrum import (
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    overlap_numerators,
    overlap_via_6j,
    sym_space_dim,
)

GRID_DIMS = (2, 3, 4)
GRID_COPIES = (1, 2, 3)
GRID_PRIORS = (0.1, 0.5, 0.9)
POVM_PRIORS = (0.1, 0.3, 0.5, 0.7, 0.9)
HAAR_CASES = ((1, 2), (2, 2), (2, 3), (3, 2))
HAAR_STREAMS = 16
HAAR_MIN_SAMPLES = 1000  # the CLI floor; at one draw every stream T is 1 for any sampler
HAAR_Z = 4.75  # normal deviate of each Haar window edge
_COUNTED_DIM = 256  # Gram counts checked against every site string up to here


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: max residual {self.max_residual:.3e} ({self.detail})"


def certification_grid(max_total_dim: int) -> Iterator[ProblemConfig]:
    for n in GRID_DIMS:
        for n_a, n_b, n_c in product(GRID_COPIES, repeat=3):
            if n ** (n_a + n_b + n_c) <= max_total_dim:
                yield ProblemConfig(n, n_a, n_b, n_c, 0.5)


def _config_failure(name: str, cfg: ProblemConfig, exc: Exception) -> CheckResult:
    """A family's result when one of its configs raises ``exc``."""
    where = f"n={cfg.n} copies=({cfg.n_a},{cfg.n_b},{cfg.n_c})"
    return CheckResult(name, False, 1.0, f"{where}: {exc}")


def _first_failure(name: str, bases: list[ProblemConfig], call, exc: OracleError) -> CheckResult:
    """A family's result when its one batched ``call`` over every base
    config raised ``exc``: the first base whose own call raises, as a walk
    over the grid would meet it."""
    for base in bases:
        try:
            call(base)
        except OracleError as own:
            return _config_failure(name, base, own)
    return CheckResult(name, False, 1.0, f"batched call: {exc}")


def _fold(*residuals: float) -> float:
    """The largest residual, or NaN if any is NaN, which ``max`` passes
    over: a NaN fails every ``<=`` gate."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def check_combinatorics() -> CheckResult:
    """The spectrum's block multiplicities vs Robinson, and the rank sum
    that ``jordan_spectrum`` asserts, as exact integers over n <= 6,
    copies <= 4."""
    checked = 0
    for n in range(2, 7):
        for n_a, n_b, n_c in product(range(1, 5), repeat=3):
            cfg = ProblemConfig(n, n_a, n_b, n_c, 0.5)
            try:
                blocks = jordan_spectrum(canonicalize(cfg)[0]).blocks
            except AssertionError as exc:
                return _config_failure("combinatorial identities", cfg, exc)
            for block in blocks:
                shape = Partition.two_row(cfg.total_copies, block.k)
                if block.multiplicity != unitary_dim(shape, n):
                    return CheckResult(
                        "combinatorial identities", False, 1.0,
                        f"d^k mismatch at n={n} copies=({n_a},{n_b},{n_c}) k={block.k}",
                    )
            checked += len(blocks)
    return CheckResult(
        "combinatorial identities", True, 0.0, f"{checked} blocks, exact integer equality"
    )


def check_six_j() -> CheckResult:
    """Recoupling route vs the exact overlap squares for every overlap,
    to 1e-12, over n <= 6, copies <= 4.  Neither route depends on n, so
    each copy triple is evaluated once and counts once per n."""
    dims = range(2, 7)
    worst = 0.0
    count = 0
    for n_a, n_b, n_c in product(range(1, 5), repeat=3):
        cfg = ProblemConfig(dims[0], n_a, n_b, n_c, 0.5)
        nums, den = overlap_numerators(cfg)
        for k, num in enumerate(nums):
            worst = _fold(worst, abs(math.sqrt(num / den) - overlap_via_6j(k, cfg)))
        count += len(dims) * len(nums)
    return CheckResult("6j overlap cross-check", worst <= 1e-12, worst, f"{count} overlaps")


def check_principal_angles(max_total_dim: int) -> CheckResult:
    """Dense principal angles vs the closed-form (O_k, d^k) spectrum: the
    cosines carry the exact Kostka labels, whose orbit totals the geometry
    certifies against d^k, and every cosine must lie within 1e-9 of its
    label's O_k.  Up to n^N = 256 the Gram counts of the canonical configs
    are first checked exactly."""
    from . import oracle
    worst = 0.0
    count = 0
    for cfg in certification_grid(max_total_dim):
        try:
            # a mirrored config has its canonical mirror's blocks, which the grid holds too
            if cfg.is_canonical and cfg.n ** cfg.total_copies <= _COUNTED_DIM:
                oracle.check_gram_counts(cfg)
            groups = oracle.jordan_angles(cfg)
        except OracleError as exc:
            return _config_failure("principal angles", cfg, exc)
        nums, den = overlap_numerators(cfg)  # O_k as JordanBlock.overlap has it
        worst = _fold(worst, *(abs(c - math.sqrt(num / den)) for (c, _), num in zip(groups, nums)))
        count += 1
    return CheckResult("principal angles", worst <= 1e-9, worst, f"{count} configs")


def _priors(base: ProblemConfig, priors: tuple[float, ...]) -> list[ProblemConfig]:
    return [ProblemConfig(base.n, base.n_a, base.n_b, base.n_c, eta1) for eta1 in priors]


def check_min_error(max_total_dim: int) -> CheckResult:
    """Dense trace-norm Helstrom value vs the closed form, every (config,
    prior) of the grid from one batched oracle call, and one spectrum per
    canonical config."""
    from . import oracle
    bases = list(certification_grid(max_total_dim))
    cfgs = [cfg for base in bases for cfg in _priors(base, GRID_PRIORS)]
    try:
        values = iter(oracle.helstrom_probabilities(cfgs))
    except OracleError as exc:
        return _first_failure(
            "min-error trace norm", bases,
            lambda base: oracle.helstrom_probabilities(_priors(base, GRID_PRIORS)),
            exc)
    spectra = {c: jordan_spectrum(c) for c in {canonicalize(base)[0] for base in bases}}
    worst = 0.0
    for base in bases:
        spectrum = spectra[canonicalize(base)[0]]
        for cfg, dense in zip(_priors(base, GRID_PRIORS), values):
            worst = _fold(worst, abs(dense - minerror_probability(cfg, spectrum).p_me))
    return CheckResult("min-error trace norm", worst <= 1e-9, worst, f"{len(cfgs)} cases")


def check_povm(max_total_dim: int, inject_q_fault: bool = False) -> CheckResult:
    """Numerical POVM assembly: positivity, completeness, zero error, and
    failure probability equal to the closed-form optimum.  Every (config,
    prior) of the grid is certified by one batched oracle call; the first
    failing one in grid order is reported."""
    from . import oracle
    bases = list(certification_grid(max_total_dim))
    cfgs = [cfg for base in bases for cfg in _priors(base, POVM_PRIORS)]
    try:
        reports = oracle.certify_povms(cfgs, printed_high_branch=inject_q_fault)
    except OracleError as exc:
        return _first_failure(
            "POVM certification", bases,
            lambda base: oracle.certify_povms(_priors(base, POVM_PRIORS),
                                              printed_high_branch=inject_q_fault),
            exc)
    worst = 0.0
    for cfg, report in zip(cfgs, reports):
        worst = _fold(worst, -report.min_eigenvalue, report.completeness_residual,
                      report.error_rho1_pi2, report.error_rho2_pi1, report.failure_residual)
        if not report.passed():
            return CheckResult(
                "POVM certification", False, worst,
                f"failed at n={cfg.n} copies=({cfg.n_a},{cfg.n_b},{cfg.n_c}) eta1={cfg.eta1}",
            )
    return CheckResult("POVM certification", True, worst, f"{len(cfgs)} cases")


def _chi2_quantile(k: float, z: float) -> float:
    """Wilson-Hilferty quantile of chi^2_k / k at the normal deviate z."""
    h = 2 / (9 * k)
    return (1 - h + z * math.sqrt(h)) ** 3


def haar_moments(m: int, n: int) -> tuple[float, float]:
    """(1 - 1/D_m, 1/D_2m - 1/D_m^2): the squared distance of every draw
    from the Haar mean, and the variance of the draws' cross terms."""
    d_m, d_2m = sym_space_dim(m, n), sym_space_dim(2 * m, n)
    return 1 - 1 / d_m, 1 / d_2m - 1 / d_m**2


def check_haar(samples: int, seed: int) -> CheckResult:
    """Monte-Carlo Lemma-1 check: the Haar average of X = (psi psi^+)^(x)m
    is S_m/D_m, the symmetrizer over D_k = C(n+k-1, k).

    Each draw has ||X - S_m/D_m||_F^2 = 1 - 1/D_m exactly, and the lemma at
    order 2m gives the variance c = 1/D_2m - 1/D_m^2 of the cross terms.  So
    for the mean of N iid draws, T = N ||mean - S_m/D_m||_F^2 / (1 - 1/D_m)
    has E T = 1 and Var T = 2 (1 - 1/N) c / (1 - 1/D_m)^2 at every N.  Per
    case, 16 streams of ``samples`` draws feed two gates: a bias gate, an
    upper bound on T of the pooled 16N-draw mean, and a variance-law gate, a
    two-sided window on the mean of the 16 stream T.  Every edge is the
    matched chi^2_k/k quantile (k = 2 / Var) at z = 4.75, a 1e-6 normal
    tail; under the exact weighted-chi^2 laws of T the false-fail rate is
    2e-6 to 8e-6 per case.  The max residual is the largest |T - 1| over
    the cases and both statistics.

    Stream i is one ``oracle.haar_average`` call for every case, an SFC64
    stream seeded with (seed + i, 3) that draws 6 normals per state: each n
    renormalizes the first n coordinates of the same draws in C^3.  Each
    case still sees 16 independent streams of N iid Haar draws, so its T
    keeps exactly the law above; the cases are dependent, but the family's
    false-fail rate is a union bound and needs no independence.  The means
    are compared in the full n^m space against ``oracle.symmetrizer``."""
    import numpy as np
    from . import oracle
    case_streams = zip(*(oracle.haar_average(HAAR_CASES, samples, seed + i)
                         for i in range(HAAR_STREAMS)))

    worst = 0.0
    pooled, means = [], []
    for (m, n), streams in zip(HAAR_CASES, case_streams):
        spread, c = haar_moments(m, n)
        symmetrizer = oracle.symmetrizer(m, n)
        target = symmetrizer / symmetrizer.trace()

        def t_stat(mean: np.ndarray, draws: int) -> float:
            return draws * float(np.linalg.norm(mean - target)) ** 2 / spread

        def dof(draws: int) -> float:  # 2 / Var T
            return spread**2 / ((1 - 1 / draws) * c)

        t_pool = t_stat(sum(streams) / HAAR_STREAMS, HAAR_STREAMS * samples)
        t_mean = sum(t_stat(stream, samples) for stream in streams) / HAAR_STREAMS
        pooled.append(t_pool)
        means.append(t_mean)
        worst = _fold(worst, abs(t_pool - 1), abs(t_mean - 1))
        bound = _chi2_quantile(dof(HAAR_STREAMS * samples), HAAR_Z)
        low, high = (_chi2_quantile(HAAR_STREAMS * dof(samples), z) for z in (-HAAR_Z, HAAR_Z))
        if not t_pool <= bound:
            return CheckResult("Haar-average lemma", False, worst,
                               f"bias at m={m}, n={n}: pooled T {t_pool:.2f} > {bound:.2f}")
        if not low <= t_mean <= high:
            return CheckResult(
                "Haar-average lemma", False, worst,
                f"variance law at m={m}, n={n}: stream-mean T {t_mean:.2f} "
                f"outside [{low:.2f}, {high:.2f}]",
            )
    return CheckResult(
        "Haar-average lemma", True, worst,
        f"{len(HAAR_CASES)} cases, {samples} samples, pooled T "
        + ",".join(f"{t:.2f}" for t in pooled) + ", stream-mean T "
        + ",".join(f"{t:.2f}" for t in means),
    )


def check_asymptotics() -> CheckResult:
    """Closed forms at n = 2000 vs the n -> infinity bounds (equal program
    copies gate at 2e-3; unequal-copies residuals are informational)."""
    worst = 0.0
    info = []
    for n_a, n_b, n_c in product(GRID_COPIES, repeat=3):
        cfg = ProblemConfig(2000, n_a, n_b, n_c, 0.5)
        p_res = abs(minerror_probability(cfg).p_me - bound_p0(cfg))
        if n_a == n_c:
            q_res = abs(total_failure(cfg).q_total - bound_q0(cfg))
            worst = _fold(worst, q_res, p_res)
        else:
            info.append(f"({n_a},{n_b},{n_c}):{p_res:.1e}")
    detail = f"equal-copies gate at 2e-3; P0 residuals for n_a!=n_c: {'; '.join(info)}"
    return CheckResult("asymptotic bounds", worst <= 2e-3, worst, detail)


def run_all(
    *, max_total_dim: int, samples: int, seed: int, inject_q_fault: bool = False
) -> list[CheckResult]:
    return [
        check_combinatorics(),
        check_six_j(),
        check_principal_angles(max_total_dim),
        check_min_error(max_total_dim),
        check_povm(max_total_dim, inject_q_fault),
        check_haar(samples, seed),
        check_asymptotics(),
    ]
