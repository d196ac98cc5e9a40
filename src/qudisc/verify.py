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

import numpy as np

from . import oracle
from .combinatorics import Partition, unitary_dim
from .discrimination import (
    bound_p0,
    bound_q0,
    minerror_probability,
    total_failure,
)
from .spectrum import (
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    multiplicity,
    overlap,
    overlap_via_6j,
)

GRID_DIMS = (2, 3, 4)
GRID_COPIES = (1, 2, 3)
GRID_PRIORS = (0.1, 0.5, 0.9)
POVM_PRIORS = (0.1, 0.3, 0.5, 0.7, 0.9)
HAAR_CASES = ((1, 2), (2, 2), (2, 3), (3, 2))
_DENSE_CROSSCHECK_DIM = 256  # full-eigh route re-run on the small configs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    detail: str
    gating: bool = True

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.gating:
            status = "INFO"
        return f"{status} {self.name}: max residual {self.max_residual:.3e} ({self.detail})"


def certification_grid(max_total_dim: int) -> Iterator[ProblemConfig]:
    for n in GRID_DIMS:
        for n_a, n_b, n_c in product(GRID_COPIES, repeat=3):
            if n ** (n_a + n_b + n_c) <= max_total_dim:
                yield ProblemConfig(n, n_a, n_b, n_c, 0.5)


def check_combinatorics() -> CheckResult:
    """Closed-form block multiplicities vs Robinson, and the rank sum,
    as exact integers over n <= 6, copies <= 4."""
    checked = 0
    for n in range(2, 7):
        for n_a, n_b, n_c in product(range(1, 5), repeat=3):
            cfg, _ = canonicalize(ProblemConfig(n, n_a, n_b, n_c, 0.5))
            total = cfg.total_copies
            running = 0
            for k in range(cfg.k_max + 1):
                d_k = multiplicity(k, cfg)
                if d_k != unitary_dim(Partition.two_row(total, k), n):
                    return CheckResult(
                        "combinatorial identities", False, 1.0,
                        f"d^k mismatch at n={n} copies=({n_a},{n_b},{n_c}) k={k}",
                    )
                running += d_k
                checked += 1
            if running != cfg.d1:
                return CheckResult(
                    "combinatorial identities", False, 1.0,
                    f"sum d^k != d1 at n={n} copies=({n_a},{n_b},{n_c})",
                )
    return CheckResult(
        "combinatorial identities", True, 0.0, f"{checked} blocks, exact integer equality"
    )


def check_six_j() -> CheckResult:
    """Recoupling route vs binomial route for every overlap, to 1e-12."""
    worst = 0.0
    count = 0
    for n in range(2, 7):
        for n_a, n_b, n_c in product(range(1, 5), repeat=3):
            cfg = ProblemConfig(n, n_a, n_b, n_c, 0.5)
            for k in range(cfg.k_max + 1):
                worst = max(worst, abs(overlap(k, cfg) - overlap_via_6j(k, cfg)))
                count += 1
    return CheckResult("6j overlap cross-check", worst <= 1e-12, worst, f"{count} overlaps")


def check_principal_angles(max_total_dim: int) -> CheckResult:
    """Dense principal angles vs the closed-form (O_k, d^k) spectrum."""
    worst = 0.0
    count = 0
    for cfg in certification_grid(max_total_dim):
        canonical, _ = canonicalize(cfg)
        spectrum = jordan_spectrum(canonical)
        observed = oracle.jordan_angles(cfg, max_total_dim)
        if cfg.n ** cfg.total_copies <= _DENSE_CROSSCHECK_DIM:
            # second, slower support route: full certified eigensolve
            dense = oracle.principal_angles(*oracle.mean_states(cfg, max_total_dim))
            if len(dense) != len(observed) or any(
                mo != md or abs(co - cd) > 1e-9
                for (co, mo), (cd, md) in zip(observed, dense)
            ):
                return CheckResult(
                    "principal angles", False, 1.0,
                    f"support routes disagree for {cfg.n},({cfg.n_a},{cfg.n_b},{cfg.n_c})",
                )
        expected = [(b.overlap, b.multiplicity) for b in spectrum.blocks]
        if len(observed) != len(expected):
            return CheckResult(
                "principal angles", False, 1.0,
                f"block count mismatch for {cfg.n},({cfg.n_a},{cfg.n_b},{cfg.n_c})",
            )
        for (cos_obs, mult_obs), (cos_exp, mult_exp) in zip(observed, expected):
            if mult_obs != mult_exp:
                return CheckResult(
                    "principal angles", False, 1.0,
                    f"multiplicity mismatch for {cfg.n},({cfg.n_a},{cfg.n_b},{cfg.n_c})",
                )
            worst = max(worst, abs(cos_obs - cos_exp))
        count += 1
    return CheckResult("principal angles", worst <= 1e-9, worst, f"{count} configs")


def check_min_error(max_total_dim: int) -> CheckResult:
    """Dense trace-norm Helstrom value vs the closed form."""
    worst = 0.0
    count = 0
    for base in certification_grid(max_total_dim):
        for eta1 in GRID_PRIORS:
            cfg = ProblemConfig(base.n, base.n_a, base.n_b, base.n_c, eta1)
            dense = oracle.helstrom_probability(cfg, max_total_dim)
            closed = minerror_probability(cfg).p_me
            worst = max(worst, abs(dense - closed))
            count += 1
    return CheckResult("min-error trace norm", worst <= 1e-9, worst, f"{count} cases")


def check_povm(max_total_dim: int, inject_q_fault: bool = False) -> CheckResult:
    """Numerical POVM assembly: positivity, completeness, zero error, and
    failure probability equal to the closed-form optimum."""
    worst = 0.0
    count = 0
    for base in certification_grid(max_total_dim):
        for eta1 in POVM_PRIORS:
            cfg = ProblemConfig(base.n, base.n_a, base.n_b, base.n_c, eta1)
            report = oracle.certify_povm(
                cfg, max_total_dim, printed_high_branch=inject_q_fault
            )
            worst = max(
                worst,
                -report.min_eigenvalue,
                report.completeness_residual,
                report.error_rho1_pi2,
                report.error_rho2_pi1,
                report.failure_residual,
            )
            count += 1
            if not report.passed():
                return CheckResult(
                    "POVM certification", False, worst,
                    f"failed at n={cfg.n} copies=({cfg.n_a},{cfg.n_b},{cfg.n_c}) eta1={eta1}",
                )
    return CheckResult("POVM certification", True, worst, f"{count} cases")


def check_haar(samples: int, seed: int) -> CheckResult:
    """Monte-Carlo Lemma-1 check: the Haar average of the tensor-power
    projector is the normalized symmetrizer, with 1/sqrt(samples) decay."""
    worst_scaled = 0.0
    ratios = []
    tol = 0.02 * math.sqrt(100_000 / samples)
    for m, n in HAAR_CASES:
        symmetrizer = oracle.symmetrizer(m, n)
        target = symmetrizer / symmetrizer.trace()
        # each stream is drawn once to 4x the samples; its first `samples`
        # draws give the 1x estimate.  The few-entry averages fluctuate a
        # lot per stream, so the halving ratio is measured on a 16-stream
        # mean to keep it near 1/2
        streams = [
            oracle.haar_average(m, n, 4 * samples, seed + i, prefix=samples) for i in range(16)
        ]
        error_1x, error_4x = (
            sum(float(np.linalg.norm(stream[j] - target)) for stream in streams) / len(streams)
            for j in (0, 1)
        )
        worst_scaled = max(worst_scaled, error_1x / tol * 0.02)
        ratios.append(error_4x / error_1x)
        if error_1x > tol:
            return CheckResult(
                "Haar-average lemma", False, error_1x, f"error too large for m={m}, n={n}"
            )
    if any(not 0.35 <= r <= 0.65 for r in ratios):
        return CheckResult(
            "Haar-average lemma", False, max(ratios),
            "error did not halve when samples quadrupled",
        )
    return CheckResult(
        "Haar-average lemma", True, worst_scaled,
        f"{len(HAAR_CASES)} cases, {samples} samples, quadrupling ratios "
        + ",".join(f"{r:.2f}" for r in ratios),
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
            worst = max(worst, q_res, p_res)
        else:
            info.append(f"({n_a},{n_b},{n_c}):{p_res:.1e}")
    detail = f"equal-copies gate at 2e-3; P0 residuals for n_a!=n_c: {'; '.join(info)}"
    return CheckResult("asymptotic bounds", worst <= 2e-3, worst, detail)


def run_all(
    max_total_dim: int = 1024,
    samples: int = 100_000,
    seed: int = 20260826,
    inject_q_fault: bool = False,
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
