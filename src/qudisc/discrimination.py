"""Closed-form optimal discrimination between the two mean input states.

Per Jordan block the problem is a two-pure-state one: unambiguous
discrimination with a three-branch optimum in the prior, and a 2x2
Helstrom eigenvalue problem for minimum error.  Large ratios of exact
integers are kept as Fractions until the final float conversion so the
totals hold up to the 1e-9/1e-12 tolerances downstream.

Known erratum handled here: the source table's third unambiguous branch
prints q1 = O_k, which is inconsistent with its own failure probability
line and with the two-state optimum; the consistent value q1 = O_k^2 is
implemented (and certified against the dense oracle).  The printed value
is kept available as a negative control for the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import PreconditionError
from .combinatorics import log_gamma_half
from .spectrum import (
    JordanSpectrum,
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    overlap_sq,
)


class Branch(Enum):
    LOW = "LOW"
    MIDDLE = "MIDDLE"
    HIGH = "HIGH"


def boundaries(k: int, spectrum: JordanSpectrum, cfg: ProblemConfig) -> tuple[Fraction, Fraction]:
    """Prior thresholds (c_k, d_k) separating the three unambiguous
    branches; exact rationals, c_k <= d_k with equality iff O_k = 1."""
    o2 = spectrum.blocks[k].overlap_sq
    d1, d2 = spectrum.d1, spectrum.d2
    c_k = Fraction(d1) * o2 / (d2 + d1 * o2)
    d_k = Fraction(d1, d1 + d2 * o2)
    return c_k, d_k


def _select_branch(eta1: float, c_k: Fraction, d_k: Fraction) -> Branch:
    if eta1 < c_k:
        return Branch.LOW
    if eta1 > d_k:
        return Branch.HIGH
    return Branch.MIDDLE


def optimal_q(
    k: int,
    spectrum: JordanSpectrum,
    cfg: ProblemConfig,
    *,
    printed_high_branch: bool = False,
) -> tuple[Branch, float, float]:
    """Optimal failure parameters (q1, q2) of block k, plus which branch of
    the piecewise optimum applies at the configured prior.

    ``printed_high_branch`` substitutes the erratum value q1 = O_k in the
    HIGH branch; only the verifier's negative control should set it.
    """
    block = spectrum.blocks[k]
    c_k, d_k = boundaries(k, spectrum, cfg)
    branch = _select_branch(cfg.eta1, c_k, d_k)
    o2 = float(block.overlap_sq)
    if branch is Branch.LOW:
        q1, q2 = 1.0, o2
    elif branch is Branch.HIGH:
        # q1 q2 = O_k^2 without a division: O_k^2 underflows to 0.0 at a
        # few hundred copies
        q1, q2 = o2, 1.0
        if printed_high_branch:
            q1, q2 = block.overlap, o2 / block.overlap
    else:
        root = math.sqrt(cfg.eta2 * spectrum.d1 / (cfg.eta1 * spectrum.d2))
        q1, q2 = root * block.overlap, block.overlap / root
    return branch, q1, q2


def block_failure(k: int, spectrum: JordanSpectrum, cfg: ProblemConfig) -> float:
    """Per-vector inconclusive probability of block k at its optimum."""
    block = spectrum.blocks[k]
    c_k, d_k = boundaries(k, spectrum, cfg)
    branch = _select_branch(cfg.eta1, c_k, d_k)
    d1, d2 = spectrum.d1, spectrum.d2
    o2 = float(block.overlap_sq)
    if branch is Branch.LOW:
        return cfg.eta1 / d1 + cfg.eta2 * o2 / d2
    if branch is Branch.HIGH:
        return cfg.eta1 * o2 / d1 + cfg.eta2 / d2
    # one root per register: d1*d2 can pass the float range where d1, d2 do not
    return 2.0 * math.sqrt(cfg.eta1 / d1) * math.sqrt(cfg.eta2 / d2) * block.overlap


@dataclass(frozen=True)
class UnambiguousBlock:
    k: int
    branch: Branch
    q1: float
    q2: float
    c_k: float
    d_k: float
    q_block: float
    multiplicity: int


@dataclass(frozen=True)
class UnambiguousResult:
    """Optimal unambiguous strategy, reported in the caller's labeling
    (q1/q2 and the branch thresholds are swapped back if the problem was
    canonicalized)."""

    config: ProblemConfig
    blocks: tuple[UnambiguousBlock, ...]
    q_total: float
    swapped: bool


def _block_contribution(
    branch: Branch, q1: float, q2: float, block, spectrum, cfg
) -> float:
    """d^k * Q_k, computed through d^k/d1 and d^k/d2 ratios so huge integer
    dimensions never lose precision in intermediate floats."""
    ratio1 = float(Fraction(block.multiplicity, spectrum.d1))
    ratio2 = float(Fraction(block.multiplicity, spectrum.d2))
    if branch is Branch.MIDDLE:
        return 2.0 * math.sqrt(cfg.eta1 * cfg.eta2 * ratio1 * ratio2) * block.overlap
    return cfg.eta1 * q1 * ratio1 + cfg.eta2 * q2 * ratio2


def total_failure(
    cfg: ProblemConfig,
    spectrum: JordanSpectrum | None = None,
    *,
    printed_high_branch: bool = False,
) -> UnambiguousResult:
    """Optimal total inconclusive probability Q and the per-block strategy.

    Accepts any config; canonicalizes internally and maps the report back
    to the caller's labeling.
    """
    canonical, swapped = canonicalize(cfg)
    if spectrum is None:
        spectrum = jordan_spectrum(canonical)
    blocks = []
    q_total = 0.0
    for block in spectrum.blocks:
        c_k, d_k = boundaries(block.k, spectrum, canonical)
        branch, q1, q2 = optimal_q(
            block.k, spectrum, canonical, printed_high_branch=printed_high_branch
        )
        q_total += _block_contribution(branch, q1, q2, block, spectrum, canonical)
        q_block = block_failure(block.k, spectrum, canonical)
        if swapped:
            q1, q2 = q2, q1
            branch = {Branch.LOW: Branch.HIGH, Branch.HIGH: Branch.LOW}.get(branch, branch)
            c_k, d_k = 1 - d_k, 1 - c_k
        blocks.append(
            UnambiguousBlock(
                k=block.k,
                branch=branch,
                q1=q1,
                q2=q2,
                c_k=float(c_k),
                d_k=float(d_k),
                q_block=q_block,
                multiplicity=block.multiplicity,
            )
        )
    return UnambiguousResult(
        config=cfg, blocks=tuple(blocks), q_total=q_total, swapped=swapped
    )


def equal_copies_failure(cfg: ProblemConfig, spectrum: JordanSpectrum | None = None) -> float:
    """Reduced form of the optimum for n_a = n_c at even priors:
    Q = (1/d1) sum_k d^k O_k."""
    if cfg.n_a != cfg.n_c:
        raise PreconditionError("equal-copies formula needs n_a == n_c")
    if abs(cfg.eta1 - 0.5) > 1e-12:
        raise PreconditionError("equal-copies formula needs eta1 = eta2 = 1/2")
    if spectrum is None:
        spectrum = jordan_spectrum(cfg)
    return sum(
        float(Fraction(b.multiplicity, spectrum.d1)) * b.overlap for b in spectrum.blocks
    )


# --- minimum error ----------------------------------------------------------

def _c_plus_minus(spectrum: JordanSpectrum, cfg: ProblemConfig) -> tuple[Fraction, Fraction]:
    e1 = Fraction(cfg.eta1) / spectrum.d1
    e2 = Fraction(cfg.eta2) / spectrum.d2
    return e2 + e1, e2 - e1


def minerror_eigenvalues(
    k: int, spectrum: JordanSpectrum, cfg: ProblemConfig
) -> tuple[float, float]:
    """Eigenvalue pair of the 2x2 Helstrom block: one nonnegative, one
    nonpositive, summing to the block trace."""
    c_plus, c_minus = _c_plus_minus(spectrum, cfg)
    o2 = spectrum.blocks[k].overlap_sq
    radicand = c_plus**2 - (c_plus**2 - c_minus**2) * o2
    root = math.sqrt(float(radicand))
    lam_plus = (float(c_minus) + root) / 2.0
    lam_minus = (float(c_minus) - root) / 2.0
    return max(lam_plus, 0.0), min(lam_minus, 0.0)


@dataclass(frozen=True)
class MinErrorBlock:
    k: int
    lambda_plus: float
    lambda_minus: float
    multiplicity: int


@dataclass(frozen=True)
class MinErrorResult:
    """Minimum-error optimum.  Block eigenvalues refer to the canonical
    labeling (n_a >= n_c); ``swapped`` records whether the input was
    relabeled.  The total is labeling-invariant."""

    config: ProblemConfig
    blocks: tuple[MinErrorBlock, ...]
    residual_eigenvalue: float
    residual_multiplicity: int
    p_me: float
    swapped: bool


def minerror_probability(
    cfg: ProblemConfig, spectrum: JordanSpectrum | None = None
) -> MinErrorResult:
    """Helstrom minimum-error probability between the two mean states."""
    canonical, swapped = canonicalize(cfg)
    if spectrum is None:
        spectrum = jordan_spectrum(canonical)
    c_plus, c_minus = _c_plus_minus(spectrum, canonical)
    blocks = []
    trace_norm_paired = 0.0
    for block in spectrum.blocks:
        lam_plus, lam_minus = minerror_eigenvalues(block.k, spectrum, canonical)
        blocks.append(
            MinErrorBlock(block.k, lam_plus, lam_minus, block.multiplicity)
        )
        # d^k * sqrt(radicand) as sqrt((d^k)^2 * radicand): exact under the root
        radicand = c_plus**2 - (c_plus**2 - c_minus**2) * block.overlap_sq
        trace_norm_paired += math.sqrt(float(block.multiplicity**2 * radicand))
    p_me = (
        canonical.eta1
        + canonical.eta2 * float(Fraction(spectrum.d1, spectrum.d2))
        - trace_norm_paired
    ) / 2.0
    p_me = min(max(p_me, 0.0), 0.5)
    return MinErrorResult(
        config=cfg,
        blocks=tuple(blocks),
        residual_eigenvalue=canonical.eta2 / spectrum.d2,
        residual_multiplicity=spectrum.d2 - spectrum.d1,
        p_me=p_me,
        swapped=swapped,
    )


# --- asymptotic (large-dimension) bounds ------------------------------------

def bound_q0(cfg: ProblemConfig) -> float:
    """n -> infinity limit of the unambiguous optimum for n_a = n_c at even
    priors: Gamma(n_a+1) Gamma(n_b/2+1) / Gamma(n_a+n_b/2+1)."""
    if cfg.n_a != cfg.n_c:
        raise PreconditionError("Q0 is defined for n_a == n_c only")
    half_b = Fraction(cfg.n_b, 2)
    return math.exp(
        log_gamma_half(cfg.n_a + 1)
        + log_gamma_half(half_b + 1)
        - log_gamma_half(cfg.n_a + half_b + 1)
    )


def bound_p0(cfg: ProblemConfig) -> float:
    """n -> infinity limit of the minimum-error optimum (even priors):
    the per-block multiplicity fractions go to an exact factorial ratio."""
    canonical, _ = canonicalize(cfg)
    total = canonical.total_copies
    fac = math.factorial
    acc = 0.0
    for k in range(canonical.k_max + 1):
        o2 = overlap_sq(k, canonical)
        coeff = Fraction(
            (total - 2 * k + 1) * fac(canonical.n1) * fac(canonical.n_c),
            (total - k + 1) * fac(k) * fac(total - k),
        )
        acc += float(coeff) * math.sqrt(1.0 - float(o2))
    return (1.0 - acc) / 2.0


@dataclass(frozen=True)
class AsymptoticBounds:
    q0: float | None
    p0: float


def asymptotic_bounds(cfg: ProblemConfig) -> AsymptoticBounds:
    """Both large-n bounds; Q0 is None when n_a != n_c (undefined there)."""
    q0 = bound_q0(cfg) if cfg.n_a == cfg.n_c else None
    return AsymptoticBounds(q0=q0, p0=bound_p0(cfg))
