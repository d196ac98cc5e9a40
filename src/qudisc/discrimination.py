"""Closed-form optimal discrimination between the two mean input states.

Per Jordan block the problem is a two-pure-state one with cosine O_k,
multiplicity d^k and block priors A_k = eta1 d^k/d1, B_k = eta2 d^k/d2:
unambiguous discrimination with a three-branch optimum in the prior, and
a 2x2 Helstrom eigenvalue problem for minimum error.  One loop,
``_solve_blocks``, solves every block for both.  The branch test is exact:
each threshold is an unreduced integer ``(numerator, denominator)`` pair,
formed from O_k^2's numerator over the spectrum's common denominator, and
the prior's integer ratio is cross-multiplied with it, so the solve builds
no ``Fraction`` and no float meets a rational; ``boundaries`` is the
reduced ``Fraction`` view of the same thresholds.  Every float taken from
an exact rational (O_k^2, 1 - O_k^2, the Helstrom trace eta2/d2 - eta1/d1,
the thresholds) is one correctly rounded integer division, whether or not
the ratio is reduced; the block priors are formed the same way, so no rank
is ever converted to a float on its own, and every sum is cancellation-free
(no ``(1 - sum)/2`` differences), so tiny optima keep their relative
accuracy.

Known erratum handled here: the source table's third unambiguous branch
prints q1 = O_k, which is inconsistent with its own failure probability
line and with the two-state optimum; the consistent value q1 = O_k^2 is
implemented (and certified against the dense oracle).  The printed value
is kept available as a negative control for the verifier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import binomial
from .errors import PreconditionError, refused_as_none
from .spectrum import (
    JordanSpectrum,
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    overlap_numerators,
)


class Branch(Enum):
    LOW = "LOW"
    MIDDLE = "MIDDLE"
    HIGH = "HIGH"


_Ratio = tuple[int, int]


def _thresholds(o2: _Ratio, d1: int, d2: int) -> tuple[_Ratio, _Ratio]:
    """(c_k, d_k) as unreduced integer ratios for O_k^2 = num/den."""
    # c_k = d1 O^2 / (d2 + d1 O^2) and d_k = d1 / (d1 + d2 O^2)
    num, den = o2
    return (d1 * num, d2 * den + d1 * num), (d1 * den, d1 * den + d2 * num)


def boundaries(k: int, spectrum: JordanSpectrum) -> tuple[Fraction, Fraction]:
    """Prior thresholds (c_k, d_k) separating the three unambiguous
    branches; exact rationals, c_k <= d_k with equality iff O_k = 1."""
    c_k, d_k = _thresholds(spectrum.blocks[k].overlap_sq_ratio, spectrum.d1, spectrum.d2)
    return Fraction(*c_k), Fraction(*d_k)


def _normal(name: str, total: float, cfg: ProblemConfig | None = None) -> float:
    """``total``, or ``PreconditionError`` naming it if it lies below the
    normal float range (a silent 0 or lost digits); a ``cfg`` prior of 0 or
    1 makes no error at all, so its 0.0 is exact."""
    if total < sys.float_info.min and not (cfg and total == 0.0 and 0.0 in (cfg.eta1, cfg.eta2)):
        raise PreconditionError(f"{name} lies below the normal float range")
    return total


def _helstrom_error(a: float, b: float, o2: float, sin2: float) -> float:
    """Minimum error of two pure states with weights a, b and squared
    overlap o2 = 1 - sin2, in the form free of the 1 - sqrt(...) difference.
    No product a*b is formed, so weights near the bottom of the float range
    keep their term; weights that are both 0.0 give 0.0."""
    denom = a + b + math.hypot(a - b, 2.0 * math.sqrt(a * sin2) * math.sqrt(b))
    return 2.0 * a * (b / denom) * o2 if denom else 0.0


class _SolvedBlock(NamedTuple):
    """One Jordan block in the canonical labeling.  ``q_block`` and the
    eigenvalues are per Jordan pair; ``q_term`` and ``p_term`` are the
    block's share of Q_opt and P_ME."""

    k: int
    multiplicity: int
    branch: Branch
    c_k: _Ratio
    d_k: _Ratio
    q1: float
    q2: float
    q_block: float
    q_term: float
    lambda_plus: float
    lambda_minus: float
    p_term: float


def _solve_blocks(
    canonical: ProblemConfig,
    spectrum: JordanSpectrum,
    printed_high_branch: bool = False,
) -> list[_SolvedBlock]:
    """Both optima, block by block.

    ``printed_high_branch`` substitutes the erratum value q1 = O_k in the
    HIGH branch; only the verifier's negative control should set it.
    """
    eta1, eta2 = canonical.eta1, canonical.eta2
    d1, d2 = spectrum.d1, spectrum.d2
    # the priors exactly, eta = num/den
    num1, den1 = eta1.as_integer_ratio()
    num2, den2 = eta2.as_integer_ratio()
    # per-pair weights; 1/d underflows to 0.0 where d itself has no float
    a, b = eta1 * (1 / d1), eta2 * (1 / d2)
    # trace of each pair's 2x2 Helstrom block, b - a, rounded once from its
    # exact value: the difference cancels
    c_minus = (num2 * den1 * d1 - num1 * den2 * d2) / (den1 * den2 * d1 * d2)
    solved = []
    for block in spectrum.blocks:
        o = block.overlap
        num, den = block.overlap_sq_ratio
        o2, sin2 = num / den, (den - num) / den
        weight_a = eta1 * (block.multiplicity / d1)
        weight_b = eta2 * (block.multiplicity / d2)
        c_k, d_k = _thresholds(block.overlap_sq_ratio, d1, d2)
        # eta1 against each threshold, cross-multiplied in integers
        if num1 * c_k[1] < c_k[0] * den1:
            branch, q1, q2 = Branch.LOW, 1.0, o2
        elif num1 * d_k[1] > d_k[0] * den1:
            # q1 q2 = O_k^2 without a division: O_k^2 underflows to 0.0 at a
            # few hundred copies
            branch, q1, q2 = Branch.HIGH, o2, 1.0
            if printed_high_branch:
                q1, q2 = o, o2 / o
        else:
            branch = Branch.MIDDLE
            scale = math.sqrt(eta2 / eta1 * (d1 / d2))
            q1, q2 = scale * o, o / scale
        if branch is Branch.MIDDLE:
            q_block = 2.0 * math.sqrt(a) * math.sqrt(b) * o
            q_term = 2.0 * math.sqrt(weight_a) * math.sqrt(weight_b) * o
        else:
            q_block = a * q1 + b * q2
            q_term = weight_a * q1 + weight_b * q2

        # lambda_plus + lambda_minus = b - a and lambda_plus * lambda_minus
        # = -a b (1 - O^2): the larger magnitude from the root, the smaller
        # from the product, so neither is a difference of near-equal terms;
        # hypot keeps the root where a*b underflows
        root = math.hypot(c_minus, 2.0 * math.sqrt(a * sin2) * math.sqrt(b))
        big = (abs(c_minus) + root) / 2.0
        small = a * (b / big) * sin2 if big else 0.0
        if c_minus >= 0:
            lam_plus, lam_minus = big, 0.0 - small  # 0.0 - x never gives -0.0
        else:
            lam_plus, lam_minus = small, -big
        solved.append(_SolvedBlock(
            block.k, block.multiplicity, branch, c_k, d_k, q1, q2, q_block, q_term,
            lam_plus, lam_minus, _helstrom_error(weight_a, weight_b, o2, sin2),
        ))
    return solved


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


def total_failure(cfg: ProblemConfig) -> UnambiguousResult:
    """Optimal total inconclusive probability Q and the per-block strategy.

    Accepts any config; canonicalizes internally and maps the report back
    to the caller's labeling.
    """
    canonical, swapped = canonicalize(cfg)
    solved = _solve_blocks(canonical, jordan_spectrum(canonical))
    blocks = []
    for s in solved:
        branch, q1, q2 = s.branch, s.q1, s.q2
        (c_num, c_den), (d_num, d_den) = s.c_k, s.d_k
        if swapped:
            branch = {Branch.LOW: Branch.HIGH, Branch.HIGH: Branch.LOW}.get(branch, branch)
            q1, q2 = q2, q1
            # the mirrored thresholds are 1 - d_k and 1 - c_k
            (c_num, c_den), (d_num, d_den) = (d_den - d_num, d_den), (c_den - c_num, c_den)
        blocks.append(
            UnambiguousBlock(
                k=s.k,
                branch=branch,
                q1=q1,
                q2=q2,
                c_k=c_num / c_den,
                d_k=d_num / d_den,
                q_block=s.q_block,
                multiplicity=s.multiplicity,
            )
        )
    return UnambiguousResult(
        config=cfg,
        blocks=tuple(blocks),
        q_total=_normal("Q_opt", sum(s.q_term for s in solved)),
        swapped=swapped,
    )


# --- minimum error ----------------------------------------------------------

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
    """Helstrom minimum-error probability between the two mean states.
    A given ``spectrum`` must be that of the canonical config."""
    canonical, swapped = canonicalize(cfg)
    if spectrum is None:
        spectrum = jordan_spectrum(canonical)
    solved = _solve_blocks(canonical, spectrum)
    return MinErrorResult(
        config=cfg,
        blocks=tuple(
            MinErrorBlock(s.k, s.lambda_plus, s.lambda_minus, s.multiplicity) for s in solved
        ),
        residual_eigenvalue=canonical.eta2 * (1 / spectrum.d2),
        residual_multiplicity=spectrum.d2 - spectrum.d1,
        p_me=_normal("P_ME", sum(s.p_term for s in solved), canonical),
        swapped=swapped,
    )


def optimal_totals(cfg: ProblemConfig) -> tuple[float | None, float | None, tuple[str, ...]]:
    """(Q_opt, P_ME, refused) from one block solve: the same floats, summed
    in the same order, as ``total_failure(cfg).q_total`` and
    ``minerror_probability(cfg).p_me``.  A total below the normal float
    range is None, its error in ``refused``, so the other one is still
    given."""
    canonical, _ = canonicalize(cfg)
    solved, refused = _solve_blocks(canonical, jordan_spectrum(canonical)), []
    q_opt = refused_as_none(lambda: _normal("Q_opt", sum(s.q_term for s in solved)), refused)
    p_me = refused_as_none(
        lambda: _normal("P_ME", sum(s.p_term for s in solved), canonical), refused)
    return q_opt, p_me, tuple(refused)


# --- asymptotic (large-dimension) bounds ------------------------------------

def bound_q0(cfg: ProblemConfig) -> float:
    """n -> infinity limit of the unambiguous optimum for n_a = n_c at even
    priors: Gamma(n_a+1) Gamma(n_b/2+1) / Gamma(n_a+n_b/2+1), which is the
    exact ratio n_a! 2^n_a / prod_{j=1..n_a} (n_b + 2j), rounded once by
    correctly rounded integer division."""
    if cfg.n_a != cfg.n_c:
        raise PreconditionError("Q0 is defined for n_a == n_c only")
    denominator = math.prod(range(cfg.n_b + 2, cfg.n_b + 2 * cfg.n_a + 1, 2))
    return _normal("Q0", (math.factorial(cfg.n_a) << cfg.n_a) / denominator)


def bound_p0(cfg: ProblemConfig) -> float:
    """n -> infinity limit of the minimum-error optimum (even priors):
    the per-block multiplicity fractions go to the exact ratio
    C(N, k) (N-2k+1) / (C(N, n_c) (N-k+1)), and each block is a Helstrom
    problem with both priors at half of it."""
    canonical, _ = canonicalize(cfg)
    total = canonical.total_copies
    den = binomial(total, canonical.n_c)
    ways = 1  # C(N, k)
    acc = 0.0
    nums, o2_den = overlap_numerators(canonical)
    for k, o2_num in enumerate(nums):
        half = ways * (total - 2 * k + 1) / (den * (total - k + 1)) / 2
        acc += _helstrom_error(half, half, o2_num / o2_den, (o2_den - o2_num) / o2_den)
        ways = ways * (total - k) // (k + 1)
    return _normal("P0", acc)


@dataclass(frozen=True)
class AsymptoticBounds:
    q0: float | None
    p0: float | None
    refused: tuple[str, ...] = ()  # the error of each bound below the normal float range


def asymptotic_bounds(cfg: ProblemConfig) -> AsymptoticBounds:
    """Both large-n bounds.  Q0 is None when n_a != n_c (undefined there);
    a bound below the normal float range is None too, its error in
    ``refused``, so the other one is still given."""
    refused = []
    q0 = refused_as_none(lambda: bound_q0(cfg), refused) if cfg.n_a == cfg.n_c else None
    return AsymptoticBounds(q0, refused_as_none(lambda: bound_p0(cfg), refused), tuple(refused))
