"""Jordan-block spectrum of the two mean input states.

The two averaged inputs are maximally mixed on products of symmetric
subspaces.  Their supports decompose into two-row blocks indexed by
k = 0..min(n_A, n_C); each block carries a single principal-angle cosine
O_k with multiplicity d^k.  Both come from one exact integer walk over k,
each block stepped from the one before by small-integer ratios.  Every
O_k^2 is an exact rational, kept as an unreduced integer numerator over
the one denominator C(n1, n_b) C(n2, n_b) that all blocks share, so the
walk, its checks and the closed-form solve build no ``Fraction``.  The
Racah 6j evaluation provides an independent path to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .combinatorics import binomial
from .errors import PreconditionError

PRIOR_TOL = 1e-12


def sym_space_dim(m: int, n: int) -> int:
    """Dimension of the fully symmetric subspace of m copies of C^n."""
    return binomial(n + m - 1, n - 1)


@dataclass(frozen=True)
class ProblemConfig:
    """Complete statement of a discrimination problem.

    ``n`` is the qudit dimension; ``n_a``/``n_c`` are the program copy
    counts, ``n_b`` the data copy count; ``eta1``/``eta2`` the priors of
    the two hypotheses.
    """

    n: int
    n_a: int
    n_b: int
    n_c: int
    eta1: float = 0.5
    eta2: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.n}")
        for name in ("n_a", "n_b", "n_c"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.eta2 is None:
            object.__setattr__(self, "eta2", 1.0 - self.eta1)
        if not (math.isfinite(self.eta1) and math.isfinite(self.eta2)):
            raise ValueError(f"priors must be finite: {self.eta1}, {self.eta2}")
        if self.eta1 < 0 or self.eta2 < 0:
            raise ValueError(f"priors must be nonnegative: {self.eta1}, {self.eta2}")
        if abs(self.eta1 + self.eta2 - 1.0) > PRIOR_TOL:
            raise ValueError(f"priors must sum to 1: {self.eta1} + {self.eta2}")

    @property
    def n1(self) -> int:
        return self.n_a + self.n_b

    @property
    def n2(self) -> int:
        return self.n_b + self.n_c

    @property
    def total_copies(self) -> int:
        return self.n_a + self.n_b + self.n_c

    @property
    def d1(self) -> int:
        """Rank of the first mean state."""
        return sym_space_dim(self.n1, self.n) * sym_space_dim(self.n_c, self.n)

    @property
    def d2(self) -> int:
        """Rank of the second mean state."""
        return sym_space_dim(self.n_a, self.n) * sym_space_dim(self.n2, self.n)

    @property
    def k_max(self) -> int:
        return min(self.n_a, self.n_c)

    @property
    def is_canonical(self) -> bool:
        return self.n_a >= self.n_c


def canonicalize(cfg: ProblemConfig) -> tuple[ProblemConfig, bool]:
    """Relabel so that n_a >= n_c (which forces d1 <= d2).

    Swapping the two program registers exchanges the roles of the two
    hypotheses, so the priors swap with them.  Returns the (possibly
    unchanged) config and whether a swap happened.
    """
    if cfg.is_canonical:
        return cfg, False
    swapped = replace(cfg, n_a=cfg.n_c, n_c=cfg.n_a, eta1=cfg.eta2, eta2=cfg.eta1)
    return swapped, True


def overlap_numerators(cfg: ProblemConfig) -> tuple[list[int], int]:
    """Exact squared principal-angle cosines O_k^2, k = 0..k_max, of a
    config in either labeling, as integer numerators over one common
    denominator, unreduced.

    O_k^2 = C(n1-k, n_b) C(n2-k, n_b) / (C(n1, n_b) C(n2, n_b)); the
    numerator steps by (n_a-k)(n_c-k) / ((n1-k)(n2-k)), an exact integer
    division."""
    den = binomial(cfg.n1, cfg.n_b) * binomial(cfg.n2, cfg.n_b)
    num = den
    nums = []
    for k in range(cfg.k_max + 1):
        nums.append(num)
        num = num * (cfg.n_a - k) * (cfg.n_c - k) // ((cfg.n1 - k) * (cfg.n2 - k))
    return nums, den


@dataclass(frozen=True)
class JordanBlock:
    """One Jordan block; ``overlap_sq_ratio`` is O_k^2 as the unreduced
    ``(numerator, denominator)`` pair of :func:`overlap_numerators`."""

    k: int
    overlap: float
    overlap_sq_ratio: tuple[int, int]
    multiplicity: int


@dataclass(frozen=True)
class JordanSpectrum:
    blocks: tuple[JordanBlock, ...]
    d1: int
    d2: int
    k_max: int


def jordan_spectrum(cfg: ProblemConfig) -> JordanSpectrum:
    """All Jordan blocks of a canonicalized config, with the bookkeeping
    identities checked (also under ``python -O``); a failed identity
    raises ``AssertionError``."""
    if not cfg.is_canonical:
        raise PreconditionError("jordan_spectrum expects n_a >= n_c; canonicalize first")
    # d^k = g_k (N-2k+1)/(N-k+1), the U(n) dimension of [N-k, k], with
    # g_k = C(N+n-k-1, n-1) C(n+k-2, k).  Every division below is exact; an
    # inexact one would floor, and the rank-sum check would catch the loss
    total, n = cfg.total_copies, cfg.n
    g = binomial(total + n - 1, n - 1)
    nums, den = overlap_numerators(cfg)
    blocks = []
    for k, num in enumerate(nums):
        d_k = g * (total - 2 * k + 1) // (total - k + 1)
        blocks.append(JordanBlock(k, math.sqrt(num / den), (num, den), d_k))
        g = g * (total - k) * (n + k - 1) // ((total + n - k - 1) * (k + 1))
    if nums[0] != den:
        raise AssertionError(f"O_0^2 = {Fraction(nums[0], den)}, expected 1")
    # one common denominator: the numerators alone must strictly decrease
    if any(p <= p_next for p, p_next in zip(nums, nums[1:])):
        raise AssertionError("the overlaps O_k^2 do not strictly decrease in k")
    d1, d2 = cfg.d1, cfg.d2
    rank = sum(b.multiplicity for b in blocks)
    if rank != d1:
        raise AssertionError(f"block multiplicities sum to {rank}, not d1 = {d1}")
    if d1 > d2:
        raise AssertionError(f"d1 = {d1} exceeds d2 = {d2}")
    return JordanSpectrum(blocks=blocks, d1=d1, d2=d2, k_max=cfg.k_max)


# --- Racah 6j evaluation (exact integer internals) --------------------------

def _as_twice(j) -> int:
    """Half-integer -> doubled integer; rejects anything else."""
    twice = Fraction(j) * 2
    if twice.denominator != 1 or twice < 0:
        raise ValueError(f"expected a nonnegative half-integer, got {j!r}")
    return int(twice)


def _triad_ok(a: int, b: int, c: int) -> bool:
    # doubled notation: perimeter even <=> integer sum of the j's
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def _racah_6j(a: int, b: int, c: int, d: int, e: int, f: int) -> float:
    """The 6j symbol of doubled arguments by Racah's single sum; 0 on any
    non-coupling triad.  In each term (t - s)! divides (high - s)! and
    (p - t)! divides (p - low)!, so the sum is carried as integers over
    one common denominator, and the triangle factors as one integer ratio:
    each is rounded once, with a single square root at the float boundary."""
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    if not all(_triad_ok(*t) for t in triads):
        return 0.0
    fac = math.factorial
    triad_sums = [sum(t) // 2 for t in triads]
    pair_sums = [(a + b + d + e) // 2, (b + c + e + f) // 2, (a + c + d + f) // 2]
    low, high = max(triad_sums), min(pair_sums)
    den = math.prod(fac(high - s) for s in triad_sums) * math.prod(fac(p - low) for p in pair_sums)
    series = 0
    for t in range(low, high + 1):
        term = fac(t + 1) * den // (math.prod(fac(t - s) for s in triad_sums)
                                    * math.prod(fac(p - t) for p in pair_sums))
        series += -term if t % 2 else term
    radicand_num = math.prod(fac((x + y - z) // 2) * fac((x - y + z) // 2) * fac((y + z - x) // 2)
                             for x, y, z in triads)
    radicand_den = math.prod(fac((x + y + z) // 2 + 1) for x, y, z in triads)
    return series / den * math.sqrt(radicand_num / radicand_den)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Racah single-sum 6j symbol; 0 on any non-coupling triad.  Exact
    integer internals, with a single square root at the float boundary."""
    return _racah_6j(*(_as_twice(j) for j in (j1, j2, j3, j4, j5, j6)))


def overlap_via_6j(k: int, cfg: ProblemConfig) -> float:
    """Block overlap through the angular-momentum recoupling route; must
    agree with sqrt(num / den) of :func:`overlap_numerators` to 1e-12."""
    if not 0 <= k <= cfg.k_max:
        raise ValueError(f"block index {k} outside 0..{cfg.k_max}")
    # doubled arguments {j_a j_b j_ab; j_c J j_bc}, J = N/2 - k; the phase
    # (-1)^(j_a + j_b + j_c + J) is (-1)^(N - k)
    sign = -1.0 if (cfg.total_copies - k) % 2 else 1.0
    prefactor = math.sqrt((cfg.n1 + 1) * (cfg.n2 + 1))
    return sign * prefactor * _racah_6j(cfg.n_a, cfg.n_b, cfg.n1, cfg.n_c,
                                        cfg.total_copies - 2 * k, cfg.n2)

