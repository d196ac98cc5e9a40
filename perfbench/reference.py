"""60-digit reference for the closed-form optima, written apart from qudisc.

Every quantity comes straight from the paper's Jordan-block formulas:

- block overlaps O_k^2 = C(n1-k, n_b) C(n2-k, n_b) / (C(n1, n_b) C(n2, n_b))
  as exact rationals (n1 = n_a + n_b, n2 = n_b + n_c);
- block multiplicities d^k = dim[N-k, k] of U(n), by the Pieri rule
  s(N-k) s(k) - s(N-k+1) s(k-1) with s(m) the symmetric-power dimension;
- ranks d1 = s(n1) s(n_c) and d2 = s(n_a) s(n2), exact integers.

With per-vector weights a = eta1/d1 and b = eta2/d2 each block is a
two-pure-state problem: the unambiguous optimum has the three branches
LOW (a < b O^2), HIGH (b < a O^2) and MIDDLE, and the Helstrom error is
taken in its cancellation-free form 2ab O^2 / (a + b + sqrt((a+b)^2 - 4ab O^2)).
Nothing is canonicalized, so the reference also covers n_a < n_c directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath

DIGITS = 60
# n at which the reference stands in for the n -> infinity limit; the
# closed forms approach their limits as C/n, so the gap is ~1e-30.
LIMIT_DIM = 10**30


def sym_dim(m: int, n: int) -> int:
    """Dimension of the m-th symmetric power of C^n (0 for m < 0)."""
    return comb(n + m - 1, m) if m >= 0 else 0


@dataclass(frozen=True)
class Block:
    k: int
    overlap_sq: Fraction
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    blocks: tuple[Block, ...]
    d1: int
    d2: int


@lru_cache(maxsize=4096)
def spectrum(n: int, n_a: int, n_b: int, n_c: int) -> Spectrum:
    n1, n2 = n_a + n_b, n_b + n_c
    total = n_a + n_b + n_c
    den = comb(n1, n_b) * comb(n2, n_b)
    blocks = tuple(
        Block(
            k,
            Fraction(comb(n1 - k, n_b) * comb(n2 - k, n_b), den),
            sym_dim(total - k, n) * sym_dim(k, n)
            - sym_dim(total - k + 1, n) * sym_dim(k - 1, n),
        )
        for k in range(min(n_a, n_c) + 1)
    )
    d1 = sym_dim(n1, n) * sym_dim(n_c, n)
    d2 = sym_dim(n_a, n) * sym_dim(n2, n)
    if sum(b.multiplicity for b in blocks) != min(d1, d2):
        raise ArithmeticError(f"block multiplicities do not fill the smaller rank at {n},{n_a},{n_b},{n_c}")
    return Spectrum(blocks, d1, d2)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class Optimum:
    q_opt: mpmath.mpf
    p_me: mpmath.mpf
    branches: tuple[str, ...]  # per block, in the caller's labeling


@lru_cache(maxsize=4096)
def optimum(n: int, n_a: int, n_b: int, n_c: int, eta1: float) -> Optimum:
    """Q_opt, P_ME and the per-block unambiguous branches at prior eta1."""
    spec = spectrum(n, n_a, n_b, n_c)
    e1 = Fraction(eta1)
    a = e1 / spec.d1
    b = (1 - e1) / spec.d2
    with mpmath.workdps(DIGITS):
        q_opt = mpmath.mpf(0)
        p_me = mpmath.mpf(0)
        branches = []
        a_plus_b = _mpf(a + b)
        for block in spec.blocks:
            o2 = block.overlap_sq
            if a < b * o2:
                branches.append("LOW")
                q_block = _mpf(a + b * o2)
            elif b < a * o2:
                branches.append("HIGH")
                q_block = _mpf(a * o2 + b)
            else:
                branches.append("MIDDLE")
                q_block = 2 * mpmath.sqrt(_mpf(a * b * o2))
            q_opt += block.multiplicity * q_block
            # the radicand (a+b)^2 - 4ab O^2 >= (a-b)^2 is formed exactly
            radicand = _mpf((a + b) ** 2 - 4 * a * b * o2)
            p_me += block.multiplicity * 2 * _mpf(a * b * o2) / (
                a_plus_b + mpmath.sqrt(radicand)
            )
        return Optimum(+q_opt, +p_me, tuple(branches))


def limits(n_a: int, n_b: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(Q0, P0): the even-prior n -> infinity limits for n_a = n_c."""
    opt = optimum(LIMIT_DIM, n_a, n_b, n_a, 0.5)
    return opt.q_opt, opt.p_me


def self_test() -> None:
    """The reference reproduces the all-ones closed form Q = (2n+1)/(3n)
    and the Helstrom error of two equal-prior pure states."""
    with mpmath.workdps(DIGITS):
        for n in (2, 3, 7, 50, 2000, 10**6):
            got = optimum(n, 1, 1, 1, 0.5).q_opt
            want = mpmath.mpf(2 * n + 1) / (3 * n)
            if abs(got - want) > mpmath.mpf(10) ** (5 - DIGITS):
                raise ArithmeticError(f"all-ones Q_opt at n={n}: {got} != {want}")
        # one copy each of a qubit: d1 = d2 = 3; the Helstrom error summed
        # over the blocks reduces to (1 - sqrt(1 - O^2)) / 2 per pair
        spec = spectrum(2, 1, 1, 1)
        want = sum(
            b.multiplicity * (1 - mpmath.sqrt(1 - _mpf(b.overlap_sq))) for b in spec.blocks
        ) / (2 * spec.d1)
        got = optimum(2, 1, 1, 1, 0.5).p_me
        if abs(got - want) > mpmath.mpf(10) ** (5 - DIGITS):
            raise ArithmeticError(f"qubit all-ones P_ME: {got} != {want}")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
