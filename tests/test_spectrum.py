"""Jordan-block spectrum: overlaps, multiplicities, 6j symbols."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import product

import pytest
from sympy import Rational
from sympy.physics.wigner import wigner_6j as sympy_6j

from qudisc import spectrum, verify
from qudisc.combinatorics import Partition, unitary_dim
from qudisc.errors import PreconditionError
from qudisc.spectrum import (
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    overlap_numerators,
    overlap_via_6j,
    sym_space_dim,
    wigner_6j,
)


class TestProblemConfig:
    def test_derived_quantities(self):
        cfg = ProblemConfig(2, 2, 1, 1, 0.5)
        assert (cfg.n1, cfg.n2, cfg.total_copies) == (3, 2, 4)
        assert (cfg.d1, cfg.d2) == (8, 9)
        assert cfg.k_max == 1
        assert cfg.eta2 == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemConfig(1, 1, 1, 1, 0.5)  # qudit dimension too small
        with pytest.raises(ValueError):
            ProblemConfig(2, 0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            ProblemConfig(2, 1, 1, 1, 0.7, 0.4)  # priors do not sum to 1
        with pytest.raises(ValueError):
            ProblemConfig(2, 1, 1, 1, -0.1)

    @pytest.mark.parametrize("eta1,eta2", [
        (math.nan, None), (math.inf, None), (0.5, math.nan), (-math.inf, math.inf),
    ])
    def test_non_finite_priors_rejected(self, eta1, eta2):
        with pytest.raises(ValueError, match="priors must be finite"):
            ProblemConfig(2, 1, 1, 1, eta1, eta2)

    @pytest.mark.parametrize("eta1,eta2", [
        (-5e-13, None), (1.0000000000005, None), (0.5 + 5e-13, -5e-13), (-1e-300, 1.0),
    ])
    def test_every_negative_prior_rejected(self, eta1, eta2):
        # within the sum tolerance, but a negative weight has no square root
        with pytest.raises(ValueError, match="priors must be nonnegative"):
            ProblemConfig(2, 1, 1, 1, eta1, eta2)

    def test_zero_priors_accepted(self):
        assert ProblemConfig(2, 1, 1, 1, 1.0).eta2 == 0.0
        assert ProblemConfig(2, 1, 1, 1, -0.0).eta2 == 1.0

    def test_explicit_eta2(self):
        cfg = ProblemConfig(2, 1, 1, 1, 0.25, 0.75)
        assert cfg.eta2 == 0.75

    def test_canonicalize_swaps_registers_and_priors(self):
        cfg = ProblemConfig(2, 1, 2, 3, 0.1)
        canonical, swapped = canonicalize(cfg)
        assert swapped
        assert (canonical.n_a, canonical.n_b, canonical.n_c) == (3, 2, 1)
        assert canonical.eta1 == pytest.approx(0.9)
        assert canonical.d1 <= canonical.d2

    def test_canonicalize_is_identity_on_canonical_input(self):
        cfg = ProblemConfig(2, 2, 1, 1, 0.5)
        canonical, swapped = canonicalize(cfg)
        assert not swapped
        assert canonical == cfg


def test_sym_space_dim_small_values():
    assert sym_space_dim(1, 2) == 2
    assert sym_space_dim(2, 2) == 3
    assert sym_space_dim(3, 4) == 20


def blocks_of(n, n_a, n_b, n_c):
    return jordan_spectrum(ProblemConfig(n, n_a, n_b, n_c, 0.5)).blocks


class TestOverlap:
    def test_k0_is_always_one(self):
        for n, n_a, n_b, n_c in [(2, 1, 1, 1), (3, 2, 1, 2), (4, 3, 2, 1)]:
            nums, den = overlap_numerators(ProblemConfig(n, n_a, n_b, n_c, 0.5))
            assert Fraction(nums[0], den) == 1

    def test_all_ones_k1(self):
        # C(1,1)C(1,1)/(C(2,1)C(2,1)) = 1/4
        nums, den = overlap_numerators(ProblemConfig(2, 1, 1, 1, 0.5))
        assert Fraction(nums[1], den) == Fraction(1, 4)
        assert blocks_of(5, 1, 1, 1)[1].overlap == pytest.approx(0.5)

    def test_2211_k1(self):
        # C(2,1)C(1,1)/(C(3,1)C(2,1)) = 1/3, unreduced over the common
        # denominator C(3,1)C(2,1) = 6 of every block
        assert overlap_numerators(ProblemConfig(2, 2, 1, 1, 0.5)) == ([6, 2], 6)
        assert blocks_of(2, 2, 1, 1)[1].overlap_sq_ratio == (2, 6)
        assert Fraction(*blocks_of(2, 2, 1, 1)[1].overlap_sq_ratio) == Fraction(1, 3)

    def test_overlap_is_dimension_independent(self):
        for n in (2, 3, 7):
            assert overlap_numerators(ProblemConfig(n, 2, 2, 1, 0.5)) == overlap_numerators(
                ProblemConfig(2, 2, 2, 1, 0.5)
            )

    def test_either_labeling(self):
        assert overlap_numerators(ProblemConfig(3, 2, 4, 5, 0.5)) == overlap_numerators(
            ProblemConfig(3, 5, 4, 2, 0.5)
        )

    def test_invalid_block_rejected(self):
        cfg = ProblemConfig(2, 2, 1, 1, 0.5)
        with pytest.raises(ValueError):
            overlap_via_6j(2, cfg)  # k_max = 1
        with pytest.raises(ValueError):
            overlap_via_6j(-1, cfg)


class TestMultiplicity:
    def test_known_values(self):
        assert [b.multiplicity for b in blocks_of(2, 1, 1, 1)] == [4, 2]
        assert [b.multiplicity for b in blocks_of(3, 1, 1, 1)] == [10, 8]

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_matches_robinson_formula(self, n):
        for n_a, n_b, n_c in product((1, 2, 3), repeat=3):
            cfg, _ = canonicalize(ProblemConfig(n, n_a, n_b, n_c, 0.5))
            for block in jordan_spectrum(cfg).blocks:
                shape = Partition.two_row(cfg.total_copies, block.k)
                assert block.multiplicity == unitary_dim(shape, n)


def direct_block(cfg, k):
    """(O_k^2, d^k) from the closed forms, each block on its own."""
    comb, total, n = math.comb, cfg.total_copies, cfg.n
    o2 = Fraction(
        comb(cfg.n1 - k, cfg.n_b) * comb(cfg.n2 - k, cfg.n_b),
        comb(cfg.n1, cfg.n_b) * comb(cfg.n2, cfg.n_b),
    )
    d_k = (Fraction(total - 2 * k + 1, total - k + 1)
           * comb(total + n - k - 1, n - 1) * comb(n + k - 2, n - 2))
    assert d_k.denominator == 1
    return o2, int(d_k)


@pytest.mark.parametrize("configs", [
    [(n, *copies) for n in range(2, 7) for copies in product(range(1, 6), repeat=3)],
    [(2, 1000, 1000, 1000), (5, 300, 40, 200)],
], ids=["n<=6,copies<=5", "many-copies"])
def test_walk_matches_direct_formulas(configs):
    for config in configs:
        cfg, _ = canonicalize(ProblemConfig(*config, 0.5))
        blocks = jordan_spectrum(cfg).blocks
        assert [(Fraction(*b.overlap_sq_ratio), b.multiplicity) for b in blocks] == [
            direct_block(cfg, k) for k in range(cfg.k_max + 1)
        ]
        assert [b.overlap for b in blocks] == [math.sqrt(Fraction(*b.overlap_sq_ratio))
                                             for b in blocks]


class TestJordanSpectrum:
    def test_all_ones_blocks(self):
        spec = jordan_spectrum(ProblemConfig(2, 1, 1, 1, 0.5))
        assert [(b.k, b.overlap, b.multiplicity) for b in spec.blocks] == [
            (0, 1.0, 4),
            (1, 0.5, 2),
        ]
        assert spec.d1 == spec.d2 == 6

    def test_rank_sum_identity_over_grid(self):
        for n in (2, 3, 4):
            for n_a, n_b, n_c in product((1, 2, 3), repeat=3):
                cfg, _ = canonicalize(ProblemConfig(n, n_a, n_b, n_c, 0.5))
                spec = jordan_spectrum(cfg)
                assert sum(b.multiplicity for b in spec.blocks) == spec.d1
                assert spec.d1 <= spec.d2
                overlaps = [Fraction(*b.overlap_sq_ratio) for b in spec.blocks]
                assert overlaps == sorted(overlaps, reverse=True)
                assert overlaps[0] == 1

    def test_requires_canonical_config(self):
        with pytest.raises(PreconditionError):
            jordan_spectrum(ProblemConfig(2, 1, 1, 2, 0.5))

    # (2; 2,1,1) has O_k^2 = 1, 1/3 and d1 = 8: each bookkeeping check in
    # turn is the first to see a broken integer walk
    @pytest.mark.parametrize("broken,message", [
        (lambda nums, den: (nums, 2 * den), "O_0"),
        (lambda nums, den: (nums[:1] * 2, den), "strictly decrease"),
        (lambda nums, den: (nums[:-1], den), "sum to 5, not d1 = 8"),
    ], ids=["first-overlap", "decreasing", "rank-sum"])
    def test_broken_overlaps_raise(self, monkeypatch, broken, message):
        cfg = ProblemConfig(2, 2, 1, 1)
        walk = overlap_numerators(cfg)
        monkeypatch.setattr(spectrum, "overlap_numerators", lambda _: broken(*walk))
        with pytest.raises(AssertionError, match=message):
            jordan_spectrum(cfg)

    def test_rank_order_check(self, monkeypatch):
        # d1 <= d2 does not depend on the overlaps: break d2 itself
        monkeypatch.setattr(ProblemConfig, "d2", property(lambda self: 7))
        with pytest.raises(AssertionError, match="d1 = 8 exceeds d2 = 7"):
            jordan_spectrum(ProblemConfig(2, 2, 1, 1))

    def test_broken_identity_is_a_verify_fail_line(self, monkeypatch):
        # d1 one too large at n = 3 only: the family reports the first
        # n = 3 config and the identity's message instead of raising
        honest = ProblemConfig.d1
        monkeypatch.setattr(ProblemConfig, "d1", property(lambda c: honest.fget(c) + (c.n == 3)))
        result = verify.check_combinatorics()
        assert result.line() == (
            "FAIL combinatorial identities: max residual 1.000e+00 "
            "(n=3 copies=(1,1,1): block multiplicities sum to 18, not d1 = 19)"
        )

    def test_checks_run_under_optimize(self):
        script = (
            "import sys\n"
            "from qudisc import spectrum\n"
            "walk = spectrum.overlap_numerators\n"
            "spectrum.overlap_numerators = lambda cfg: (walk(cfg)[0][:-1], walk(cfg)[1])\n"
            "try:\n"
            "    spectrum.jordan_spectrum(spectrum.ProblemConfig(2, 2, 1, 1))\n"
            "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n"
        )
        src = Path(spectrum.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-O", "-B", "-c", script], capture_output=True, text=True,
            cwd=src, check=True,
        )
        assert result.stdout == "1 block multiplicities sum to 5, not d1 = 8\n"

    def test_binomial_calls_do_not_grow_with_k_max(self, monkeypatch):
        def binomial_calls(cfg):
            calls = []

            def counting(a, b):
                calls.append((a, b))
                return math.comb(a, b)

            monkeypatch.setattr(spectrum, "binomial", counting)
            jordan_spectrum(cfg)
            return len(calls)

        assert binomial_calls(ProblemConfig(3, 4, 2, 3, 0.5)) == binomial_calls(
            ProblemConfig(3, 9, 2, 8, 0.5)
        )


class TestWigner6j:
    def test_textbook_value(self):
        assert wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(1 / 6, abs=1e-15)

    def test_broken_triangle_is_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_delta_pattern(self):
        # {j 0 j; j' J j'} = (-1)^{j+j'+J} / sqrt((2j+1)(2j'+1))
        val = wigner_6j(1, 0, 1, 1.5, 0.5, 1.5)
        assert val == pytest.approx(-1 / (3 * 4) ** 0.5, abs=1e-15)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            wigner_6j(0.4, 0.5, 1, 0.5, 0.5, 1)

    @pytest.mark.parametrize("seed_row", range(6))
    def test_against_independent_symbolic_evaluation(self, seed_row):
        # cross-library oracle: sympy evaluates the same symbols symbolically
        half = Rational(1, 2)
        js = [seed_row * half + extra for extra in (0, half, 1, 2)]
        for j1, j2, j4, j5 in product(js, repeat=4):
            for j3 in (abs(j1 - j2), j1 + j2):
                for j6 in (abs(j1 - j5), j1 + j5):
                    try:
                        expected = float(sympy_6j(j1, j2, j3, j4, j5, j6).evalf(20))
                    except ValueError:  # sympy rejects broken triads outright
                        expected = 0.0
                    got = wigner_6j(j1, j2, j3, j4, j5, j6)
                    assert got == pytest.approx(expected, abs=1e-13)


def test_recoupling_route_matches_binomial_route():
    for n in (2, 3, 4, 5, 6):
        for n_a, n_b, n_c in product((1, 2, 3, 4), repeat=3):
            cfg, _ = canonicalize(ProblemConfig(n, n_a, n_b, n_c, 0.5))
            nums, den = overlap_numerators(cfg)
            for k, num in enumerate(nums):
                assert overlap_via_6j(k, cfg) == pytest.approx(math.sqrt(num / den), abs=1e-12)


def test_six_j_family_does_no_fraction_arithmetic(monkeypatch):
    # the recoupling route runs on integers over one common denominator
    from test_discrimination import FRACTION_OPERATORS

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the 6j family")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, forbidden)
    result = verify.check_six_j()
    assert result.passed and result.detail == "920 overlaps"


def _racah_by_fractions(a, b, c, d, e, f):
    """The 6j symbol of doubled arguments, Racah's sum carried term by term
    as reduced rationals and each total rounded once: a rational
    reference for the integer sum."""
    fac = math.factorial
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    triad_sums = [sum(t) // 2 for t in triads]
    pair_sums = [(a + b + d + e) // 2, (b + c + e + f) // 2, (a + c + d + f) // 2]
    series = sum(Fraction((-1) ** t * fac(t + 1),
                          math.prod(fac(t - s) for s in triad_sums)
                          * math.prod(fac(p - t) for p in pair_sums))
                 for t in range(max(triad_sums), min(pair_sums) + 1))
    radicand = math.prod(Fraction(fac((x + y - z) // 2) * fac((x - y + z) // 2)
                                  * fac((y + z - x) // 2), fac((x + y + z) // 2 + 1))
                         for x, y, z in triads)
    return float(series) * math.sqrt(float(radicand))


def test_six_j_keeps_its_bits():
    # every ratio is rounded once either way, so the grid's overlaps agree
    # bit for bit with the rational construction
    for n_a, n_b, n_c in product(range(1, 5), repeat=3):
        cfg = ProblemConfig(2, n_a, n_b, n_c, 0.5)
        for k in range(cfg.k_max + 1):
            args = (n_a, n_b, cfg.n1, n_c, cfg.total_copies - 2 * k, cfg.n2)
            assert spectrum._racah_6j(*args) == _racah_by_fractions(*args)
