"""Closed-form optima: unambiguous branches, Helstrom values, large-n bounds."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from qudisc import oracle
from qudisc.discrimination import (
    Branch,
    _solve_blocks,
    asymptotic_bounds,
    bound_p0,
    bound_q0,
    boundaries,
    minerror_probability,
    optimal_totals,
    total_failure,
)
from qudisc.errors import PreconditionError
from qudisc.spectrum import ProblemConfig, canonicalize, jordan_spectrum

ALL_ONES = ProblemConfig(2, 1, 1, 1, 0.5)


def spectrum_of(cfg):
    canonical, _ = canonicalize(cfg)
    return canonical, jordan_spectrum(canonical)


class TestBoundaries:
    def test_2211_exact_values(self):
        _, spec = spectrum_of(ProblemConfig(2, 2, 1, 1, 0.5))
        assert boundaries(0, spec) == (Fraction(8, 17), Fraction(8, 17))
        assert boundaries(1, spec) == (Fraction(8, 35), Fraction(8, 11))

    def test_all_ones_exact_values(self):
        _, spec = spectrum_of(ALL_ONES)
        assert boundaries(1, spec) == (Fraction(1, 5), Fraction(4, 5))

    def test_degenerate_block_collapses(self):
        # O = 1 and d1 = d2 pin both thresholds at 1/2
        _, spec = spectrum_of(ALL_ONES)
        assert boundaries(0, spec) == (Fraction(1, 2), Fraction(1, 2))

    def test_ordering_over_grid(self):
        for n, copies in product((2, 3), product((1, 2, 3), repeat=3)):
            cfg, spec = spectrum_of(ProblemConfig(n, *copies, 0.5))
            for k in range(cfg.k_max + 1):
                c_k, d_k = boundaries(k, spec)
                assert 0 < c_k <= d_k < 1
                assert (c_k == d_k) == (Fraction(*spec.blocks[k].overlap_sq_ratio) == 1)


def exact_branch(eta1, c_k, d_k):
    """The branch of a block by comparing the float prior, as the exact
    rational it is, with the exact thresholds."""
    prior = Fraction(eta1)
    return Branch.LOW if prior < c_k else Branch.HIGH if prior > d_k else Branch.MIDDLE


# canonical configs (n_a >= n_c; the mirror image of one with n_a > n_c is
# swapped), up to 2000 dimensions and 10 copies per register
THRESHOLD_GRID = [
    (2, (1, 1, 1)), (3, (2, 1, 1)), (5, (3, 2, 2)), (17, (4, 10, 3)),
    (2000, (10, 10, 10)), (2000, (10, 3, 7)), (2000, (7, 1, 2)), (101, (10, 10, 1)),
]


class TestBranchAtThresholds:
    @pytest.mark.parametrize("n,copies", THRESHOLD_GRID)
    def test_branch_is_the_exact_comparison(self, n, copies):
        canonical, spec = spectrum_of(ProblemConfig(n, *copies))
        for k in range(canonical.k_max + 1):
            c_k, d_k = boundaries(k, spec)
            for threshold in (float(c_k), float(d_k)):
                for eta1 in (math.nextafter(threshold, 0.0), threshold,
                             math.nextafter(threshold, 1.0)):
                    block = total_failure(ProblemConfig(n, *copies, eta1)).blocks[k]
                    assert block.branch is exact_branch(eta1, c_k, d_k), (k, eta1)

    def test_all_ones_at_its_exact_half(self):
        # c_0 = d_0 = 1/2 is a float: the prior 0.5 sits on both thresholds
        below, above = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
        branches = [
            total_failure(replace(ALL_ONES, eta1=eta1, eta2=1.0 - eta1)).blocks[0].branch
            for eta1 in (below, 0.5, above)
        ]
        assert branches == [Branch.LOW, Branch.MIDDLE, Branch.HIGH]

    @pytest.mark.parametrize("n,copies", THRESHOLD_GRID)
    def test_reported_thresholds_are_the_rounded_rationals(self, n, copies):
        canonical, spec = spectrum_of(ProblemConfig(n, *copies, 0.3))
        n_a, n_b, n_c = copies
        forward = total_failure(canonical)
        mirrored = total_failure(ProblemConfig(n, n_c, n_b, n_a, 0.7))
        assert mirrored.swapped or n_a == n_c
        for k, fwd, mir in zip(range(canonical.k_max + 1), forward.blocks, mirrored.blocks):
            c_k, d_k = boundaries(k, spec)
            assert (fwd.c_k.hex(), fwd.d_k.hex()) == (float(c_k).hex(), float(d_k).hex())
            if mirrored.swapped:
                assert (mir.c_k.hex(), mir.d_k.hex()) == (
                    float(1 - d_k).hex(), float(1 - c_k).hex())


class TestOptimalQ:
    def test_even_priors_equal_ranks_is_middle(self):
        block = total_failure(ALL_ONES).blocks[1]
        assert block.branch is Branch.MIDDLE
        assert block.q1 == pytest.approx(0.5, abs=1e-15)
        assert block.q2 == pytest.approx(0.5, abs=1e-15)

    def test_high_prior_branch(self):
        block = total_failure(ProblemConfig(2, 1, 1, 1, 0.9)).blocks[1]
        assert block.branch is Branch.HIGH
        assert (block.q1, block.q2) == (pytest.approx(0.25), pytest.approx(1.0))

    def test_low_prior_branch_mirrors_high(self):
        block = total_failure(ProblemConfig(2, 1, 1, 1, 0.1)).blocks[1]
        assert block.branch is Branch.LOW
        assert (block.q1, block.q2) == (pytest.approx(1.0), pytest.approx(0.25))

    def test_printed_high_branch_is_different(self):
        cfg = ProblemConfig(2, 1, 1, 1, 0.9)
        block = _solve_blocks(cfg, jordan_spectrum(cfg), printed_high_branch=True)[1]
        assert block.q1 == pytest.approx(0.5)  # the inconsistent table value
        assert block.q2 == pytest.approx(0.5)

    def test_product_invariant_over_grid_and_priors(self):
        for eta1 in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            for copies in product((1, 2, 3), repeat=3):
                cfg, spec = spectrum_of(ProblemConfig(3, *copies, eta1))
                for block in total_failure(cfg).blocks:
                    q1, q2 = block.q1, block.q2
                    o2 = float(Fraction(*spec.blocks[block.k].overlap_sq_ratio))
                    assert q1 * q2 == pytest.approx(o2, abs=1e-12)
                    assert o2 - 1e-12 <= q1 <= 1 + 1e-12
                    assert o2 - 1e-12 <= q2 <= 1 + 1e-12


class TestBlockFailure:
    def test_middle_branch_value(self):
        assert total_failure(ALL_ONES).blocks[1].q_block == pytest.approx(1 / 12, abs=1e-15)

    def test_degenerate_block_value(self):
        block = total_failure(ProblemConfig(2, 2, 1, 1, 0.5)).blocks[0]
        # O_0 = 1 sits past d_0 = 8/17 at eta1 = 1/2: HIGH branch formula
        assert block.q_block == pytest.approx(0.5 / 8 + 0.5 / 9, abs=1e-15)

    def test_continuity_at_branch_boundaries(self):
        for copies in product((1, 2, 3), repeat=3):
            base, spec = spectrum_of(ProblemConfig(2, *copies, 0.5))
            for k in range(base.k_max + 1):
                c_k, d_k = boundaries(k, spec)
                o = spec.blocks[k].overlap
                d1, d2 = spec.d1, spec.d2
                for threshold in (float(c_k), float(d_k)):
                    e1, e2 = threshold, 1.0 - threshold
                    low = e1 / d1 + e2 * o * o / d2
                    middle = 2.0 * math.sqrt(e1 * e2 / (d1 * d2)) * o
                    high = e1 * o * o / d1 + e2 / d2
                    closest = min((low, middle, high), key=lambda v: abs(v - middle))
                    assert closest == pytest.approx(middle, abs=1e-12)


class TestTotalFailure:
    def test_known_totals(self):
        assert total_failure(ALL_ONES).q_total == pytest.approx(5 / 6, abs=1e-12)
        assert total_failure(ProblemConfig(3, 1, 1, 1, 0.5)).q_total == pytest.approx(
            7 / 9, abs=1e-12
        )
        # 5*(1/16 + 1/18) + 3*2*sqrt(1/(4*72))/sqrt(3) = 85/144 + 1/(2 sqrt 6)
        assert total_failure(ProblemConfig(2, 2, 1, 1, 0.5)).q_total == pytest.approx(
            85 / 144 + 0.5 / math.sqrt(6), abs=1e-12
        )

    def test_swap_back_reporting(self):
        forward = total_failure(ProblemConfig(2, 2, 1, 1, 0.8))
        mirrored = total_failure(ProblemConfig(2, 1, 1, 2, 0.2))
        assert not forward.swapped and mirrored.swapped
        assert mirrored.q_total == pytest.approx(forward.q_total, abs=1e-15)
        for fwd, mir in zip(forward.blocks, mirrored.blocks):
            # hypothesis labels (and with them the thresholds) swap roles
            assert mir.q1 == pytest.approx(fwd.q2, abs=1e-15)
            assert mir.q2 == pytest.approx(fwd.q1, abs=1e-15)
            assert mir.c_k == pytest.approx(1.0 - fwd.d_k, abs=1e-15)
            assert mir.d_k == pytest.approx(1.0 - fwd.c_k, abs=1e-15)

    def test_degenerate_priors(self):
        certain = total_failure(ProblemConfig(2, 1, 1, 1, 1.0))
        assert all(b.branch is Branch.HIGH for b in certain.blocks)
        assert 0.0 < certain.q_total <= 1.0

    def test_range_over_grid(self):
        for n, copies, eta1 in product((2, 4), product((1, 3), repeat=3), (0.1, 0.5, 0.9)):
            result = total_failure(ProblemConfig(n, *copies, eta1))
            assert 0.0 < result.q_total <= 1.0


def equal_copies_sum(cfg):
    """Reduced form of the optimum for n_a = n_c at even priors:
    Q = (1/d1) sum_k d^k O_k."""
    _, spec = spectrum_of(cfg)
    return sum(b.multiplicity / spec.d1 * b.overlap for b in spec.blocks)


class TestEqualCopies:
    def test_matches_total_failure(self):
        for n, copies in product((2, 3, 4), ((1, 1, 1), (2, 1, 2), (3, 2, 3), (2, 3, 2))):
            cfg = ProblemConfig(n, *copies, 0.5)
            assert equal_copies_sum(cfg) == pytest.approx(
                total_failure(cfg).q_total, abs=1e-12
            )

    def test_all_ones_closed_form(self):
        for n in range(2, 30):
            cfg = ProblemConfig(n, 1, 1, 1, 0.5)
            assert total_failure(cfg).q_total == pytest.approx(
                (2 * n + 1) / (3 * n), abs=1e-12
            )

    def test_preconditions(self):
        # the reduced form needs both n_a = n_c and even priors
        for cfg in (ProblemConfig(2, 2, 1, 1, 0.5), ProblemConfig(2, 1, 1, 1, 0.4)):
            assert abs(equal_copies_sum(cfg) - total_failure(cfg).q_total) > 1e-3


class TestMinError:
    def test_all_ones_eigenvalues(self):
        block = minerror_probability(ALL_ONES).blocks[1]
        assert block.lambda_plus == pytest.approx(math.sqrt(3) / 24, abs=1e-15)
        assert block.lambda_minus == pytest.approx(-math.sqrt(3) / 24, abs=1e-15)

    def test_degenerate_block_eigenvalues(self):
        block = minerror_probability(ALL_ONES).blocks[0]
        assert (block.lambda_plus, block.lambda_minus) == (0.0, 0.0)

    def test_sign_and_trace_over_grid(self):
        for copies, eta1 in product(product((1, 2, 3), repeat=3), (0.1, 0.5, 0.9)):
            cfg, spec = spectrum_of(ProblemConfig(3, *copies, eta1))
            c_minus = cfg.eta2 / spec.d2 - cfg.eta1 / spec.d1
            for block in minerror_probability(cfg, spec).blocks:
                assert block.lambda_plus >= 0.0 >= block.lambda_minus
                assert block.lambda_plus + block.lambda_minus == pytest.approx(
                    c_minus, abs=1e-12
                )

    def test_known_totals(self):
        assert minerror_probability(ALL_ONES).p_me == pytest.approx(
            0.5 - math.sqrt(3) / 12, abs=1e-12
        )
        assert minerror_probability(ProblemConfig(3, 1, 1, 1, 0.5)).p_me == pytest.approx(
            0.5 - math.sqrt(3) / 9, abs=1e-12
        )
        expected = (0.5 + 4 / 9 - 5 / 144 - 3 * math.sqrt(193) / 144) / 2
        assert minerror_probability(ProblemConfig(2, 2, 1, 1, 0.5)).p_me == pytest.approx(
            expected, abs=1e-12
        )

    def test_residual_block(self):
        result = minerror_probability(ProblemConfig(2, 2, 1, 1, 0.5))
        assert result.residual_eigenvalue == pytest.approx(0.5 / 9, abs=1e-15)
        assert result.residual_multiplicity == 1

    def test_swap_invariance_of_total(self):
        a = minerror_probability(ProblemConfig(3, 1, 2, 3, 0.3))
        b = minerror_probability(ProblemConfig(3, 3, 2, 1, 0.7))
        assert a.swapped and not b.swapped
        assert a.p_me == pytest.approx(b.p_me, abs=1e-15)

    def test_bounded_by_smaller_prior(self):
        for copies, eta1 in product(product((1, 2), repeat=3), (0.0, 0.2, 0.5, 0.9, 1.0)):
            cfg = ProblemConfig(2, *copies, eta1)
            p = minerror_probability(cfg).p_me
            assert 0.0 <= p <= min(cfg.eta1, cfg.eta2) + 1e-12
            assert p <= 0.5


class TestMonotonicity:
    def test_decreasing_in_dimension(self):
        for copies in ((1, 1, 1), (2, 1, 1), (2, 2, 2)):
            q = [total_failure(ProblemConfig(n, *copies, 0.5)).q_total for n in range(2, 20)]
            p = [
                minerror_probability(ProblemConfig(n, *copies, 0.5)).p_me
                for n in range(2, 20)
            ]
            assert all(a > b for a, b in zip(q, q[1:]))
            assert all(a > b for a, b in zip(p, p[1:]))

    def test_decreasing_in_copy_counts(self):
        for n in (2, 3):
            for copies in product((1, 2), repeat=3):
                base_q = total_failure(ProblemConfig(n, *copies, 0.5)).q_total
                base_p = minerror_probability(ProblemConfig(n, *copies, 0.5)).p_me
                for bump in range(3):
                    more = list(copies)
                    more[bump] += 1
                    assert total_failure(ProblemConfig(n, *more, 0.5)).q_total <= base_q + 1e-12
                    assert (
                        minerror_probability(ProblemConfig(n, *more, 0.5)).p_me
                        <= base_p + 1e-12
                    )


class TestAsymptoticBounds:
    def test_q0_known_values(self):
        assert bound_q0(ProblemConfig(2, 1, 1, 1, 0.5)) == pytest.approx(2 / 3, abs=1e-12)
        assert bound_q0(ProblemConfig(2, 1, 2, 1, 0.5)) == pytest.approx(0.5, abs=1e-12)
        assert bound_q0(ProblemConfig(2, 2, 2, 2, 0.5)) == pytest.approx(1 / 3, abs=1e-12)

    def test_q0_requires_equal_program_copies(self):
        with pytest.raises(PreconditionError):
            bound_q0(ProblemConfig(2, 2, 1, 1, 0.5))

    def test_p0_all_ones_value(self):
        # k=1 coefficient 2*1!*1!/(3*1!*2!) = 1/3 ... summed with the
        # exact factorial ratio this is 1/2 - sqrt(3)/6
        assert bound_p0(ProblemConfig(2, 1, 1, 1, 0.5)) == pytest.approx(
            0.5 - math.sqrt(3) / 6, abs=1e-12
        )

    @pytest.mark.parametrize("copies", [(1, 1, 1), (3, 2, 4), (4, 2, 3), (300, 40, 200)])
    def test_p0_matches_factorial_formula(self, copies):
        # sum_k c_k (1 - sqrt(1 - O_k^2)) / 2, with the difference written as
        # O_k^2 / (1 + sqrt(1 - O_k^2)), and the multiplicity-fraction limit
        # c_k = (N-2k+1) n1! n_c! / ((N-k+1) k! (N-k)!), block by block
        cfg, _ = canonicalize(ProblemConfig(2, *copies, 0.5))
        fac, total = math.factorial, cfg.total_copies
        expected = 0.0
        for k in range(cfg.k_max + 1):
            o2 = Fraction(
                math.comb(cfg.n1 - k, cfg.n_b) * math.comb(cfg.n2 - k, cfg.n_b),
                math.comb(cfg.n1, cfg.n_b) * math.comb(cfg.n2, cfg.n_b),
            )
            coeff = Fraction((total - 2 * k + 1) * fac(cfg.n1) * fac(cfg.n_c),
                             (total - k + 1) * fac(k) * fac(total - k))
            expected += float(coeff) / 2 * float(o2) / (1 + math.sqrt(float(1 - o2)))
        assert bound_p0(ProblemConfig(2, *copies, 0.5)) == pytest.approx(expected, rel=1e-14)

    def test_bounds_are_large_n_limits(self):
        for copies in ((1, 1, 1), (2, 1, 2), (1, 3, 1), (3, 3, 3)):
            cfg = ProblemConfig(10_000, *copies, 0.5)
            assert total_failure(cfg).q_total == pytest.approx(
                bound_q0(cfg), abs=5e-4
            )
            assert minerror_probability(cfg).p_me == pytest.approx(
                bound_p0(cfg), abs=5e-4
            )

    def test_bounds_decrease_with_copies(self):
        q_values = [
            bound_q0(ProblemConfig(2, m, m, m, 0.5)) for m in range(1, 13)
        ]
        p_values = [
            bound_p0(ProblemConfig(2, m, m, m, 0.5)) for m in range(1, 13)
        ]
        assert all(a > b for a, b in zip(q_values, q_values[1:]))
        assert all(a > b for a, b in zip(p_values, p_values[1:]))
        assert q_values[-1] < 0.06 and p_values[-1] < 0.02


# construction and the arithmetic and comparison methods of Fraction;
# reading a numerator and denominator stays allowed
FRACTION_OPERATORS = (
    "__new__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__float__",
)


def test_closed_form_solve_does_no_fraction_arithmetic(monkeypatch):
    """The spectrum walk, both optima, the sweep's pair of totals, the
    bounds and the dense POVM's pair weights: every exact rational is an
    integer pair over the spectrum's common denominator, so no Fraction is
    built and no Fraction operator runs."""
    cases = [
        ProblemConfig(n, *copies, eta1)
        for n, copies, eta1 in product(
            (2, 3, 41, 2000), product((1, 4, 10), repeat=3), (0.0, 0.05, 0.37, 0.5, 0.95, 1.0)
        )
    ]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the closed-form path")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, forbidden)
    for cfg in cases:
        canonical, _ = canonicalize(cfg)
        spec = jordan_spectrum(canonical)
        total_failure(cfg)
        _solve_blocks(canonical, spec, printed_high_branch=True)
        minerror_probability(cfg, spec)
        optimal_totals(cfg)
        asymptotic_bounds(cfg)
    for n, copies in ((2, (1, 1, 1)), (3, (2, 1, 1)), (2, (1, 2, 3))):
        for inject in (False, True):
            oracle.certify_povms([ProblemConfig(n, *copies, eta1) for eta1 in (0.0, 0.37, 1.0)],
                                 printed_high_branch=inject)


def test_many_copy_totals_keep_their_bits():
    # every float taken from an exact ratio is one correctly rounded
    # division, reduced or not, so the totals keep these bits
    cfg = ProblemConfig(2, 3000, 3000, 3000, 0.3)
    assert total_failure(cfg).q_total.hex() == "0x1.f6055e1ed5203p-11"
    assert minerror_probability(cfg).p_me.hex() == "0x1.8739b6e212bb6p-13"


def test_totals_below_the_float_range_raise():
    # P_ME of (10000; 600,600,600) and Q0 of 1000 copies are far below the
    # smallest normal float: no silent 0
    cfg = ProblemConfig(10000, 600, 600, 600, 0.5)
    with pytest.raises(PreconditionError, match="^P_ME lies below the normal float"):
        minerror_probability(cfg)
    # the one solve of both totals returns the refusal and keeps Q_opt
    assert optimal_totals(cfg) == (total_failure(cfg).q_total, None,
                                   ("P_ME lies below the normal float range",))
    with pytest.raises(PreconditionError, match="^Q0 lies below the normal float"):
        bound_q0(ProblemConfig(2, 1000, 1000, 1000, 0.5))
    # the pair of bounds refuses each one on its own: Q0 of 600 copies is kept
    bounds = asymptotic_bounds(ProblemConfig(2, 600, 600, 600, 0.5))
    assert (bounds.q0, bounds.p0) == (bound_q0(ProblemConfig(2, 600, 600, 600, 0.5)), None)
    assert bounds.refused == ("P0 lies below the normal float range",)
    # a certain prior makes no error at all: its P_ME is a true 0
    for eta1 in (0.0, 1.0):
        assert minerror_probability(ProblemConfig(2, 2, 1, 1, eta1)).p_me == 0.0
        assert optimal_totals(ProblemConfig(2, 2, 1, 1, eta1))[1:] == (0.0, ())
