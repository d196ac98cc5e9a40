"""Relative accuracy against the 60-digit reference, and output properties
over random configs.

The reference (`perfbench/reference.py`) evaluates the paper's block
formulas in mpmath, apart from qudisc; it is loaded from its file and
only read.
"""

import importlib.util
import json
import sys
from itertools import product
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudisc import cli
from qudisc.discrimination import bound_q0, minerror_probability, total_failure
from qudisc.spectrum import ProblemConfig

_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("qudisc_reference", _REFERENCE_PATH)
reference = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reference  # its dataclasses look their module up
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # read only: no bytecode next to the benchmark
try:
    _spec.loader.exec_module(reference)
finally:
    sys.dont_write_bytecode = _dont_write

REL_TOL = 1e-13


def rel_err(got: float, want) -> float:
    return float(abs(got - want) / abs(want))


def run_json(argv, capsys) -> dict:
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


# configs that overflowed a float conversion, lost the value to
# cancellation in a (sum - trace norm)/2 difference, or printed 0
@pytest.mark.parametrize("kind,n,copies,eta1", [
    ("unambiguous", 2000, 100, 0.5),
    ("unambiguous", 2000, 100, 0.2),
    ("unambiguous", 1_000_000, 30, 0.5),
    ("minerror", 1000, 200, 0.5),
    ("minerror", 100, 60, 0.5),
    ("minerror", 500, 30, 0.9),
])
def test_extreme_cli_totals_match_reference(capsys, kind, n, copies, eta1):
    c = str(copies)
    argv = [kind, "-n", str(n), "--na", c, "--nb", c, "--nc", c]
    if eta1 != 0.5:
        argv += ["--eta1", str(eta1)]
    total = run_json(argv, capsys)["total"]
    opt = reference.optimum(n, copies, copies, copies, eta1)
    want = opt.q_opt if kind == "unambiguous" else opt.p_me
    assert total > 0.0
    assert rel_err(total, want) <= REL_TOL


# 150 copies printed P0 = 0; from 391 copies the k = 0 block's coefficient
# 1/C(3c, c) is below the float range, which must give that block 0.0
@pytest.mark.parametrize("copies", [150, 400])
def test_many_copy_p0_matches_reference(capsys, copies):
    c = str(copies)
    payload = run_json(["bounds", "--na", c, "--nb", c, "--nc", c], capsys)
    _, p0 = reference.limits(copies, copies)
    assert payload["p0"] > 0.0
    assert rel_err(payload["p0"], p0) <= REL_TOL


def test_q0_is_the_gamma_ratio_rounded_once():
    # Q0 is an exact factorial ratio rounded once, so it stays within about
    # half an ulp at every copy count
    copies = list(range(1, 40)) + list(range(100, 1001, 100))
    worst = 0.0
    with mpmath.workdps(60):
        for n_a, n_b in product(copies, repeat=2):
            half_b = mpmath.mpf(n_b) / 2
            want = mpmath.gamma(n_a + 1) * mpmath.gamma(half_b + 1) / mpmath.gamma(n_a + half_b + 1)
            if want < sys.float_info.min:  # no full-precision float to compare
                continue
            worst = max(worst, rel_err(bound_q0(ProblemConfig(2, n_a, n_b, n_a)), want))
    assert worst <= 1.2e-16


def test_thousand_qubit_copies_match_reference():
    cfg = ProblemConfig(2, 1000, 1000, 1000, 0.5)
    opt = reference.optimum(2, 1000, 1000, 1000, 0.5)
    result = total_failure(cfg)
    assert rel_err(result.q_total, opt.q_opt) <= REL_TOL
    assert [b.branch.value for b in result.blocks] == list(opt.branches)
    assert rel_err(minerror_probability(cfg).p_me, opt.p_me) <= REL_TOL


configs = st.builds(
    ProblemConfig,
    n=st.integers(2, 2000),
    n_a=st.integers(1, 40),
    n_b=st.integers(1, 40),
    n_c=st.integers(1, 40),
    eta1=st.floats(0.01, 0.99),
)
# derandomized: the same examples on every run, and no example database
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SLACK = 1 + 1e-12


@PROPERTY_SETTINGS
@given(configs)
def test_swap_symmetry(cfg):
    mirror = ProblemConfig(cfg.n, cfg.n_c, cfg.n_b, cfg.n_a, cfg.eta2, cfg.eta1)
    assert total_failure(mirror).q_total == pytest.approx(
        total_failure(cfg).q_total, rel=1e-12
    )
    assert minerror_probability(mirror).p_me == pytest.approx(
        minerror_probability(cfg).p_me, rel=1e-12
    )


@PROPERTY_SETTINGS
@given(configs)
def test_optima_bounds(cfg):
    q = total_failure(cfg).q_total
    p = minerror_probability(cfg).p_me
    assert 0.0 <= p <= min(cfg.eta1, cfg.eta2) * SLACK
    assert p <= q / 2 * SLACK
    assert q <= SLACK


@PROPERTY_SETTINGS
@given(configs)
def test_no_increase_with_dimension(cfg):
    bigger = ProblemConfig(cfg.n + 1, cfg.n_a, cfg.n_b, cfg.n_c, cfg.eta1, cfg.eta2)
    assert total_failure(bigger).q_total <= total_failure(cfg).q_total * SLACK
    assert minerror_probability(bigger).p_me <= minerror_probability(cfg).p_me * SLACK
