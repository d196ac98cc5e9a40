"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qudisc import cli, discrimination, oracle
from qudisc.discrimination import bound_p0, minerror_probability, total_failure
from qudisc.spectrum import ProblemConfig, jordan_spectrum


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_text_table(self, capsys):
        code, out, _ = run(["spectrum", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k overlap multiplicity"
        assert lines[1] == "0 1 4"
        assert lines[2] == "1 0.5 2"
        assert "d2 - d1 = 0" in lines
        assert "swapped = false" in lines

    def test_dim_three(self, capsys):
        code, out, _ = run(["spectrum", "-n", "3", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 0
        assert "0 1 10" in out and "1 0.5 8" in out

    def test_gap_and_swap_reporting(self, capsys):
        code, out, _ = run(
            ["spectrum", "-n", "2", "--na", "1", "--nb", "1", "--nc", "2", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["swapped"] is True
        assert payload["d2"] - payload["d1"] == payload["gap"] == 1

    def test_bad_dimension_exits_2(self, capsys):
        code, _, err = run(["spectrum", "-n", "1", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 2
        assert "error" in err


class TestUnambiguous:
    def test_json_round_trip(self, capsys):
        argv = ["unambiguous", "-n", "3", "--na", "2", "--nb", "1", "--nc", "2",
                "--eta1", "0.3", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        cfg = ProblemConfig(**payload["config"])
        result = total_failure(cfg)
        assert payload["total"] == pytest.approx(result.q_total, abs=1e-15)
        assert [b["q1"] for b in payload["blocks"]] == [
            pytest.approx(b.q1, abs=1e-15) for b in result.blocks
        ]

    def test_text_total_line(self, capsys):
        code, out, _ = run(
            ["unambiguous", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1"], capsys
        )
        assert code == 0
        assert f"Q_opt = {5 / 6:.12g}" in out

    @pytest.mark.parametrize("n,copies", [
        (2, "300"),  # O_k^2 underflows to 0.0
        (2000, "30"),  # d1*d2 passes the float range
    ])
    def test_extreme_configs_give_finite_floats(self, capsys, n, copies):
        argv = ["unambiguous", "-n", str(n), "--na", copies, "--nb", copies, "--nc", copies]
        code, out, err = run(argv + ["--json"], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert 0.0 < payload["total"] < 1.0
        assert all(
            math.isfinite(b[key]) for b in payload["blocks"] for key in ("q1", "q2", "q_block")
        )
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert math.isfinite(float(out.split("Q_opt = ")[1].split()[0]))

    def test_nan_prior_exits_2(self, capsys):
        code, _, err = run(
            ["unambiguous", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1", "--eta1", "nan"],
            capsys,
        )
        assert code == 2
        assert "priors must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["unambiguous", "-n", "2", "--eta1", "1.0000000000005"],
        ["minerror", "-n", "2", "--eta1=-5e-13"],
        ["sweep", "--dim-max", "3", "--eta1=-5e-13"],
    ], ids=["unambiguous", "minerror", "sweep"])
    def test_slightly_negative_prior_exits_2(self, capsys, argv):
        code, out, err = run([*argv, "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "priors must be nonnegative" in err


class TestMinError:
    def test_json_round_trip(self, capsys):
        argv = ["minerror", "-n", "2", "--na", "2", "--nb", "1", "--nc", "1", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        result = minerror_probability(ProblemConfig(**payload["config"]))
        assert payload["total"] == pytest.approx(result.p_me, abs=1e-15)
        assert payload["residual_multiplicity"] == 1

    def test_text_output(self, capsys):
        code, out, _ = run(["minerror", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 0
        assert f"P_ME = {0.5 - math.sqrt(3) / 12:.12g}" in out


class TestBounds:
    def test_equal_programs(self, capsys):
        code, out, _ = run(["bounds", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 0
        assert f"Q0 = {2 / 3:.12g}" in out

    def test_unequal_programs_reports_p0_and_exits_3(self, capsys):
        code, out, err = run(["bounds", "--na", "2", "--nb", "1", "--nc", "1"], capsys)
        assert code == 3
        assert "P0 = " in out
        assert "Q0 undefined" in out
        assert "requires n_a = n_c" in err

    def test_json_null_q0(self, capsys):
        code, out, _ = run(["bounds", "--na", "2", "--nb", "1", "--nc", "1", "--json"], capsys)
        assert code == 3
        assert json.loads(out)["q0"] is None

    def test_many_copies_keep_their_digits(self, capsys):
        code, out, _ = run(["bounds", "--na", "500", "--nb", "500", "--nc", "500"], capsys)
        assert code == 0
        assert "Q0 = 1.52841043267e-206" in out

    @pytest.mark.parametrize("argv,name", [
        (["minerror", "-n", "10000", "--na", "600", "--nb", "600", "--nc", "600"], "P_ME"),
        (["unambiguous", "-n", "10000", "--na", "800", "--nb", "800", "--nc", "800"], "Q_opt"),
    ], ids=["p_me", "q_opt-subnormal"])
    def test_total_below_the_float_range_exits_3(self, capsys, argv, name):
        # no silent 0, and no subnormal with lost digits (Q_opt: 6.9e-322)
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {name} lies below the normal float range\n"

    def test_bounds_below_the_float_range_exit_3(self, capsys):
        # the exact Q0 of 1000 copies each is 1.02e-413: no bound is printed
        code, out, err = run(["bounds", "--na", "1000", "--nb", "1000", "--nc", "1000"], capsys)
        refused = [f"{name} lies below the normal float range" for name in ("Q0", "P0")]
        assert code == 3
        assert out.splitlines() == refused
        assert err.splitlines() == [f"error: {line}" for line in refused]

    def test_bound_below_the_float_range_keeps_the_other(self, capsys):
        # P0 of 600 copies each is below the float range, Q0 is not
        argv = ["bounds", "--na", "600", "--nb", "600", "--nc", "600"]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out.splitlines() == ["Q0 = 5.73606185928e-248",
                                    "P0 lies below the normal float range"]
        assert err == "error: P0 lies below the normal float range\n"
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 3
        assert (json.loads(out)["q0"], json.loads(out)["p0"]) == (5.736061859280887e-248, None)

    def test_unequal_programs_with_p0_below_the_float_range(self, capsys):
        code, out, err = run(["bounds", "--na", "1000", "--nb", "1000", "--nc", "999"], capsys)
        assert code == 3
        assert out.splitlines() == ["Q0 undefined: requires n_a = n_c",
                                    "P0 lies below the normal float range"]
        assert err.splitlines() == ["error: Q0 requires n_a = n_c",
                                    "error: P0 lies below the normal float range"]

    def test_prior_flag_rejected(self):
        # the bounds are even-prior limits: a prior flag would be ignored
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bounds", "--na", "1", "--nb", "1", "--nc", "1", "--eta1", "0.3"])
        assert excinfo.value.code == 2


class TestVerify:
    ARGS = ["verify", "--max-total-dim", "64", "--samples", "4000"]

    def test_small_grid_passes(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") == 7

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(self.ARGS + ["--inject-q-fault"], capsys)
        assert code == 1
        assert "FAIL POVM certification" in out

    def test_oracle_error_fails_its_families(self, capsys, monkeypatch):
        # a degenerate Gram entry moved by -1e-6 breaks the rank check of
        # every config's first block: each dense family reports the first
        # config as a failure, and the other families still run
        honest = oracle._gram_block

        def nudged(parts, n_a, n_c):
            g = honest(parts, n_a, n_c)
            if len(parts) == 1:  # the first orbit, of weight (N, 0, ...)
                g[0, 0] -= 1e-6
            return g

        monkeypatch.setattr(oracle, "_gram_block", nudged)
        oracle._jordan_geometry.cache_clear()
        try:
            code, out, _ = run(self.ARGS, capsys)
        finally:
            oracle._jordan_geometry.cache_clear()
        assert code == 1
        lines = out.splitlines()
        reason = "(n=2 copies=(1,1,1): weight block spans 2 directions, expected 1)"
        for family in ("principal angles", "min-error trace norm", "POVM certification"):
            assert f"FAIL {family}: max residual 1.000e+00 {reason}" in lines
        assert sum(line.startswith("PASS ") for line in lines) == 4
        assert lines[-1] == "3 check(s) failed"

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-5"), ("--samples", "999"),
        ("--seed", "-1"), ("--max-total-dim", "4"), ("--max-total-dim", "7"),
    ])
    def test_flag_errors(self, capsys, flag, value):
        # the last occurrence of a repeated flag wins
        code, out, err = run(self.ARGS + [flag, value], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ")


# a valid call of each subcommand
COPIES = ["--na", "1", "--nb", "1", "--nc", "1"]
EVERY_COMMAND = {
    "spectrum": ["spectrum", "-n", "2", *COPIES],
    "unambiguous": ["unambiguous", "-n", "2", *COPIES],
    "minerror": ["minerror", "-n", "2", *COPIES],
    "bounds": ["bounds", *COPIES],
    "verify": ["verify", "--max-total-dim", "64", "--samples", "4000"],
    "sweep": ["sweep", "--dim-max", "3", *COPIES],
}


class TestSweep:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run(
            ["sweep", "--dim-max", "6", "--na", "1", "--nb", "1", "--nc", "1"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,n_A,n_B,n_C,eta1,Q_opt,P_ME,Q0,P0"
        assert len(lines) == 6
        for row in lines[1:]:
            n, *_, q_opt, _, q0, _ = row.split(",")
            assert float(q_opt) == pytest.approx((2 * int(n) + 1) / (3 * int(n)), abs=1e-9)
            assert float(q0) == pytest.approx(2 / 3, abs=1e-9)

    def test_unequal_programs_leave_q0_empty(self, capsys):
        code, out, _ = run(
            ["sweep", "--dim-max", "3", "--na", "2", "--nb", "1", "--nc", "1"], capsys
        )
        assert code == 0
        for row in out.splitlines()[1:]:
            assert row.split(",")[7] == ""

    def test_totals_below_the_float_range_leave_their_cells_empty(self, capsys):
        # P_ME and P0 of 600 copies each are below the float range, Q_opt
        # is not: every row keeps its Q_opt, and each refused quantity is
        # named once
        code, out, err = run(["sweep", "--dim-min", "9999", "--dim-max", "10000",
                              "--na", "600", "--nb", "600", "--nc", "601"], capsys)
        assert code == 3
        assert out.splitlines()[1:] == ["9999,600,600,601,0.5,1.43027604399e-240,,,",
                                        "10000,600,600,601,0.5,1.42791043428e-240,,,"]
        assert err.splitlines() == [f"error: {name} lies below the normal float range"
                                    for name in ("P0", "P_ME")]

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep", "--dim-max", "40", "--na", "2", "--nb", "3", "--nc", "1",
                "--eta1", "0.35"]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second

    def test_one_spectrum_per_row(self, monkeypatch, capsys):
        calls = []

        def counting(cfg):
            calls.append(cfg.n)
            return jordan_spectrum(cfg)

        monkeypatch.setattr(cli, "jordan_spectrum", counting)
        monkeypatch.setattr(discrimination, "jordan_spectrum", counting)
        code, _, _ = run(
            ["sweep", "--dim-max", "5", "--na", "1", "--nb", "2", "--nc", "3"], capsys
        )
        assert code == 0
        assert calls == [2, 3, 4, 5]

    def test_one_solve_per_row(self, monkeypatch, capsys):
        calls = []
        solve = discrimination._solve_blocks

        def counting(canonical, spectrum, *args):
            calls.append(canonical.n)
            return solve(canonical, spectrum, *args)

        monkeypatch.setattr(discrimination, "_solve_blocks", counting)
        code, out, _ = run(
            ["sweep", "--dim-max", "5", "--na", "1", "--nb", "2", "--nc", "3", "--eta1", "0.3",
             "--json"], capsys
        )
        assert code == 0
        assert calls == [2, 3, 4, 5]
        monkeypatch.undo()
        for row in json.loads(out):
            cfg = ProblemConfig(row["n"], 1, 2, 3, 0.3)
            assert row["Q_opt"].hex() == total_failure(cfg).q_total.hex()
            assert row["P_ME"].hex() == minerror_probability(cfg).p_me.hex()

    def test_one_solve_per_row_with_a_refused_total(self, monkeypatch, capsys):
        # P_ME of every row is refused, Q_opt is kept: still one solve a row
        calls = []
        solve = discrimination._solve_blocks

        def counting(canonical, spectrum, *args):
            calls.append(canonical.n)
            return solve(canonical, spectrum, *args)

        monkeypatch.setattr(discrimination, "_solve_blocks", counting)
        code, out, _ = run(["sweep", "--dim-min", "9999", "--dim-max", "10000",
                            "--na", "600", "--nb", "600", "--nc", "601"], capsys)
        assert code == 3
        assert calls == [9999, 10000]
        assert [row.split(",")[5:7] for row in out.splitlines()[1:]] == [
            ["1.43027604399e-240", ""], ["1.42791043428e-240", ""]]

    def test_bounds_evaluated_once(self, monkeypatch, capsys):
        calls = []

        def counting(cfg):
            calls.append(cfg.n)
            return bound_p0(cfg)

        monkeypatch.setattr(discrimination, "bound_p0", counting)
        code, _, _ = run(
            ["sweep", "--dim-max", "6", "--na", "3", "--nb", "2", "--nc", "3"], capsys
        )
        assert code == 0
        assert len(calls) == 1

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        argv = ["sweep", "--dim-max", "4", "--na", "1", "--nb", "1", "--nc", "1",
                "--out", str(target)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,n_A,n_B,n_C,eta1,")

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--dim-max", "4", "--na", "1", "--nb", "1", "--nc", "1",
             "--out", str(tmp_path / "missing" / "rows.csv")],
            capsys,
        )
        assert code == 4
        assert "cannot open output file" in err

    @pytest.mark.parametrize("name", ["missing/f", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_fails_before_work(self, tmp_path, monkeypatch, capsys, name):
        called = []
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda **kwargs: called.append(kwargs) or [])
        code, out, err = run(["verify", "--out", str(tmp_path / name)], capsys)
        assert (code, out, called) == (4, "", [])
        assert err.startswith("error: cannot open output file: ")

    @pytest.mark.parametrize("command", list(EVERY_COMMAND))
    def test_empty_out_exits_4(self, capsys, command):
        # an empty path names no file: it is refused, not taken for stdout
        code, out, err = run(EVERY_COMMAND[command] + ["--out", ""], capsys)
        assert (code, out) == (4, "")
        assert err == "error: cannot open output file: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dim-max", "1", "--na", "1", "--nb", "1", "--nc", "1"],
        ["verify", "--samples", "0"],
    ], ids=["sweep", "verify"])
    def test_flag_error_leaves_out_file(self, tmp_path, capsys, argv):
        target = tmp_path / "f"
        target.write_text("keep\n")
        code, out, _ = run(argv + ["--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert target.read_text() == "keep\n"

    def test_precondition_exit_still_writes_out_file(self, tmp_path, capsys):
        target = tmp_path / "f"
        target.write_text("keep\n")
        code, _, err = run(
            ["bounds", "--na", "2", "--nb", "1", "--nc", "1", "--out", str(target)], capsys
        )
        assert code == 3
        assert "requires n_a = n_c" in err
        assert target.read_text().startswith("P0 = ")

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(
            ["sweep", "--dim-max", "1", "--na", "1", "--nb", "1", "--nc", "1"], capsys
        )
        assert code == 2
        assert "dim-min" in err


# swapped (n_a < n_c), and the blocks take two branches: LOW and MIDDLE
SWAPPED = ["-n", "3", "--na", "1", "--nb", "2", "--nc", "3"]
# outputs captured before the renderer was rewritten
PINNED = {
    "spectrum": (["spectrum"] + SWAPPED, 0, """\
k overlap multiplicity
0 1 28
1 0.4472135955 35
d1 = 63
d2 = 100
d2 - d1 = 37
swapped = true
"""),
    "unambiguous": (["unambiguous"] + SWAPPED + ["--eta1", "0.3"], 0, """\
k branch q1 q2 c_k d_k Q_k multiplicity
0 LOW 1 1 0.613496932515 0.613496932515 0.0141111111111 28
1 MIDDLE 0.860662965824 0.232379000772 0.240963855422 0.88809946714 0.00516397779494 35
Q_opt = 0.575850333934
swapped = true
"""),
    "minerror": (["minerror"] + SWAPPED + ["--eta1", "0.3"], 0, """\
k lambda_plus lambda_minus multiplicity
0 0 -0.00811111111111 28
1 0.00251058467527 -0.0106216957864 35
residual eigenvalue = 0.003 (multiplicity 37)
P_ME = 0.101129536366
swapped = true
"""),
    "bounds": (["bounds", "--na", "2", "--nb", "1", "--nc", "2"], 0, """\
Q0 = 0.533333333333
P0 = 0.115226541104
"""),
    "bounds-undefined-q0": (["bounds", "--na", "2", "--nb", "1", "--nc", "1"], 3, """\
P0 = 0.193813782152
Q0 undefined: requires n_a = n_c
"""),
}
# full --json bytes, captured before the closed-form kernel moved to integer
# branch tests: the text pins keep 12 digits, these keep every bit
PINNED_JSON_DIR = Path(__file__).parent / "pinned_json"
PINNED_JSON = {case: argv for case, (argv, _, _) in PINNED.items()} | {
    "sweep": ["sweep", "--dim-min", "2", "--dim-max", "4", "--na", "2", "--nb", "3",
              "--nc", "1", "--eta1", "0.35"],
}
# JSON key of each text column, and (label, JSON key) of each footer line
COLUMNS = {
    "spectrum": ("k", "overlap", "multiplicity"),
    "unambiguous": ("k", "branch", "q1", "q2", "c_k", "d_k", "q_block", "multiplicity"),
    "minerror": ("k", "lambda_plus", "lambda_minus", "multiplicity"),
    "bounds": (),
}
FOOTER = {
    "spectrum": (("d1", "d1"), ("d2", "d2"), ("d2 - d1", "gap"), ("swapped", "swapped")),
    "unambiguous": (("Q_opt", "total"), ("swapped", "swapped")),
    "minerror": (("P_ME", "total"), ("swapped", "swapped")),
    "bounds": (("Q0", "q0"), ("P0", "p0")),
}


def cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.12g}" if isinstance(value, float) else str(value)


class TestRendering:
    @pytest.mark.parametrize("case", list(PINNED))
    def test_text_output_is_pinned(self, capsys, case):
        argv, code, text = PINNED[case]
        assert run(argv, capsys)[:2] == (code, text)

    @pytest.mark.parametrize("case", list(PINNED_JSON))
    def test_json_output_is_pinned(self, capsys, case):
        out = run(PINNED_JSON[case] + ["--json"], capsys)[1]
        assert out == (PINNED_JSON_DIR / f"{case}.json").read_text()

    @pytest.mark.parametrize("case", list(PINNED))
    def test_json_numbers_are_the_text_cells(self, capsys, case):
        argv = PINNED[case][0]
        lines = run(argv, capsys)[1].splitlines()
        payload = json.loads(run(argv + ["--json"], capsys)[1])
        blocks = payload.get("blocks", [])
        rows = [line.split() for line in lines[1:len(blocks) + 1]]
        assert rows == [[cell(block[key]) for key in COLUMNS[argv[0]]] for block in blocks]
        for label, key in FOOTER[argv[0]]:
            if payload[key] is not None:
                assert f"{label} = {cell(payload[key])}" in lines

    def test_main_reuses_one_parser(self, monkeypatch, capsys):
        def rebuilt():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        code, out, _ = run(["unambiguous", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
        assert code == 0
        assert f"Q_opt = {5 / 6:.12g}" in out


USAGE = {
    "spectrum": "[-h] --dim DIM --na NA --nb NB --nc NC [--json] [--out OUT]",
    "unambiguous": "[-h] --dim DIM --na NA --nb NB --nc NC [--eta1 ETA1] [--json] [--out OUT]",
    "minerror": "[-h] --dim DIM --na NA --nb NB --nc NC [--eta1 ETA1] [--json] [--out OUT]",
    "bounds": "[-h] [--dim DIM] --na NA --nb NB --nc NC [--json] [--out OUT]",
    "verify": "[-h] [--max-total-dim MAX_TOTAL_DIM] [--samples SAMPLES] [--seed SEED] "
              "[--inject-q-fault] [--out OUT]",
    "sweep": "[-h] [--dim-min DIM_MIN] --dim-max DIM_MAX --na NA --nb NB --nc NC [--eta1 ETA1] "
             "[--json] [--out OUT]",
}


def test_usage_lines_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # one line each, whatever the terminal
    assert list(cli._SUBPARSERS) == list(EVERY_COMMAND) == list(USAGE)
    for name, parser in cli._SUBPARSERS.items():
        assert parser.format_usage() == f"usage: qudisc {name} {USAGE[name]}\n"


def test_every_option_has_help():
    bare = [f"{name} {action.option_strings[0]}" for name, parser in cli._SUBPARSERS.items()
            for action in parser._actions if action.option_strings and not action.help]
    assert bare == []


def test_unknown_flag_raises_system_exit():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spectrum", "--bogus"])
    assert excinfo.value.code == 2


def test_missing_subcommand_raises_system_exit():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_unknown_subcommand_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["nope"])
    assert excinfo.value.code == 2
    assert "qudisc: error: argument command: invalid choice: 'nope'" in capsys.readouterr().err


def test_unknown_flag_is_reported_by_its_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spectrum", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1", "--bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qudisc spectrum ")
    assert err.endswith("qudisc spectrum: error: unrecognized arguments: --bogus\n")


def test_one_argparse_pass_per_call(monkeypatch, capsys):
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(parser, *args, **kwargs):
        parsed.append(parser.prog)
        return parse(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    code, out, _ = run(["unambiguous", "-n", "2", "--na", "1", "--nb", "1", "--nc", "1"], capsys)
    assert (code, parsed) == (0, ["qudisc unambiguous"])
    assert f"Q_opt = {5 / 6:.12g}" in out


def test_import_loads_no_numpy():
    # only the dense verify families need the oracle and numpy, and they
    # import both when they run; verify itself is loaded with the CLI
    script = ("import sys, qudisc.cli; "
              "print(*(m in sys.modules for m in ('qudisc.verify', 'qudisc.oracle', 'numpy')))")
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                            cwd=src, check=True)
    assert result.stdout == "True False False\n"
