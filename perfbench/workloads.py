"""The three workloads: inputs from a seed, one operation, output checks.

A workload is a round of operations that the timed phase repeats whole.
Checks run after the timed phase and compare the program's outputs with
``reference`` (60-digit mpmath, independent of qudisc) and with counts
derived here from the certification grid's definition.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import product

import qudisc
import qudisc.cli
from qudisc import oracle

# closed_form tolerances, relative to the reference: Q_opt and Q0 are
# exact up to rounding (the text output keeps 12 significant digits);
# P_ME and P0 are computed as (1 - sum)/2 and lose up to ~6e-10 to
# cancellation at 12 copies per register and n <= 2000.
Q_REL_TOL = 1e-11
P_REL_TOL = 1e-8
# dense-oracle tolerances, the same ones `qudisc verify` gates on
DENSE_TOL = 1e-9


class OpFailed(Exception):
    """The program rejected or aborted an operation."""


def clear_caches() -> None:
    """Empty every cache a qudisc module holds, so each operation starts
    as a fresh `qudisc` process would."""
    for name, module in list(sys.modules.items()):
        if name == "qudisc" or name.startswith("qudisc."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_cli(argv: list[str]) -> str:
    """One in-process `qudisc` call; returns its standard output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = qudisc.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        raise OpFailed(f"{' '.join(argv)}: exit {exc.code}") from exc
    if code != 0:
        raise OpFailed(f"{' '.join(argv)}: exit {code}")
    return buf.getvalue()


def _rel(got: float, want) -> float:
    return abs(got - float(want)) / abs(float(want))


# --- closed_form -------------------------------------------------------------

COPIES_MAX = 10
DIM_MIN, DIM_MAX = 2, 2000
SWEEP_LEN = 5
# operations of each kind in one round; single-config calls outnumber the
# sweeps so that the median latency falls among them, not in the gap
# between the two kinds
ROUND_MIX = (("sweep", 30), ("spectrum", 30), ("unambiguous", 60),
             ("minerror", 50), ("bounds", 30))


@dataclass(frozen=True)
class Request:
    kind: str
    n: int  # first dimension of a sweep
    n_a: int
    n_b: int
    n_c: int
    eta1: float
    as_json: bool

    @property
    def dims(self) -> range:
        return range(self.n, self.n + (SWEEP_LEN if self.kind == "sweep" else 1))

    def argv(self) -> list[str]:
        copies = ["--na", str(self.n_a), "--nb", str(self.n_b), "--nc", str(self.n_c)]
        if self.kind == "sweep":
            head = ["sweep", "--dim-min", str(self.n), "--dim-max", str(self.dims[-1])]
        else:
            head = [self.kind, "-n", str(self.n)]
        prior = ["--eta1", str(self.eta1)] if self.kind in ("sweep", "unambiguous", "minerror") else []
        return head + copies + prior + (["--json"] if self.as_json else [])


def _log_uniform(rng: random.Random, low: int, high: int) -> int:
    return round(math.exp(rng.uniform(math.log(low), math.log(high))))


def closed_form_requests(seed: int) -> list[Request]:
    """One round: fixed counts of each kind and of each smaller program
    register size 1..10; the seed picks everything else."""
    rng = random.Random(seed)
    requests = []
    for kind, count in ROUND_MIX:
        for j in range(count):
            k_max = 1 + j % COPIES_MAX
            n_b = rng.randint(1, COPIES_MAX)
            if kind == "bounds":  # Q0 is defined for n_a = n_c only
                n_a = n_c = k_max
            else:
                other = rng.randint(k_max, COPIES_MAX)
                n_a, n_c = (k_max, other) if rng.random() < 0.5 else (other, k_max)
            high = DIM_MAX - SWEEP_LEN + 1 if kind == "sweep" else DIM_MAX
            requests.append(Request(
                kind, _log_uniform(rng, DIM_MIN, high), n_a, n_b, n_c,
                rng.randint(5, 95) / 100, rng.random() < 0.5,
            ))
    rng.shuffle(requests)
    return requests


def _text_value(out: str, label: str, kind=float):
    match = re.search(rf"^{re.escape(label)} = (\S+)$", out, re.M)
    if match is None:
        raise ValueError(f"no '{label} =' line")
    return kind(match.group(1))


def _parse(req: Request, out: str) -> dict:
    """The numbers a request's output reports, from either format."""
    if req.kind == "sweep":
        if req.as_json:
            rows = json.loads(out)
        else:
            rows = [
                {key: (float(v) if v else None) for key, v in row.items()}
                for row in csv.DictReader(io.StringIO(out))
            ]
        return {"rows": rows}
    if req.as_json:
        data = json.loads(out)
        if req.kind == "spectrum":
            return {"blocks": [(b["overlap"], b["multiplicity"]) for b in data["blocks"]],
                    "d": (data["d1"], data["d2"]), "swapped": data["swapped"]}
        if req.kind == "unambiguous":
            return {"q": data["total"], "branches": [b["branch"] for b in data["blocks"]]}
        if req.kind == "minerror":
            return {"p": data["total"]}
        return {"q0": data["q0"], "p0": data["p0"]}
    lines = out.splitlines()
    if req.kind == "spectrum":
        blocks = [(float(o), int(m)) for _, o, m in (ln.split() for ln in lines[1:] if ln[:1].isdigit())]
        return {"blocks": blocks,
                "d": (_text_value(out, "d1", int), _text_value(out, "d2", int)),
                "swapped": "swapped = true" in lines}
    if req.kind == "unambiguous":
        return {"q": _text_value(out, "Q_opt"),
                "branches": [ln.split()[1] for ln in lines[1:] if ln[:1].isdigit()]}
    if req.kind == "minerror":
        return {"p": _text_value(out, "P_ME")}
    return {"q0": _text_value(out, "Q0"), "p0": _text_value(out, "P0")}


class ClosedForm:
    """Seeded `qudisc` sweep/spectrum/unambiguous/minerror/bounds calls."""

    store_all_rounds = False  # outputs are text; later rounds must repeat round one

    def __init__(self, seed: int) -> None:
        self.ops = closed_form_requests(seed)

    def warm_up(self) -> None:
        seen = set()
        for req in self.ops:
            if req.kind not in seen:
                seen.add(req.kind)
                run_cli(req.argv())

    def run(self, req: Request) -> str:
        return run_cli(req.argv())

    def check(self, outputs: list, controls: bool) -> tuple[list[str], dict]:
        import reference
        from qudisc import ProblemConfig, minerror_probability, total_failure

        reference.self_test()
        errors: list[str] = []
        branches: Counter[str] = Counter()

        def fail(req, what):
            errors.append(f"{' '.join(req.argv())}: {what}")

        def check_config(req, n, q=None, p=None):
            """Q_opt / P_ME of one config against the reference, the bounds
            they must obey and the swap symmetry of the program itself."""
            ref = reference.optimum(n, req.n_a, req.n_b, req.n_c, req.eta1)
            swapped = ProblemConfig(n, req.n_c, req.n_b, req.n_a, 1.0 - req.eta1)
            if q is not None:
                branches.update(ref.branches)
                if _rel(q, ref.q_opt) > Q_REL_TOL:
                    fail(req, f"n={n} Q_opt {q!r} vs reference {ref.q_opt}")
                if q > 1.0:
                    fail(req, f"n={n} Q_opt {q!r} > 1")
                if _rel(q, total_failure(swapped).q_total) > Q_REL_TOL:
                    fail(req, f"n={n} Q_opt not symmetric under register swap")
            if p is not None:
                if _rel(p, ref.p_me) > P_REL_TOL:
                    fail(req, f"n={n} P_ME {p!r} vs reference {ref.p_me}")
                if not 0.0 <= p <= min(req.eta1, 1.0 - req.eta1):
                    fail(req, f"n={n} P_ME {p!r} outside [0, min(eta1, eta2)]")
                if _rel(p, minerror_probability(swapped).p_me) > P_REL_TOL:
                    fail(req, f"n={n} P_ME not symmetric under register swap")
            if q is not None and p is not None and p > q / 2 * (1 + Q_REL_TOL):
                fail(req, f"n={n} P_ME {p!r} > Q_opt/2 = {q / 2!r}")

        def check_limits(req, q0, p0):
            want_q0, want_p0 = reference.limits(req.n_a, req.n_b)
            if _rel(q0, want_q0) > Q_REL_TOL or _rel(p0, want_p0) > P_REL_TOL:
                fail(req, f"(Q0, P0) = ({q0!r}, {p0!r}) vs reference ({want_q0}, {want_p0})")

        for req, out in zip(self.ops, outputs):
            if out is None:
                continue  # counted as failed
            try:
                got = _parse(req, out)
            except (ValueError, KeyError, IndexError) as exc:
                fail(req, f"unparsable output: {exc}")
                continue
            if req.kind == "sweep":
                rows = got["rows"]
                if [int(r["n"]) for r in rows] != list(req.dims):
                    fail(req, "sweep rows do not cover the requested n")
                    continue
                for row in rows:
                    check_config(req, int(row["n"]), row["Q_opt"], row["P_ME"])
                    if req.n_a == req.n_c:
                        check_limits(req, row["Q0"], row["P0"])
                    elif row["Q0"] is not None:
                        fail(req, "Q0 reported for n_a != n_c")
                for prev, nxt in zip(rows, rows[1:]):
                    if nxt["Q_opt"] > prev["Q_opt"] or nxt["P_ME"] > prev["P_ME"]:
                        fail(req, f"Q_opt or P_ME increases from n={prev['n']} to n={nxt['n']}")
            elif req.kind == "spectrum":
                spec = reference.spectrum(req.n, req.n_a, req.n_b, req.n_c)
                want = [(math.sqrt(b.overlap_sq), b.multiplicity) for b in spec.blocks]
                if [m for _, m in got["blocks"]] != [m for _, m in want]:
                    fail(req, "block multiplicities differ from the reference")
                elif any(_rel(o, w) > Q_REL_TOL for (o, _), (w, _) in zip(got["blocks"], want)):
                    fail(req, "block overlaps differ from the reference")
                if tuple(got["d"]) != (min(spec.d1, spec.d2), max(spec.d1, spec.d2)):
                    fail(req, "ranks d1, d2 differ from the reference")
                if got["swapped"] != (req.n_a < req.n_c):
                    fail(req, "wrong swapped flag")
            elif req.kind == "unambiguous":
                check_config(req, req.n, q=got["q"])
                want = list(reference.optimum(req.n, req.n_a, req.n_b, req.n_c, req.eta1).branches)
                if got["branches"] != want:
                    fail(req, f"branches {got['branches']} vs reference {want}")
            elif req.kind == "minerror":
                check_config(req, req.n, p=got["p"])
            else:
                check_limits(req, got["q0"], got["p0"])
        total = sum(branches.values())
        details = {
            "round_ops": len(self.ops),
            "ops_by_kind": dict(Counter(r.kind for r in self.ops)),
            "configs_per_round": sum(len(r.dims) for r in self.ops),
            "n_a_lt_n_c": sum(r.n_a < r.n_c for r in self.ops),
            "n_a_gt_n_c": sum(r.n_a > r.n_c for r in self.ops),
            "json_share": sum(r.as_json for r in self.ops) / len(self.ops),
            "branch_share": {b: branches[b] / total for b in ("LOW", "MIDDLE", "HIGH")},
        }
        return errors[:20], details


# --- verify_grid -------------------------------------------------------------

VERIFY_ARGV = ["verify", "--max-total-dim", "1024", "--samples", "100000", "--seed", "20260826"]
# the negative control only has to break the POVM family; a fifth of the
# Monte-Carlo samples keeps the (still gating) Haar family passing at
# this seed and saves ~5 s per run
FAULT_ARGV = ["verify", "--inject-q-fault", "--max-total-dim", "1024",
              "--samples", "20000", "--seed", "20260826"]
_LINE = re.compile(r"^(PASS|FAIL|INFO) (.+?): max residual \S+ \((.*)\)$")


def expected_case_counts() -> dict[str, str]:
    """Case counts of each verify family, from the grid's definition:
    n in {2,3,4} with 1..3 copies per register under n^N <= 1024, three
    min-error priors, five POVM priors, and the exact-identity sweep over
    n in 2..6 with 1..4 copies per register."""
    configs = sum(1 for n in (2, 3, 4) for c in product((1, 2, 3), repeat=3) if n ** sum(c) <= 1024)
    blocks = sum(min(a, c) + 1 for _ in range(2, 7) for a, _b, c in product(range(1, 5), repeat=3))
    return {
        "combinatorial identities": f"{blocks} blocks",
        "6j overlap cross-check": f"{blocks} overlaps",
        "principal angles": f"{configs} configs",
        "min-error trace norm": f"{3 * configs} cases",
        "POVM certification": f"{5 * configs} cases",
        "Haar-average lemma": "4 cases, 100000 samples",
        "asymptotic bounds": "equal-copies gate",
    }


def _verify_lines(out: str) -> tuple[dict[str, tuple[str, str]], str]:
    lines = out.strip().splitlines()
    families = {}
    for line in lines[:-1]:
        match = _LINE.match(line)
        if match:
            families[match.group(2)] = (match.group(1), match.group(3))
    return families, lines[-1] if lines else ""


class _Dense:
    """Dense-oracle workloads, warmed up on the smallest config."""

    store_all_rounds = True

    def warm_up(self) -> None:
        qubit_copies_op((1, 1, 1))
        clear_caches()


class VerifyGrid(_Dense):
    """One full `qudisc verify` with its default flags per operation."""

    def __init__(self, seed: int) -> None:
        self.ops = [VERIFY_ARGV]  # the grid and its Monte-Carlo seed are fixed

    def run(self, argv: list[str]) -> str:
        return run_cli(argv)

    def check(self, outputs: list, controls: bool) -> tuple[list[str], dict]:
        errors = []
        expected = expected_case_counts()
        for out in outputs:
            if out is None:
                continue
            families, last = _verify_lines(out)
            if last != "all checks passed":
                errors.append(f"verify summary line: {last!r}")
            errors += [f"verify family {name!r} failed" for name, (status, _) in families.items()
                       if status == "FAIL"]
            for name, count in expected.items():
                status, detail = families.get(name, ("missing", ""))
                if status != "PASS" or not detail.startswith(count):
                    errors.append(f"verify family {name!r}: {status} ({detail}), expected PASS ({count} ...)")
        if not controls:
            return errors, {"expected_counts": expected}
        # negative control, once per run: building the POVMs from the
        # erratum value must fail
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qudisc.cli.main(FAULT_ARGV)
        families, last = _verify_lines(buf.getvalue())
        statuses = {name: families.get(name, ("missing", ""))[0] for name in expected}
        want = {name: "FAIL" if name == "POVM certification" else "PASS" for name in expected}
        if code != 1 or statuses != want or last != "1 check(s) failed":
            errors.append(f"--inject-q-fault: exit {code}, families {statuses}, summary {last!r}")
        return errors, {"expected_counts": expected, "fault_exit": code}


# --- qubit_copies ------------------------------------------------------------

HELSTROM_PRIORS = (0.1, 0.5, 0.9)
POVM_PRIORS = (0.1, 0.3, 0.5, 0.7, 0.9)
CAP = 1024
# every n = 2 config whose larger symmetric register holds exactly 7 copies,
# each n_a <= n_c config followed by its mirror image: an n_a < n_c config
# builds two geometries and costs about twice its mirror, so the two kinds
# alternate through the round instead of meeting the machine's slow and
# fast spells in two blocks
QUBIT_CONFIGS = tuple(
    dict.fromkeys(
        mirrored
        for c in product(range(1, 10), repeat=3)
        if 2 ** sum(c) <= CAP and max(c[0] + c[1], c[1] + c[2]) == 7 and c[0] <= c[2]
        for mirrored in (c, c[::-1])
    )
)


def qubit_copies_op(copies: tuple[int, int, int]) -> tuple:
    config = qudisc.ProblemConfig(2, *copies, 0.5)
    angles = oracle.jordan_angles(config, CAP)
    helstrom = [oracle.helstrom_probability(qudisc.ProblemConfig(2, *copies, e), CAP)
                for e in HELSTROM_PRIORS]
    reports = [oracle.certify_povm(qudisc.ProblemConfig(2, *copies, e), CAP)
               for e in POVM_PRIORS]
    return angles, helstrom, reports


class QubitCopies(_Dense):
    """Dense certification of the 27 seven-copy qubit configs, in order."""

    def __init__(self, seed: int) -> None:
        self.ops = list(QUBIT_CONFIGS)  # fixed set; the seed does not enter

    def run(self, copies: tuple[int, int, int]) -> tuple:
        return qubit_copies_op(copies)

    def check(self, outputs: list, controls: bool) -> tuple[list[str], dict]:
        import reference

        errors = []
        for copies, out in zip(self.ops * (len(outputs) // len(self.ops)), outputs):
            if out is None:
                continue
            angles, helstrom, reports = out
            spec = reference.spectrum(2, *copies)
            want = [(math.sqrt(b.overlap_sq), b.multiplicity) for b in spec.blocks]
            if [m for _, m in angles] != [m for _, m in want]:
                errors.append(f"{copies}: dense block count or multiplicities {angles} vs {want}")
            elif any(abs(c - w) > DENSE_TOL for (c, _), (w, _) in zip(angles, want)):
                errors.append(f"{copies}: dense cosines {angles} vs {want}")
            for eta1, p in zip(HELSTROM_PRIORS, helstrom):
                ref = reference.optimum(2, *copies, eta1).p_me
                if abs(p - float(ref)) > DENSE_TOL:
                    errors.append(f"{copies} eta1={eta1}: dense P_ME {p!r} vs {ref}")
            for eta1, report in zip(POVM_PRIORS, reports):
                ref = reference.optimum(2, *copies, eta1).q_opt
                if not report.passed() or abs(report.failure_probability - float(ref)) > DENSE_TOL:
                    errors.append(f"{copies} eta1={eta1}: POVM {report} vs Q_opt {ref}")
        return errors[:20], {"configs": [list(c) for c in QUBIT_CONFIGS]}


WORKLOADS = {"closed_form": ClosedForm, "verify_grid": VerifyGrid, "qubit_copies": QubitCopies}
