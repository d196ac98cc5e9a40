"""Command-line frontend.

Subcommands: spectrum | unambiguous | minerror | bounds | verify | sweep.
Exit codes: 0 success, 1 verification failure, 2 flag error,
3 precondition error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from .discrimination import asymptotic_bounds, minerror_probability, total_failure
from .errors import PreconditionError
from .spectrum import ProblemConfig, canonicalize, jordan_spectrum
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_FLAG_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_IO_ERROR = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _config_dict(cfg: ProblemConfig) -> dict:
    return {
        "n": cfg.n, "n_a": cfg.n_a, "n_b": cfg.n_b, "n_c": cfg.n_c,
        "eta1": cfg.eta1, "eta2": cfg.eta2,
    }


def _config_from_args(args: argparse.Namespace) -> ProblemConfig:
    eta1 = getattr(args, "eta1", 0.5)
    return ProblemConfig(args.dim, args.na, args.nb, args.nc, eta1)


def _emit(out, payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(text_lines) + "\n")


def cmd_spectrum(args, out) -> int:
    cfg = _config_from_args(args)
    canonical, swapped = canonicalize(cfg)
    spec = jordan_spectrum(canonical)
    payload = {
        "config": _config_dict(cfg),
        "blocks": [
            {"k": b.k, "overlap": b.overlap, "multiplicity": b.multiplicity}
            for b in spec.blocks
        ],
        "d1": spec.d1, "d2": spec.d2, "gap": spec.d2 - spec.d1,
        "swapped": swapped,
    }
    lines = ["k overlap multiplicity"]
    lines += [f"{b.k} {_fmt(b.overlap)} {b.multiplicity}" for b in spec.blocks]
    lines += [
        f"d1 = {spec.d1}", f"d2 = {spec.d2}", f"d2 - d1 = {spec.d2 - spec.d1}",
        f"swapped = {str(swapped).lower()}",
    ]
    _emit(out, payload, args.json, lines)
    return EXIT_OK


def cmd_unambiguous(args, out) -> int:
    cfg = _config_from_args(args)
    result = total_failure(cfg)
    payload = {
        "config": _config_dict(cfg),
        "blocks": [
            {
                "k": b.k, "branch": b.branch.value, "q1": b.q1, "q2": b.q2,
                "c_k": b.c_k, "d_k": b.d_k, "q_block": b.q_block,
                "multiplicity": b.multiplicity,
            }
            for b in result.blocks
        ],
        "total": result.q_total,
        "swapped": result.swapped,
    }
    lines = ["k branch q1 q2 c_k d_k Q_k multiplicity"]
    lines += [
        f"{b.k} {b.branch.value} {_fmt(b.q1)} {_fmt(b.q2)} {_fmt(b.c_k)} "
        f"{_fmt(b.d_k)} {_fmt(b.q_block)} {b.multiplicity}"
        for b in result.blocks
    ]
    lines += [f"Q_opt = {_fmt(result.q_total)}", f"swapped = {str(result.swapped).lower()}"]
    _emit(out, payload, args.json, lines)
    return EXIT_OK


def cmd_minerror(args, out) -> int:
    cfg = _config_from_args(args)
    result = minerror_probability(cfg)
    payload = {
        "config": _config_dict(cfg),
        "blocks": [
            {
                "k": b.k, "lambda_plus": b.lambda_plus,
                "lambda_minus": b.lambda_minus, "multiplicity": b.multiplicity,
            }
            for b in result.blocks
        ],
        "residual_eigenvalue": result.residual_eigenvalue,
        "residual_multiplicity": result.residual_multiplicity,
        "total": result.p_me,
        "swapped": result.swapped,
    }
    lines = ["k lambda_plus lambda_minus multiplicity"]
    lines += [
        f"{b.k} {_fmt(b.lambda_plus)} {_fmt(b.lambda_minus)} {b.multiplicity}"
        for b in result.blocks
    ]
    lines += [
        f"residual eigenvalue = {_fmt(result.residual_eigenvalue)} "
        f"(multiplicity {result.residual_multiplicity})",
        f"P_ME = {_fmt(result.p_me)}",
        f"swapped = {str(result.swapped).lower()}",
    ]
    _emit(out, payload, args.json, lines)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    cfg = _config_from_args(args)
    bounds = asymptotic_bounds(cfg)
    payload = {"config": _config_dict(cfg), "q0": bounds.q0, "p0": bounds.p0}
    lines = [f"P0 = {_fmt(bounds.p0)}"]
    if bounds.q0 is None:
        lines.append("Q0 undefined: requires n_a = n_c")
    else:
        lines.insert(0, f"Q0 = {_fmt(bounds.q0)}")
    _emit(out, payload, args.json, lines)
    if bounds.q0 is None:
        print("error: Q0 requires n_a = n_c", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_verify(args, out) -> int:
    results = verify_mod.run_all(
        max_total_dim=args.max_total_dim,
        samples=args.samples,
        seed=args.seed,
        inject_q_fault=args.inject_q_fault,
    )
    for result in results:
        out.write(result.line() + "\n")
    failed = [r for r in results if r.gating and not r.passed]
    out.write(("all checks passed" if not failed else f"{len(failed)} check(s) failed") + "\n")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


@dataclass(frozen=True)
class SweepRequest:
    dim_min: int
    dim_max: int
    n_a: int
    n_b: int
    n_c: int
    eta1: float
    as_json: bool

    def __post_init__(self) -> None:
        if self.dim_min < 2 or self.dim_max < self.dim_min:
            raise ValueError("need 2 <= dim-min <= dim-max")


def _sweep_rows(req: SweepRequest) -> list[dict]:
    rows = []
    for n in range(req.dim_min, req.dim_max + 1):
        cfg = ProblemConfig(n, req.n_a, req.n_b, req.n_c, req.eta1)
        spectrum = jordan_spectrum(canonicalize(cfg)[0])
        bounds = asymptotic_bounds(cfg)
        rows.append(
            {
                "n": n, "n_A": req.n_a, "n_B": req.n_b, "n_C": req.n_c,
                "eta1": req.eta1,
                "Q_opt": total_failure(cfg, spectrum).q_total,
                "P_ME": minerror_probability(cfg, spectrum).p_me,
                "Q0": bounds.q0,
                "P0": bounds.p0,
            }
        )
    return rows


def cmd_sweep(args, out) -> int:
    req = SweepRequest(args.dim_min, args.dim_max, args.na, args.nb, args.nc,
                       args.eta1, args.json)
    rows = _sweep_rows(req)
    if req.as_json:
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    out.write("n,n_A,n_B,n_C,eta1,Q_opt,P_ME,Q0,P0\n")
    for row in rows:
        q0 = "" if row["Q0"] is None else _fmt(row["Q0"])
        out.write(
            f"{row['n']},{row['n_A']},{row['n_B']},{row['n_C']},{_fmt(row['eta1'])},"
            f"{_fmt(row['Q_opt'])},{_fmt(row['P_ME'])},{q0},{_fmt(row['P0'])}\n"
        )
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser, with_dim: bool = True,
                      dim_default: int | None = None, with_eta: bool = True) -> None:
    if with_dim:
        if dim_default is None:
            parser.add_argument("--dim", "-n", type=int, required=True,
                                help="qudit dimension (>= 2)")
        else:
            parser.add_argument("--dim", "-n", type=int, default=dim_default,
                                help="qudit dimension (unused by the asymptotic bounds)")
    parser.add_argument("--na", type=int, required=True, help="copies in program register A")
    parser.add_argument("--nb", type=int, required=True, help="copies in data register B")
    parser.add_argument("--nc", type=int, required=True, help="copies in program register C")
    if with_eta:
        parser.add_argument("--eta1", type=float, default=0.5,
                            help="prior of the first hypothesis (eta2 = 1 - eta1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudisc",
        description="Optimal programmable discrimination of two unknown qudit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("spectrum", "Jordan-block overlaps and multiplicities"),
        ("unambiguous", "optimal unambiguous discrimination"),
        ("minerror", "optimal minimum-error discrimination"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_config_flags(p, with_eta=(name != "spectrum"))
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("bounds", help="large-dimension bounds Q0 and P0 (even priors)")
    _add_config_flags(p, dim_default=2, with_eta=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("verify", help="run the oracle certification grid")
    p.add_argument("--max-total-dim", type=int, default=1024,
                   help="skip configs whose full tensor space exceeds this")
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte-Carlo samples for the Haar-average check")
    p.add_argument("--seed", type=int, default=20260826)
    p.add_argument("--inject-q-fault", action="store_true",
                   help="negative control: build POVMs from the erratum "
                        "q1 = O_k high branch (must fail)")
    p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("sweep", help="CSV/JSON sweep of Q_opt, P_ME, Q0, P0 over n")
    p.add_argument("--dim-min", type=int, default=2)
    p.add_argument("--dim-max", type=int, required=True)
    _add_config_flags(p, with_dim=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "unambiguous": cmd_unambiguous,
    "minerror": cmd_minerror,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sink = open(args.out, "w", newline="\n") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot open output file: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        with sink as out:
            return _HANDLERS[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG_ERROR
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
