"""Command-line frontend.

Subcommands: spectrum | unambiguous | minerror | bounds | verify | sweep,
one row each in ``_COMMANDS``: name, help, handler and flag groups (argparse
parent parsers, so a shared flag is declared once).  A handler returns an
``_Output``; ``main`` alone renders it, names each refusal once on stderr
and picks the exit code: 0 success, 1 verification failure, 2 flag error,
3 precondition error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from typing import NamedTuple

from .discrimination import asymptotic_bounds, minerror_probability, optimal_totals, total_failure
from .errors import PreconditionError
from .spectrum import ProblemConfig, canonicalize, jordan_spectrum
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_FLAG_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_IO_ERROR = 4


class _Output(NamedTuple):
    """A handler's result: the payload and its text layout for :func:`_emit`,
    the refusals to name on stderr (exit 3) and whether a check failed (exit 1)."""

    payload: object
    columns: list | tuple = ()
    footer: list | tuple = ()
    refused: list | tuple = ()
    failed: bool = False


def _text(value) -> str:
    """One value as printed in a text table, footer line or CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _emit(out, as_json: bool, payload, columns=(), footer=()) -> None:
    """Write ``payload`` as JSON, or as text: a table of ``payload["blocks"]``
    under ``(header, key)`` columns, then one ``label = value`` line per
    ``(label, value)`` footer item; a str footer item is a line as it stands."""
    if as_json:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    lines = []
    if columns:
        lines.append(" ".join(header for header, _ in columns))
        lines += [" ".join(_text(block[key]) for _, key in columns) for block in payload["blocks"]]
    lines += [item if isinstance(item, str) else f"{item[0]} = {_text(item[1])}"
              for item in footer]
    out.write("\n".join(lines) + "\n")


def _config_from_args(args: argparse.Namespace) -> ProblemConfig:
    return ProblemConfig(args.dim, args.na, args.nb, args.nc, getattr(args, "eta1", 0.5))


def cmd_spectrum(args) -> _Output:
    cfg = _config_from_args(args)
    canonical, swapped = canonicalize(cfg)
    spec = jordan_spectrum(canonical)
    keys = ("k", "overlap", "multiplicity")  # the exact overlap_sq_ratio stays out
    payload = {"config": vars(cfg),
               "blocks": [{key: getattr(b, key) for key in keys} for b in spec.blocks],
               "d1": spec.d1, "d2": spec.d2, "gap": spec.d2 - spec.d1, "swapped": swapped}
    return _Output(payload, [(key, key) for key in keys],
                   [("d1", spec.d1), ("d2", spec.d2), ("d2 - d1", payload["gap"]),
                    ("swapped", swapped)])


def cmd_unambiguous(args) -> _Output:
    cfg = _config_from_args(args)
    result = total_failure(cfg)
    payload = {"config": vars(cfg),
               "blocks": [vars(b) | {"branch": b.branch.value} for b in result.blocks],
               "total": result.q_total, "swapped": result.swapped}
    columns = [(key, key) for key in ("k", "branch", "q1", "q2", "c_k", "d_k")]
    return _Output(payload, columns + [("Q_k", "q_block"), ("multiplicity", "multiplicity")],
                   [("Q_opt", result.q_total), ("swapped", result.swapped)])


def cmd_minerror(args) -> _Output:
    cfg = _config_from_args(args)
    result = minerror_probability(cfg)
    payload = {"config": vars(cfg), "blocks": [vars(b) for b in result.blocks],
               "residual_eigenvalue": result.residual_eigenvalue,
               "residual_multiplicity": result.residual_multiplicity,
               "total": result.p_me, "swapped": result.swapped}
    residual = f"{_text(result.residual_eigenvalue)} (multiplicity {result.residual_multiplicity})"
    return _Output(payload,
                   [(key, key) for key in ("k", "lambda_plus", "lambda_minus", "multiplicity")],
                   [("residual eigenvalue", residual), ("P_ME", result.p_me),
                    ("swapped", result.swapped)])


def cmd_bounds(args) -> _Output:
    cfg = _config_from_args(args)
    bounds = asymptotic_bounds(cfg)
    footer = [(name, value) for name, value in (("Q0", bounds.q0), ("P0", bounds.p0))
              if value is not None]
    refused = list(bounds.refused)
    if cfg.n_a != cfg.n_c:
        footer.append("Q0 undefined: requires n_a = n_c")
        refused.insert(0, "Q0 requires n_a = n_c")
    return _Output({"config": vars(cfg), "q0": bounds.q0, "p0": bounds.p0},
                   footer=footer + list(bounds.refused), refused=refused)


def cmd_verify(args) -> _Output:
    if args.samples < verify_mod.HAAR_MIN_SAMPLES:
        raise ValueError(f"--samples must be at least {verify_mod.HAAR_MIN_SAMPLES}")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if next(verify_mod.certification_grid(args.max_total_dim), None) is None:
        raise ValueError(f"--max-total-dim {args.max_total_dim} leaves no grid config")
    results = verify_mod.run_all(max_total_dim=args.max_total_dim, samples=args.samples,
                                 seed=args.seed, inject_q_fault=args.inject_q_fault)
    failed = [r for r in results if not r.passed]
    summary = "all checks passed" if not failed else f"{len(failed)} check(s) failed"
    return _Output(None, footer=[r.line() for r in results] + [summary], failed=bool(failed))


def cmd_sweep(args) -> _Output:
    keys = ("n", "n_A", "n_B", "n_C", "eta1", "Q_opt", "P_ME", "Q0", "P0")
    if args.dim_min < 2 or args.dim_max < args.dim_min:
        raise ValueError("need 2 <= dim-min <= dim-max")
    # Q0 and P0 are the n -> infinity limits: one evaluation serves every row
    bounds = asymptotic_bounds(ProblemConfig(args.dim_min, args.na, args.nb, args.nc, args.eta1))
    refused, rows = list(bounds.refused), []
    for n in range(args.dim_min, args.dim_max + 1):
        q_opt, p_me, row_refused = optimal_totals(
            ProblemConfig(n, args.na, args.nb, args.nc, args.eta1))
        refused += row_refused
        values = (n, args.na, args.nb, args.nc, args.eta1, q_opt, p_me, bounds.q0, bounds.p0)
        rows.append(dict(zip(keys, values)))
    csv = [] if args.json else [",".join(keys)] + [
        ",".join(_text(row[key]) for key in keys) for row in rows]
    return _Output(rows, footer=csv, refused=refused)


# the flag groups, as argparse parent parsers: each shared flag is declared once
_DIM, _COPIES, _ETA1, _JSON, _OUT, _BOUNDS_DIM, _VERIFY, _DIM_RANGE = (
    argparse.ArgumentParser(add_help=False) for _ in range(8))
_DIM.add_argument("--dim", "-n", type=int, required=True, help="qudit dimension (>= 2)")
_COPIES.add_argument("--na", type=int, required=True, help="copies in program register A")
_COPIES.add_argument("--nb", type=int, required=True, help="copies in data register B")
_COPIES.add_argument("--nc", type=int, required=True, help="copies in program register C")
_ETA1.add_argument("--eta1", type=float, default=0.5,
                   help="prior of the first hypothesis (eta2 = 1 - eta1)")
_JSON.add_argument("--json", action="store_true", help="emit JSON instead of text")
_OUT.add_argument("--out", help="write output to this path instead of stdout")
_BOUNDS_DIM.add_argument("--dim", "-n", type=int, default=2,
                         help="qudit dimension (unused by the asymptotic bounds)")
_VERIFY.add_argument("--max-total-dim", type=int, default=1024,
                     help="skip configs whose full tensor space exceeds this")
_VERIFY.add_argument("--samples", type=int, default=100_000,
                     help="Monte-Carlo samples per Haar stream (at least 1000)")
_VERIFY.add_argument("--seed", type=int, default=20260826, help="Haar seed (>= 0)")
_VERIFY.add_argument("--inject-q-fault", action="store_true",
                     help="negative control: build POVMs from the erratum "
                          "q1 = O_k high branch (must fail)")
_DIM_RANGE.add_argument("--dim-min", type=int, default=2, help="first qudit dimension (>= 2)")
_DIM_RANGE.add_argument("--dim-max", type=int, required=True, help="last qudit dimension")

# one row per subcommand: name, help, handler, and its flag groups in usage order
_COMMANDS = (
    ("spectrum", "Jordan-block overlaps and multiplicities", cmd_spectrum,
     (_DIM, _COPIES, _JSON, _OUT)),
    ("unambiguous", "optimal unambiguous discrimination", cmd_unambiguous,
     (_DIM, _COPIES, _ETA1, _JSON, _OUT)),
    ("minerror", "optimal minimum-error discrimination", cmd_minerror,
     (_DIM, _COPIES, _ETA1, _JSON, _OUT)),
    ("bounds", "large-dimension bounds Q0 and P0 (even priors)", cmd_bounds,
     (_BOUNDS_DIM, _COPIES, _JSON, _OUT)),
    ("verify", "run the oracle certification grid", cmd_verify, (_VERIFY, _OUT)),
    ("sweep", "CSV/JSON sweep of Q_opt, P_ME, Q0, P0 over n", cmd_sweep,
     (_DIM_RANGE, _COPIES, _ETA1, _JSON, _OUT)),
)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the subcommand parsers it hands
    off to, each with its handler as the ``handler`` default."""
    description = "Optimal programmable discrimination of two unknown qudit states"
    parser = argparse.ArgumentParser(prog="qudisc", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, handler, groups in _COMMANDS:
        sub.add_parser(name, help=helptext, parents=groups).set_defaults(handler=handler)
    return parser, sub.choices


_PARSER, _SUBPARSERS = build_parser()


def _check_writable(path: str) -> None:
    """Raise ``OSError`` unless ``path`` can be written: it is not empty,
    its directory exists and is writable, and an existing file is
    writable.  Opens and truncates nothing."""
    parent = os.path.dirname(path) or "."
    if not path or not os.path.isdir(parent):  # an empty path names no file
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path and parent)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = path if os.path.exists(path) else parent
    if not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  An unwritable ``--out`` path fails before any
    work; the output is rendered in memory first, so a rejected flag or a
    raised precondition error leaves an existing ``--out`` file as it was.
    A named subcommand's flags are parsed once, by its own parser: an
    unrecognized one is reported under that parser's usage line."""
    argv = sys.argv[1:] if argv is None else argv
    subparser = _SUBPARSERS.get(argv[0]) if argv else None
    # no command, -h or an unknown command: the top-level parser reports it
    args = _PARSER.parse_args(argv) if subparser is None else subparser.parse_args(argv[1:])
    if args.out is not None:
        try:
            _check_writable(args.out)
        except OSError as exc:
            print(f"error: cannot open output file: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
    try:
        result = args.handler(args)
    except (ValueError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_FLAG_ERROR
    rendered = io.StringIO()
    _emit(rendered, getattr(args, "json", False), result.payload, result.columns, result.footer)
    for error in dict.fromkeys(result.refused):  # each once, however many rows lost it
        print(f"error: {error}", file=sys.stderr)
    code = (EXIT_VERIFY_FAILED if result.failed
            else EXIT_PRECONDITION if result.refused else EXIT_OK)
    if args.out is None:
        sys.stdout.write(rendered.getvalue())
        return code
    try:
        with open(args.out, "w", newline="\n") as out:
            out.write(rendered.getvalue())
    except OSError as exc:
        print(f"error: cannot open output file: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
