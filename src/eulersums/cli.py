"""Command-line front end.

    eulersum expand  [--engine E] [--output O] INDEX
        exact expansion into MZV atoms
    eulersum reduce  [--engine E] [--output O] [--trace] [--tol T]
                     [--table PATH]... [--verify-table] [--require-tables] INDEX
        expansion + identity reduction
    eulersum verify  [--engine E] [--tol T] [--table PATH]... [--verify-table]
                     [--require-tables] (INDEX | --file PATH)
        series vs. expansion, certified
    eulersum eval    [--tol T] (INDEX | --json FILE)
        numeric value of the defining series, or of an expansion dump
    eulersum table-check [--tol T] PATH...
        validate identity-table files

E is t1, t2 or auto (default auto); O is plain, latex or json (default
plain); T lies in [1e-10, 1e-3] (default 1e-8).

Exit codes: 0 success/pass, 1 verification failure, 2 parse/usage error
(also an unreadable or non-UTF-8 table or batch file, or an option the
command does not take), 3 divergent index, 4 engine precondition violated,
5 no usable table with --require-tables (or in table-check).  Diagnostics go
to stderr; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import numerics
from .algebra import LinComb
from .expansion import (
    UnsupportedHypothesisError,
    DegreeCapError,
    expand_t1,
    expand_t2,
    is_conditionally_convergent,
    linearize,
)
from .indices import ConvergenceError, EulerSumIndex, parse_index, render_index
from .reduction import load_identity_table, reduce_lincomb

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DIVERGENT = 3
EXIT_ENGINE = 4
EXIT_TABLES = 5

TOL_MIN, TOL_MAX = 1e-10, 1e-3


class UsageError(Exception):
    """Bad input that its message already explains (exit 2)."""


# Exit code and message prefix of each error that ends a command, or one
# line of a verify batch.  The first matching type wins, so the subclasses
# of ValueError come before it.
_FAILURES = {
    UsageError: (EXIT_PARSE, ""),
    ConvergenceError: (EXIT_DIVERGENT, "divergent index: "),
    UnsupportedHypothesisError: (EXIT_ENGINE, "engine precondition: "),
    DegreeCapError: (EXIT_ENGINE, "engine precondition: "),
    ValueError: (EXIT_PARSE, "cannot parse index: "),
    AssertionError: (EXIT_FAIL, ""),
}

# What opening and decoding a text file that cannot be read raises.
_UNREADABLE = (OSError, UnicodeDecodeError)


def _failure(e: Exception) -> tuple[int, str]:
    """The exit code and message of an error of a ``_FAILURES`` type."""
    code, prefix = next(v for t, v in _FAILURES.items() if isinstance(e, t))
    return code, prefix + str(e)


def _err(msg: str):
    print(msg, file=sys.stderr)


def _index(text: str | None) -> EulerSumIndex:
    if not text:
        raise UsageError("missing INDEX argument")
    return parse_index(text)


def _load_table(path: str, shown: str, verify: bool, tol: float):
    """The identity table at ``path``, its rejected lines on stderr; None,
    after "``shown``: reason" on stderr, if the file cannot be read."""
    try:
        table = load_identity_table(path, verify=verify, tol=tol)
    except _UNREADABLE as e:
        _err(f"{shown}: {e}")
        return None
    for line in table.report:
        _err(line)
    return table


def _load_tables(args) -> tuple[list, int]:
    """The ``--table`` tables, and the exit code that ends the command (0 to go on)."""
    env_dir = os.environ.get("EULERSUM_TABLE_DIR")
    tables = []
    for path in args.table:
        cand = path
        if env_dir and not os.path.exists(path) and os.path.exists(os.path.join(env_dir, path)):
            cand = os.path.join(env_dir, path)
        table = _load_table(cand, f"{path}: cannot load table", args.verify_table, args.tol)
        if table is not None:
            if len(table) == 0:
                _err(f"{cand}: no usable entries")
            tables.append(table)
    if args.require_tables and args.table and not any(len(t) for t in tables):
        return tables, EXIT_TABLES
    return tables, EXIT_PARSE if len(tables) < len(args.table) else EXIT_OK


def _expand_with_engine(idx: EulerSumIndex, engine: str):
    """Returns (lincomb, engine_label, note)."""
    if engine == "t2":
        return expand_t2(idx), "t2", None
    lc = expand_t1(idx)
    if engine == "auto":
        try:
            lc2 = expand_t2(idx)
        except (UnsupportedHypothesisError, DegreeCapError):
            return lc, "t1", None
        if linearize(lc2) != lc:
            raise AssertionError(
                f"engine disagreement on {idx}: t1 differs from the linearized t2 expansion"
            )
        return lc, "auto(t1, t2 checked)", "engines agree exactly (t1 equals linearized t2)"
    return lc, "t1", None


def _emit(idx: EulerSumIndex, lc: LinComb, output: str, engine: str, trace=None, extra=None):
    if output == "json":
        doc = {
            "index": idx.to_json(),
            "weight": idx.weight,
            "degree": idx.degree,
            "terms": lc.to_json_terms(),
            "term_count": len(lc),
            "engine": engine,
        }
        if is_conditionally_convergent(idx):
            doc["convergence"] = "conditional"
        if trace is not None:
            doc["trace"] = trace
        if extra:
            doc.update(extra)
        print(json.dumps(doc))
    elif output == "latex":
        print(render_index(idx, "latex") + " = " + lc.latex())
    else:
        print(render_index(idx, "plain") + " = " + lc.render())
        for line in trace or ():
            print("  # " + line)
    if is_conditionally_convergent(idx) and output != "json":
        _err("note: outer exponent -1, the series converges conditionally")


def cmd_expand(args) -> int:
    idx = _index(args.index)
    lc, engine, note = _expand_with_engine(idx, args.engine)
    _emit(idx, lc, args.output, engine, extra={"note": note} if note else None)
    return EXIT_OK


def cmd_reduce(args) -> int:
    idx = _index(args.index)
    tables, code = _load_tables(args)
    if code:
        return code
    lc, engine, _ = _expand_with_engine(idx, args.engine)
    result = reduce_lincomb(lc, tables=tables)
    unresolved = sorted(
        {a.render() for a in result.value.atoms() if not a.li and a.depth >= 2}
    )
    trace = result.trace if args.trace else None
    _emit(idx, result.value, args.output, engine, trace=trace, extra={"unresolved": unresolved})
    if unresolved and args.output == "plain":
        _err("unresolved atoms (left as basis elements): " + ", ".join(unresolved))
    return EXIT_OK


def _verify_one(text: str, args, tables) -> tuple[int, str]:
    tol = args.tol
    idx = parse_index(text)
    lhs = numerics.eval_euler_sum_best(idx, tol)
    lc, engine, _ = _expand_with_engine(idx, args.engine)
    rhs = numerics.eval_lincomb_best(lc, tol)
    diff = abs(float(lhs.value) - float(rhs.value))
    budget = lhs.tail_bound + rhs.tail_bound + tol
    ok = diff <= budget
    lines = [
        f"series    = {float(lhs.value):.15g}  (bound {lhs.tail_bound:.3g}, N={lhs.terms_used})",
        f"expansion = {float(rhs.value):.15g}  (bound {rhs.tail_bound:.3g}; engine {engine})",
        f"discrepancy {diff:.3g} vs budget {budget:.3g}",
    ]
    if tables:
        red = reduce_lincomb(lc, tables=tables).value
        rr = numerics.eval_lincomb_best(red, tol)
        d2 = abs(float(lhs.value) - float(rr.value))
        b2 = lhs.tail_bound + rr.tail_bound + tol
        ok = ok and d2 <= b2
        lines.append(f"reduction = {float(rr.value):.15g}  (bound {rr.tail_bound:.3g}; discrepancy {d2:.3g} vs {b2:.3g})")
    lines.append("PASS" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_FAIL), "\n".join(lines)


def cmd_verify(args) -> int:
    tables, code = _load_tables(args)
    if code:
        return code
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as f:
                texts = [line.strip() for line in f if line.strip() and not line.startswith("#")]
        except _UNREADABLE as e:
            raise UsageError(f"cannot read {args.file}: {e}")
    elif args.index:
        texts = [args.index]
    else:
        raise UsageError("missing INDEX argument (or --file)")
    worst = EXIT_OK
    for text in texts:
        try:  # an error ends only this line
            code, report = _verify_one(text, args, tables)
        except tuple(_FAILURES) as e:
            code, msg = _failure(e)
            report = f"ERROR (exit {code}): {msg}"
        print(f"== {text}")
        print(report)
        worst = max(worst, code)
    return worst


def cmd_eval(args) -> int:
    if args.json_input:
        try:
            if args.json_input == "-":
                raw = sys.stdin.read()
            else:
                with open(args.json_input, "r", encoding="utf-8") as f:
                    raw = f.read()
            doc = json.loads(raw)
            lc = LinComb.from_json_terms(doc["terms"])
        except OSError as e:
            raise UsageError(f"cannot read {args.json_input}: {e}")
        except (KeyError, ValueError) as e:
            raise UsageError(f"cannot parse expansion dump: {e}")
        res = numerics.eval_lincomb_best(lc, args.tol)
    else:
        res = numerics.eval_euler_sum_best(_index(args.index), args.tol)
        if res.tail_bound > args.tol:
            _err(f"capacity: achieved bound {res.tail_bound:.3g} above tol {args.tol:g}")
    print(f"{float(res.value):.15g}  bound={res.tail_bound:.3g}  N={res.terms_used}")
    return EXIT_OK


def cmd_table_check(args) -> int:
    any_ok = False
    for path in args.paths:
        table = _load_table(path, path, verify=True, tol=args.tol)
        if table is not None:
            print(f"{path}: {len(table)} accepted, {len(table.report)} rejected, "
                  f"max weight {table.max_weight}")
            any_ok = any_ok or len(table) > 0
    return EXIT_OK if any_ok else EXIT_TABLES


# Every argument a subcommand may declare, by name.
_ARGUMENTS = {
    "--engine": dict(choices=["t1", "t2", "auto"], default="auto"),
    "--table": dict(action="append", default=[], metavar="PATH"),
    "--output": dict(choices=["plain", "latex", "json"], default="plain"),
    "--tol": dict(type=float, default=1e-8),
    "--trace": dict(action="store_true"),
    "--verify-table": dict(action="store_true"),
    "--require-tables": dict(action="store_true"),
    "index": dict(nargs="?", help="index text, e.g. 'S(1,1,-3)'"),
    "--file": dict(metavar="PATH", help="batch verify: one index per line"),
    "--json": dict(metavar="PATH", dest="json_input",
                   help="evaluate an expansion dump ('-' for stdin) instead of an index"),
    "paths": dict(nargs="+", metavar="PATH"),
}

# Each subcommand: its handler, its help, and exactly the arguments it reads.
_COMMANDS = {
    "expand": (cmd_expand, "expansion into MZV atoms", ("--engine", "--output", "index")),
    "reduce": (cmd_reduce, "expansion plus identity reduction",
               ("--engine", "--table", "--output", "--tol", "--trace", "--verify-table",
                "--require-tables", "index")),
    "verify": (cmd_verify, "compare the series against the expansion",
               ("--engine", "--table", "--tol", "--verify-table", "--require-tables", "index",
                "--file")),
    "eval": (cmd_eval, "numeric evaluation", ("--tol", "index", "--json")),
    "table-check": (cmd_table_check, "validate identity-table files", ("--tol", "paths")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eulersum", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (handler, text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(handler=handler)
        for argument in arguments:
            sp.add_argument(argument, **_ARGUMENTS[argument])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_OK
    try:
        if "tol" in vars(args) and not TOL_MIN <= args.tol <= TOL_MAX:
            raise UsageError(f"--tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
        return args.handler(args)
    except tuple(_FAILURES) as e:
        code, msg = _failure(e)
        _err(msg)
        return code


if __name__ == "__main__":
    sys.exit(main())
