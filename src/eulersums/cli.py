"""Command-line front end.

    eulersum expand  [options] INDEX     exact expansion into MZV atoms
    eulersum reduce  [options] INDEX     expansion + identity reduction
    eulersum verify  [options] INDEX     series vs. expansion, certified
    eulersum eval    [options] INDEX     numeric value of the defining series
    eulersum eval    --json FILE         numeric value of an expansion dump
    eulersum table-check [options] PATH  validate an identity-table file

Exit codes: 0 success/pass, 1 verification failure, 2 parse/usage error,
3 divergent index, 4 engine precondition violated, 5 no usable table with
--require-tables.  Diagnostics go to stderr; results go to stdout.
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
from .indices import ConvergenceError, EulerSumIndex, IndexParseError, parse_index, render_index
from .reduction import load_identity_table, reduce_lincomb

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DIVERGENT = 3
EXIT_ENGINE = 4
EXIT_TABLES = 5

TOL_MIN, TOL_MAX = 1e-10, 1e-3


def _err(msg: str):
    print(msg, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eulersum", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, index=True):
        sp.add_argument("--engine", choices=["t1", "t2", "auto"], default="auto")
        sp.add_argument("--table", action="append", default=[], metavar="PATH")
        sp.add_argument("--output", choices=["plain", "latex", "json"], default="plain")
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--trace", action="store_true")
        sp.add_argument("--verify-table", action="store_true")
        sp.add_argument("--require-tables", action="store_true")
        if index:
            sp.add_argument("index", nargs="?", help="index text, e.g. 'S(1,1,-3)'")

    common(sub.add_parser("expand", help="expansion into MZV atoms"))
    common(sub.add_parser("reduce", help="expansion plus identity reduction"))
    sp = sub.add_parser("verify", help="compare the series against the expansion")
    common(sp)
    sp.add_argument("--file", metavar="PATH", help="batch verify: one index per line")
    sp = sub.add_parser("eval", help="numeric evaluation")
    common(sp)
    sp.add_argument("--json", metavar="PATH", dest="json_input",
                    help="evaluate an expansion dump ('-' for stdin) instead of an index")
    sp = sub.add_parser("table-check", help="validate identity-table files")
    common(sp, index=False)
    sp.add_argument("paths", nargs="+", metavar="PATH")
    return p


def _load_tables(args) -> tuple[list, int]:
    paths = list(args.table)
    env_dir = os.environ.get("EULERSUM_TABLE_DIR")
    search = [env_dir] if env_dir else []
    tables = []
    failures = 0
    for path in paths:
        cand = path
        if not os.path.exists(cand):
            for d in search:
                alt = os.path.join(d, path)
                if os.path.exists(alt):
                    cand = alt
                    break
        try:
            table = load_identity_table(cand, verify=args.verify_table, tol=args.tol)
            for line in table.report:
                _err(line)
            if len(table) == 0:
                _err(f"{cand}: no usable entries")
            tables.append(table)
        except OSError as e:
            _err(f"{path}: cannot load table: {e}")
            failures += 1
    if args.require_tables and paths and not any(len(t) for t in tables):
        return tables, EXIT_TABLES
    return tables, EXIT_PARSE if failures else 0


def _parse_or_exit(text: str | None) -> EulerSumIndex | int:
    if not text:
        _err("missing INDEX argument")
        return EXIT_PARSE
    try:
        return parse_index(text)
    except ConvergenceError as e:
        _err(f"divergent index: {e}")
        return EXIT_DIVERGENT
    except (IndexParseError, ValueError) as e:
        _err(f"cannot parse index: {e}")
        return EXIT_PARSE


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


def _clamp_tol(args) -> float | None:
    if not (TOL_MIN <= args.tol <= TOL_MAX):
        _err(f"--tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
        return None
    return args.tol


def _emit(idx: EulerSumIndex, lc: LinComb, args, engine: str, trace=None, extra=None):
    if args.output == "json":
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
        if trace is not None and args.trace:
            doc["trace"] = trace
        if extra:
            doc.update(extra)
        print(json.dumps(doc))
    elif args.output == "latex":
        print(render_index(idx, "latex") + " = " + lc.latex())
    else:
        print(render_index(idx, "plain") + " = " + lc.render())
        if trace is not None and args.trace:
            for line in trace:
                print("  # " + line)
    if is_conditionally_convergent(idx) and args.output != "json":
        _err("note: outer exponent -1, the series converges conditionally")


def cmd_expand(args) -> int:
    if _clamp_tol(args) is None:
        return EXIT_PARSE
    idx = _parse_or_exit(args.index)
    if isinstance(idx, int):
        return idx
    try:
        lc, engine, note = _expand_with_engine(idx, args.engine)
    except (UnsupportedHypothesisError, DegreeCapError) as e:
        _err(f"engine precondition: {e}")
        return EXIT_ENGINE
    except AssertionError as e:
        _err(str(e))
        return EXIT_FAIL
    _emit(idx, lc, args, engine, extra={"note": note} if note else None)
    return EXIT_OK


def cmd_reduce(args) -> int:
    if _clamp_tol(args) is None:
        return EXIT_PARSE
    idx = _parse_or_exit(args.index)
    if isinstance(idx, int):
        return idx
    tables, code = _load_tables(args)
    if code:
        return code
    try:
        lc, engine, _ = _expand_with_engine(idx, args.engine)
    except (UnsupportedHypothesisError, DegreeCapError) as e:
        _err(f"engine precondition: {e}")
        return EXIT_ENGINE
    except AssertionError as e:
        _err(str(e))
        return EXIT_FAIL
    result = reduce_lincomb(lc, tables=tables)
    unresolved = sorted(
        {a.render() for a in result.value.atoms() if not a.li and a.depth >= 2}
    )
    extra = {"unresolved": unresolved}
    _emit(idx, result.value, args, engine, trace=result.trace, extra=extra)
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


def _verify_line(text: str, args, tables) -> tuple[int, str]:
    """(exit code, report) of one index; an error ends only this line."""
    try:
        return _verify_one(text, args, tables)
    except ConvergenceError as e:
        code, msg = EXIT_DIVERGENT, f"divergent index: {e}"
    except (UnsupportedHypothesisError, DegreeCapError) as e:
        code, msg = EXIT_ENGINE, f"engine precondition: {e}"
    except (IndexParseError, ValueError) as e:
        code, msg = EXIT_PARSE, f"cannot parse index: {e}"
    except AssertionError as e:
        code, msg = EXIT_FAIL, str(e)
    return code, f"ERROR (exit {code}): {msg}"


def cmd_verify(args) -> int:
    tol = _clamp_tol(args)
    if tol is None:
        return EXIT_PARSE
    tables, code = _load_tables(args)
    if code:
        return code
    texts = []
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as f:
                texts = [line.strip() for line in f if line.strip() and not line.startswith("#")]
        except OSError as e:
            _err(f"cannot read {args.file}: {e}")
            return EXIT_PARSE
    elif args.index:
        texts = [args.index]
    else:
        _err("missing INDEX argument (or --file)")
        return EXIT_PARSE
    worst = EXIT_OK
    for text in texts:
        code, report = _verify_line(text, args, tables)
        print(f"== {text}")
        print(report)
        worst = max(worst, code)
    return worst


def cmd_eval(args) -> int:
    tol = _clamp_tol(args)
    if tol is None:
        return EXIT_PARSE
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
            _err(f"cannot read {args.json_input}: {e}")
            return EXIT_PARSE
        except (KeyError, ValueError) as e:
            _err(f"cannot parse expansion dump: {e}")
            return EXIT_PARSE
        res = numerics.eval_lincomb_best(lc, tol)
        print(f"{float(res.value):.15g}  bound={res.tail_bound:.3g}  N={res.terms_used}")
        return EXIT_OK
    idx = _parse_or_exit(args.index)
    if isinstance(idx, int):
        return idx
    res = numerics.eval_euler_sum_best(idx, tol)
    if res.tail_bound > tol:
        _err(f"capacity: achieved bound {res.tail_bound:.3g} above tol {tol:g}")
    print(f"{float(res.value):.15g}  bound={res.tail_bound:.3g}  N={res.terms_used}")
    return EXIT_OK


def cmd_table_check(args) -> int:
    tol = _clamp_tol(args)
    if tol is None:
        return EXIT_PARSE
    any_ok = False
    for path in args.paths:
        try:
            table = load_identity_table(path, verify=True, tol=tol)
        except OSError as e:
            _err(f"{path}: {e}")
            continue
        for line in table.report:
            _err(line)
        print(f"{path}: {len(table)} accepted, {len(table.report)} rejected, "
              f"max weight {table.max_weight}")
        any_ok = any_ok or len(table) > 0
    return EXIT_OK if any_ok else EXIT_TABLES


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_OK
    handlers = {
        "expand": cmd_expand,
        "reduce": cmd_reduce,
        "verify": cmd_verify,
        "eval": cmd_eval,
        "table-check": cmd_table_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
