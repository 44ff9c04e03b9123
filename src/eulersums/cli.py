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

Exit codes: 0 success/pass; 1 verification failure, t1 and t2 disagreeing
under auto ("engine disagreement on"), or a closed stdout; 2 text that does
not parse ("cannot parse index: "), or a usage error: no INDEX, INDEX with
--file or --json, an option the command does not take, an unreadable or
non-UTF-8 table or batch file, a batch with no index, a dump of the wrong
shape; 3 "divergent index: "; 4 "engine precondition: " for the partition,
step and Hoelder word caps, eval's series cap and a depth2_odd or alt_depth1
rewrite of an atom whose weight - 1 is above the step cap, or "cannot print
result: " for a result or refusal with an integer of more digits than the
interpreter prints (4300 by default); 5 no usable table with
--require-tables, given a --table or not, or in table-check.  Diagnostics go
to stderr; results go to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys

from .indices import SUM_TOL_FLOOR, TOL_MAX, ConvergenceError, EulerSumIndex, IndexParseError, Refusal, parse_index, render_index

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DIVERGENT = 3
EXIT_ENGINE = 4
EXIT_TABLES = 5


# Every engine name is imported in the function that calls it, so start-up
# compiles no engine.  The commands reach these four through this module's
# globals, where a tracer can wrap them; each imports its engine when called.
def expand_t1(idx):
    from .expansion import expand_t1
    return expand_t1(idx)


def expand_t2(idx):
    from .expansion import expand_t2
    return expand_t2(idx)


def reduce_lincomb(lc, tables):
    from .reduction import reduce_lincomb
    return reduce_lincomb(lc, tables)


def load_identity_table(path, verify, tol):
    from .reduction import load_identity_table
    return load_identity_table(path, verify, tol)


class UsageError(Exception):
    """Bad input that its message already explains (exit 2)."""


class OutputLimitError(Exception):
    """A result that holds an integer too long to print (exit 4)."""


# Exit code and message prefix of each error that ends a command, or one
# line of a verify batch.  No type is a subclass of another, so an error
# matches one entry wherever it stands.
_FAILURES = {
    UsageError: (EXIT_PARSE, ""),
    IndexParseError: (EXIT_PARSE, "cannot parse index: "),
    ConvergenceError: (EXIT_DIVERGENT, "divergent index: "),
    Refusal: (EXIT_ENGINE, "engine precondition: "),
    OutputLimitError: (EXIT_ENGINE, "cannot print result: "),
    AssertionError: (EXIT_FAIL, ""),
}

# What opening and decoding a text file that cannot be read raises.
_UNREADABLE = (OSError, UnicodeDecodeError)


def _failure(e: Exception) -> tuple[int, str]:
    """The exit code and message of an error of a ``_FAILURES`` type; those of
    ``OutputLimitError`` if its message holds a number too long to write."""
    try:
        with _printing():
            message = str(e)
    except OutputLimitError as limit:
        e, message = limit, str(limit)
    code, prefix = next(v for t, v in _FAILURES.items() if isinstance(e, t))
    return code, prefix + message


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
    tables = []
    for path in args.table:
        table = _load_table(path, f"{path}: cannot load table", args.verify_table, args.tol)
        if table is not None:
            if len(table) == 0:
                _err(f"{path}: no usable entries")
            tables.append(table)
    if args.require_tables and not any(len(t) for t in tables):
        _err("--require-tables: no --table with a usable entry")
        return tables, EXIT_TABLES
    return tables, EXIT_PARSE if len(tables) < len(args.table) else EXIT_OK


def _expand_with_engine(idx: EulerSumIndex, engine: str, stream: bool = False):
    """Returns (terms, engine_label, note): terms a ``LinComb``, or with
    ``stream`` ``t1_words(idx)`` where t1 answers alone, its checks and
    refusals done.  Under auto, t2's refusal is decided before t1 runs."""
    from .expansion import linearize, t1_words

    if engine == "t2":
        return expand_t2(idx), "t2", None
    if engine == "auto":
        try:
            lc2 = expand_t2(idx)
        except Refusal:  # t2 declines the index, or its size
            pass
        else:
            lc = expand_t1(idx)
            if linearize(lc2) != lc:
                raise AssertionError(
                    f"engine disagreement on {idx}: t1 differs from the linearized t2 expansion"
                )
            return lc, "auto(t1, t2 checked)", "engines agree exactly (t1 equals linearized t2)"
    return (t1_words(idx) if stream else expand_t1(idx)), "t1", None


@contextlib.contextmanager
def _printing():
    """Turn the one ``ValueError`` that writing a result raises, on an integer
    past the interpreter's digit limit, into ``OutputLimitError``."""
    try:
        yield
    except ValueError:
        raise OutputLimitError(f"it holds a number of more than {sys.get_int_max_str_digits()} digits, "
                               "the interpreter's limit for printing an integer") from None


def _emit(idx: EulerSumIndex, terms, output: str, engine: str, trace=None, extra=None, texts=None):
    """Print ``terms``: a ``LinComb``, or for JSON ``t1_words(idx)``.  Plain
    and JSON output read the atoms' texts from ``texts`` if it is given (see
    ``LinComb.render``)."""
    if output == "json":
        _write_json(idx, terms, engine, trace, extra, texts)
        return
    with _printing():
        if output == "latex":
            text = render_index(idx, "latex") + " = " + terms.latex()
        else:
            text = "\n".join([render_index(idx, "plain") + " = " + terms.render(texts)]
                             + ["  # " + t for t in trace or ()])
    print(text)
    if idx.outer == -1:
        _err("note: outer exponent -1, the series converges conditionally")


# Terms per write of a JSON document.
_JSON_CHUNK = 4096


def _write_json(idx: EulerSumIndex, terms, engine: str, trace, extra, texts):
    """Write the document that json.dumps would write: the keys before the
    terms array, the array in chunks as its terms are produced, then
    ``term_count``, counted on the way, and the keys after it.  No whole
    document, and for a stream no whole combination, is held."""
    import json

    from .algebra import LinComb, json_pieces
    from .expansion import t1_json_pieces

    with _printing():
        head = json.dumps({"index": idx.to_json(), "weight": idx.weight, "degree": idx.degree})
        if isinstance(terms, LinComb):
            # A reduced coefficient may be past the digit limit: every piece is
            # made before the first byte goes out.
            pieces = iter(list(json_pieces(terms.items(), texts)))
        else:
            # t1's words: the head holds the weight, every slot's magnitude is
            # at most the weight, and every coefficient is a multiplicity of at
            # most Fubini(21) < 10^23, so once the head is written no atom can
            # fail to print.
            pieces = t1_json_pieces(terms)
        write = sys.stdout.write
        write(head[:-1] + ', "terms": [')
        count, sep = 0, ""
        while chunk := list(itertools.islice(pieces, _JSON_CHUNK)):
            write(sep + ", ".join(chunk))
            count += len(chunk)
            sep = ", "
        tail = {"term_count": count, "engine": engine}
        if idx.outer == -1:
            tail["convergence"] = "conditional"
        if trace is not None:
            tail["trace"] = trace
        if extra:
            tail.update(extra)
        write("], " + json.dumps(tail)[1:] + "\n")


def cmd_expand(args) -> int:
    idx = _index(args.index)
    terms, engine, note = _expand_with_engine(idx, args.engine, stream=args.output == "json")
    _emit(idx, terms, args.output, engine, extra={"note": note} if note else None)
    return EXIT_OK


def cmd_reduce(args) -> int:
    idx = _index(args.index)
    tables, code = _load_tables(args)
    if code:
        return code
    lc, engine, _ = _expand_with_engine(idx, args.engine)
    result = reduce_lincomb(lc, tables=tables)
    with _printing():  # latex prints neither the trace nor the unresolved list
        trace = result.trace if args.trace and args.output != "latex" else None
        value = result.value
        del result  # the step records, which hold every rewrite's rhs, are freed before printing
        # each atom of the result, products' factors included, is written once, for the
        # unresolved list and the plain or JSON result; a Li atom has no slots, a[2]
        texts = {a: a.render() for a in value.atoms()} if args.output != "latex" else {}
        unresolved = sorted([text for a, text in texts.items() if len(a[2]) >= 2])
    _emit(idx, value, args.output, engine, trace=trace, extra={"unresolved": unresolved}, texts=texts)
    if unresolved and args.output == "plain":
        _err("unresolved atoms (left as basis elements): " + ", ".join(unresolved))
    return EXIT_OK


def _verify_one(text: str, args, tables) -> tuple[int, str]:
    from . import numerics
    from .numerics import _digits15, _up3

    tol = args.tol
    idx = parse_index(text)
    lc, engine, _ = _expand_with_engine(idx, args.engine)  # a refusal ends the line here
    lhs = numerics.eval_euler_sum_best(idx, tol)
    rhs = numerics.eval_lincomb_best(lc, tol)
    ok, diff, budget = numerics.agree(lhs, rhs, tol)
    lines = [
        f"series    = {_digits15(lhs.value)}  (bound {_up3(lhs.tail_bound)}, N={lhs.terms_used})",
        f"expansion = {_digits15(rhs.value)}  (bound {_up3(rhs.tail_bound)}; engine {engine})",
        f"discrepancy {_up3(diff)} vs budget {_up3(budget)}",
    ]
    if tables:
        red = reduce_lincomb(lc, tables=tables).value
        rr = numerics.eval_lincomb_best(red, tol)
        ok2, d2, b2 = numerics.agree(lhs, rr, tol)
        ok = ok and ok2
        lines.append(f"reduction = {_digits15(rr.value)}  (bound {_up3(rr.tail_bound)}; discrepancy {_up3(d2)} vs {_up3(b2)})")
    lines.append("PASS" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_FAIL), "\n".join(lines)


def _not_both(args, option: str, given):
    if given and args.index:
        raise UsageError(f"INDEX and {option} exclude each other")


def cmd_verify(args) -> int:
    _not_both(args, "--file", args.file)
    tables, code = _load_tables(args)
    if code:
        return code
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8-sig") as f:
                texts = [t for t in map(str.strip, f) if t and not t.startswith("#")]
        except _UNREADABLE as e:
            raise UsageError(f"cannot read {args.file}: {e}")
        if not texts:
            raise UsageError(f"no index in {args.file}")
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
    from . import numerics
    from .numerics import _digits15, _up3

    _not_both(args, "--json", args.json_input)
    if args.json_input:
        import json

        from .algebra import LinComb

        try:
            if args.json_input == "-":
                raw = sys.stdin.read()
            else:
                with open(args.json_input, "r", encoding="utf-8-sig") as f:
                    raw = f.read()
            doc = json.loads(raw)
            lc = LinComb.from_json_terms(doc.get("terms") if isinstance(doc, dict) else None)
        except OSError as e:
            raise UsageError(f"cannot read {args.json_input}: {e}")
        # TypeError: a bool coefficient; RecursionError: nesting past the
        # interpreter's recursion limit
        except (ValueError, TypeError, RecursionError) as e:
            raise UsageError(f"cannot parse expansion dump: {e}")
        res = numerics.eval_lincomb_best(lc, args.tol)
    else:
        res = numerics.eval_euler_sum_best(_index(args.index), args.tol)
    if res.tail_bound > args.tol:
        _err(f"capacity: achieved bound {_up3(res.tail_bound)} above tol {args.tol:g}")
    print(f"{_digits15(res.value)}  bound={_up3(res.tail_bound)}  N={res.terms_used}")
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


@functools.cache
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
        if "tol" in vars(args):
            if not SUM_TOL_FLOOR <= args.tol <= TOL_MAX:
                raise UsageError(f"--tol must lie in [{SUM_TOL_FLOOR:g}, {TOL_MAX:g}]")
        code = args.handler(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except tuple(_FAILURES) as e:
        code, msg = _failure(e)
        _err(msg)
        return code
    except BrokenPipeError:  # stdout's reader has gone: the rest goes to devnull, the flush at exit too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
