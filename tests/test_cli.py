import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import eulersums
from eulersums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _starter_table() -> str:
    import importlib.resources as res

    return str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))


def _non_utf8(tmp_path):
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(b"\xff\xfe" + '{"lhs": "z(2,1)"}\n'.encode("utf-16-le"))
    return str(path)


def test_expand_plain(capsys):
    code, out, _ = run(capsys, "expand", "S(1,1,1,9)")
    assert code == 0
    for piece in ["z(9,3)", "6*z(9,1,1,1)", "3*z(10,2)", "z(12)"]:
        assert piece in out


def test_expand_engine_t2(capsys):
    code, out, _ = run(capsys, "expand", "--engine", "t2", "S(2,3)")
    assert code == 0
    assert "z(2)*z(3)" in out and "-z(2,3)" in out


def test_expand_divergent_exit3(capsys):
    code, _, err = run(capsys, "expand", "S(1,1)")
    assert code == 3 and "diverg" in err


def test_expand_parse_error_exit2(capsys):
    code, _, err = run(capsys, "expand", "S(1,x)")
    assert code == 2


def test_expand_bare_s_exit2(capsys):
    code, out, err = run(capsys, "expand", "S ")
    assert (code, out) == (2, "")
    assert err.startswith("cannot parse index: expected a nonzero integer, found 'S '")


def test_expand_engine_precondition_exit4(capsys):
    code, _, err = run(capsys, "expand", "--engine", "t2", "S(1,1,3)")
    assert code == 4 and "t2" in err


def test_expand_oversized_index_exit4(capsys):
    # nine distinct inner entries: 7 087 261 ordered partitions, refused at once
    code, _, err = run(capsys, "expand", "S(1,2,3,4,5,6,7,8,9,2)")
    assert code == 4 and "7087261" in err


def test_expand_auto_checks_engines_exactly(capsys, monkeypatch):
    from eulersums import numerics

    def refuse(*args, **kwargs):
        raise RuntimeError("engine auto must not evaluate numerically")

    monkeypatch.setattr(numerics, "eval_lincomb_best", refuse)
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,3)")
    doc = json.loads(out)
    assert code == 0 and doc["engine"] == "auto(t1, t2 checked)"
    assert "exactly" in doc["note"]


def test_engine_disagreement_exit1(capsys, monkeypatch, tmp_path):
    # a linearized t2 expansion that differs from t1 fails the check, exit 1;
    # in a verify batch only its line fails, and the lines t2 does not cover pass
    from eulersums import cli

    linearize = cli.linearize
    extra = eulersums.LinComb.of_atom(eulersums.z(5))
    monkeypatch.setattr(cli, "linearize", lambda lc: linearize(lc) + extra)
    code, out, err = run(capsys, "expand", "S(2,3)")
    assert (code, out) == (1, "") and err.startswith("engine disagreement on S(2,3)")
    f = tmp_path / "batch.txt"
    f.write_text("S(1,2)\nS(2,3)\nS(-2,-1)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(f))
    assert code == 1
    blocks = out.split("== ")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["S(1,2)", "S(2,3)", "S(-2,-1)"]
    assert blocks[0].rstrip().endswith("PASS") and blocks[2].rstrip().endswith("PASS")
    assert blocks[1].splitlines()[1].startswith("ERROR (exit 1): engine disagreement on S(2,3)")


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,3)")
    doc = json.loads(out)
    assert doc["weight"] == 5 and doc["degree"] == 1
    assert doc["index"] == {"inner": [2], "outer": 3}
    assert {"factors": ["z(5)"], "coeff": "1"} in doc["terms"]
    assert doc["term_count"] == 2


_HEAD = ["index", "weight", "degree", "terms", "term_count", "engine"]


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["expand", "S(1,1,-3)"], _HEAD),
        (["expand", "S(2,2)"], _HEAD + ["note"]),
        (["expand", "S(2,-1)"], _HEAD + ["convergence"]),
        (["reduce", "--trace", "S(1,1,-3)"], _HEAD + ["trace", "unresolved"]),
        (["reduce", "--trace", "S(2,-1)"], _HEAD + ["convergence", "trace", "unresolved"]),
    ],
)
def test_json_output_is_laid_out_as_json_dumps(capsys, argv, keys):
    # the terms array is written as text inside the document: the line is
    # still json.dumps of the document, key for key
    code, out, _ = run(capsys, argv[0], "--output", "json", *argv[1:])
    doc = json.loads(out)
    assert code == 0 and list(doc) == keys
    assert out == json.dumps(doc) + "\n"


def test_expand_latex(capsys):
    code, out, _ = run(capsys, "expand", "--output", "latex", "S(1,1,-3)")
    assert code == 0 and r"\zeta(\bar{5})" in out and out.startswith("S_{1^{2},\\bar{3}}")


def test_conditional_convergence_note(capsys):
    code, out, err = run(capsys, "expand", "S(2,-1)")
    assert code == 0 and "conditionally" in err
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,-1)")
    assert json.loads(out)["convergence"] == "conditional"


def test_reduce_plain(capsys):
    code, out, err = run(capsys, "reduce", "S(8,9)")
    assert code == 0
    assert "z(17)" in out and "z(9,8)" not in out


def test_reduce_trace_and_unresolved(capsys):
    code, out, _ = run(capsys, "reduce", "--trace", "--output", "json", "S(2,6)")
    doc = json.loads(out)
    assert doc["unresolved"] == ["z(6,2)"]
    assert doc.get("trace", []) == []  # nothing fires: z(6,2) is a basis atom
    code, out, _ = run(capsys, "reduce", "--trace", "--output", "json", "S(2,5)")
    doc = json.loads(out)
    assert doc["unresolved"] == []
    assert any("depth2_odd" in t for t in doc["trace"])


def test_reduce_latex_builds_no_unresolved_list(capsys, monkeypatch):
    # latex prints neither the stderr line nor the "unresolved" key, so the
    # atoms of the result are never collected; its text is as before.  The
    # table is parsed, which collects the atoms of each entry, before counting.
    argv = ["reduce", "--engine", "t1", "--table", _starter_table(), "S(1,2,3,5,-8,3)"]
    eulersums.load_identity_table(argv[4])
    calls = []
    atoms = eulersums.LinComb.atoms
    monkeypatch.setattr(eulersums.LinComb, "atoms", lambda lc: calls.append(lc) or atoms(lc))
    code, out, err = run(capsys, *argv[:1], "--output", "latex", *argv[1:])
    assert (code, err, calls) == (0, "", [])
    digest = "21eea2ddf98e440b353e77bd0973fc88a44bde0b8c748599f3a9ea6bce7d7e28"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # plain and json collect them once, for the stderr line and the key
    code, out, err = run(capsys, *argv[:1], "--output", "plain", *argv[1:])
    assert code == 0 and len(calls) == 1
    assert err.startswith("unresolved atoms (left as basis elements): z(")
    code, out, err = run(capsys, *argv[:1], "--output", "json", *argv[1:])
    assert code == 0 and len(calls) == 2 and json.loads(out)["unresolved"]


_LI_TABLE = '{"lhs": "z(-1)", "rhs": [{"factors": ["Li(1,1/2)"], "coeff": "-1"}], "weight": 1}\n'


@pytest.mark.parametrize("engine,table,text", [
    ("t1", "starter", "S(1,4,-2,-3,-7,3)"),  # an index of the reduce benchmark
    ("t2", None, "S(2,2,3,3,2)"),  # deep atoms that occur only inside products
    ("auto", "li", "S(-1,-1,-1,-1)"),  # Li(1,1/2) in products, outer -1
])
def test_reduce_output_contract(capsys, tmp_path, engine, table, text):
    # what each output format of reduce prints, built here from the library's
    # value and each atom's own render(), not from the command's code
    from eulersums.cli import _expand_with_engine
    from eulersums.indices import parse_index, render_index

    argv = ["--engine", engine]
    tables = []
    if table:
        path = _starter_table() if table == "starter" else str(tmp_path / "li.jsonl")
        if table == "li":
            pathlib.Path(path).write_text(_LI_TABLE)
        argv += ["--table", path]
        tables.append(eulersums.load_identity_table(path))
    idx = parse_index(text)
    lc, label, _ = _expand_with_engine(idx, engine)
    value = eulersums.reduce_lincomb(lc, tables=tables).value
    unresolved = sorted({a.render() for a in value.atoms() if a.depth >= 2})
    note = ""
    if idx.outer == -1:  # the series converges conditionally
        note = "note: outer exponent -1, the series converges conditionally\n"
    if engine == "t2":
        # the case holds what it is there for: unresolved atoms that no term holds alone
        alone = {t for t in value._d if type(t) is eulersums.MzvAtom}
        assert any(a.depth >= 2 and a not in alone for a in value.atoms())

    code, out, err = run(capsys, "reduce", *argv, text)
    assert code == 0
    assert out == f"{render_index(idx, 'plain')} = {value.render()}\n"
    listed = "unresolved atoms (left as basis elements): " + ", ".join(unresolved) + "\n"
    assert err == note + (listed if unresolved else "")

    code, out, err = run(capsys, "reduce", "--output", "json", *argv, text)
    doc = {"index": idx.to_json(), "weight": idx.weight, "degree": idx.degree,
           "terms": value.to_json_terms(), "term_count": len(value), "engine": label}
    if note:
        doc["convergence"] = "conditional"
    doc["unresolved"] = unresolved
    assert (code, out, err) == (0, json.dumps(doc) + "\n", "")

    code, out, err = run(capsys, "reduce", "--output", "latex", *argv, text)
    assert (code, out, err) == (0, f"{render_index(idx, 'latex')} = {value.latex()}\n", note)


def test_reduce_json_formats_each_atom_once(capsys, monkeypatch):
    # reduce's JSON reads every atom's text, products' factors included, from
    # the one map that also gives the "unresolved" key: each distinct zeta
    # atom of the result is formatted once, and the document is as before
    from eulersums import algebra

    text = "S(2,2,3,3,2)"
    value = eulersums.reduce_lincomb(eulersums.expand_t2(eulersums.parse_index(text))).value
    zetas = {a for a in value.atoms() if not a.li}
    assert sum(type(t) is not eulersums.MzvAtom for t in value._d) == 27 and len(zetas) > 27
    calls = []
    zeta_format = algebra._zeta_format
    monkeypatch.setattr(algebra, "_zeta_format", lambda depth: calls.append(depth) or zeta_format(depth))
    code, out, err = run(capsys, "reduce", "--engine", "t2", "--output", "json", text)
    assert (code, err) == (0, "") and len(calls) == len(zetas)
    assert json.loads(out)["terms"] == value.to_json_terms()


def test_reduce_with_bundled_table(capsys):
    import importlib.resources as res

    path = str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
    code, out, _ = run(capsys, "reduce", "--table", path, "--output", "json", "S(2,3)")
    doc = json.loads(out)
    assert code == 0 and doc["unresolved"] == []


def test_reduce_require_tables_exit5(capsys, tmp_path):
    code, _, err = run(
        capsys, "reduce", "--require-tables", "--table", str(tmp_path / "missing.jsonl"), "S(2,3)"
    )
    assert code == 5


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_require_tables_without_a_table_exit5(capsys, command):
    # no --table at all is no usable table: exit 5, with the option named
    code, out, err = run(capsys, command, "--require-tables", "S(2,3)")
    assert (code, out, err) == (5, "", "--require-tables: no --table with a usable entry\n")


def test_reduce_missing_table_exit2(capsys, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    code, _, err = run(capsys, "reduce", "--table", missing, "S(2,3)")
    assert code == 2 and "cannot load table" in err and "Expecting value" not in err


def test_table_search_dir_env(capsys, tmp_path, monkeypatch):
    from eulersums.reduction import build_starter_table, save_table

    save_table(build_starter_table(4), tmp_path / "mini.jsonl")
    monkeypatch.setenv("EULERSUM_TABLE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "reduce", "--table", "mini.jsonl", "S(2,3)")
    assert code == 0


def test_table_given_path_wins_over_search_dir(capsys, tmp_path, monkeypatch):
    # EULERSUM_TABLE_DIR is only a fallback: a --table path that exists as
    # given is read, although the directory holds a table of the same name
    from eulersums.reduction import build_starter_table, save_table

    (tmp_path / "cwd").mkdir()
    (tmp_path / "dir").mkdir()
    save_table(build_starter_table(4), tmp_path / "cwd" / "mini.jsonl")
    (tmp_path / "dir" / "mini.jsonl").write_text(
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}\n'
    )
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("EULERSUM_TABLE_DIR", str(tmp_path / "dir"))
    code, out, _ = run(capsys, "reduce", "--table", "mini.jsonl", "S(1,2)")
    assert (code, out) == (0, "S(1,2) = 2*z(3)\n")


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "S(2,6)")
    assert code == 0 and "PASS" in out


def test_verify_batch_file(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("S(2,6)\nS(3,5)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(f))
    assert code == 0 and out.count("PASS") == 2


def test_verify_batch_skips_indented_comments_and_blank_lines(capsys, tmp_path):
    # a comment line may be indented, as in identity tables; it prints nothing
    f = tmp_path / "batch.txt"
    f.write_text("# header\nS(2,6)\n   # note\n\n\t#tab\n  \nS(3,5)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(f))
    plain = tmp_path / "plain.txt"
    plain.write_text("S(2,6)\nS(3,5)\n")
    assert code == 0 and "ERROR" not in out and "#" not in out
    assert (code, out) == run(capsys, "verify", "--tol", "1e-6", "--file", str(plain))[:2]


@pytest.mark.parametrize("text", ["", "# header\n\n   # note\n"], ids=["empty", "comments"])
def test_verify_batch_without_an_index_exit2(capsys, tmp_path, text):
    # a batch that verifies nothing is a usage error, not a silent pass
    f = tmp_path / "batch.txt"
    f.write_text(text)
    assert run(capsys, "verify", "--file", str(f)) == (2, "", f"no index in {f}\n")


def test_verify_table_entry_with_an_infinite_bound_fails(capsys, tmp_path):
    # z(2,1) = 10^310 z(3) reduces S(1,2) to a value past the float range;
    # its bound, about 2^-64 of it, and the discrepancy print in digits, and
    # the line fails on the discrepancy
    table = tmp_path / "huge.jsonl"
    entry = {"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1" + "0" * 310}], "weight": 3}
    table.write_text(json.dumps(entry) + "\n")
    code, out, err = run(capsys, "verify", "--table", str(table), "S(1,2)")
    assert (code, err) == (1, "")
    *_, reduction, verdict = out.splitlines()
    assert reduction == "reduction = 1.20205690315959e+310  (bound 1.72e+290; discrepancy 1.21e+310 vs 1.72e+290)"
    assert verdict == "FAIL"


@pytest.mark.parametrize("layer", ["_expand_with_engine", "reduce_lincomb"])
def test_verify_sees_an_error_below_one_ulp_of_the_value(capsys, monkeypatch, layer):
    # S({1}_11, 2) is about 7.1e7, where one ulp of a double is 1.5e-8: an
    # error of 3e-9 z(2) in the expansion or in its reduction must fail at
    # --tol 1e-10, so the comparison is exact, not between rounded floats
    from fractions import Fraction

    from eulersums import cli
    from eulersums.algebra import LinComb, z
    from eulersums.reduction import ReduceResult

    exact = getattr(cli, layer)

    def off(*args, **kwargs):
        out = exact(*args, **kwargs)
        if layer == "reduce_lincomb":
            return ReduceResult(out.value + LinComb.of_atom(z(2), Fraction(3, 10**9)), out.log)
        return (out[0] + LinComb.of_atom(z(2), Fraction(3, 10**9)), *out[1:])

    monkeypatch.setattr(cli, layer, off)
    argv = ["verify", "--tol", "1e-10", "--table", _starter_table(), "S(1,1,1,1,1,1,1,1,1,1,1,2)"]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.endswith("FAIL\n"), out
    lines = out.splitlines()
    failing = lines[3] if layer == "_expand_with_engine" else lines[4]
    assert "discrepancy 4.94e-09 vs" in failing, out


def test_verify_tol_range(capsys):
    code, _, err = run(capsys, "verify", "--tol", "1e-12", "S(2,6)")
    assert code == 2 and "tol" in err


def test_tol_range_starts_at_the_series_floor(capsys):
    from eulersums import numerics

    floor = numerics.SUM_TOL_FLOOR
    code, out, _ = run(capsys, "eval", "--tol", repr(floor), "S(2,2)")
    assert code == 0 and out.endswith("N=100\n")
    code, _, err = run(capsys, "eval", "--tol", repr(floor * 0.99), "S(2,2)")
    assert code == 2 and f"[{floor:g}," in err


def test_eval_index(capsys):
    code, out, _ = run(capsys, "eval", "--tol", "1e-6", "S(1,2)")
    assert code == 0
    value = float(out.split()[0])
    assert abs(value - 2.4041138063191885) < 1e-5


def test_eval_json_roundtrip(capsys, tmp_path):
    # expand --output json, re-ingested by eval, matches verify's expansion value
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,6)")
    doc = json.loads(out)
    dump = tmp_path / "expansion.json"
    dump.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--tol", "1e-8", "--json", str(dump))
    assert code == 0
    val_from_json = float(out.split()[0])
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "S(2,6)")
    line = [l for l in out.splitlines() if l.startswith("expansion")][0]
    val_verify = float(line.split("=")[1].split()[0])
    assert abs(val_from_json - val_verify) < 1e-9


def test_eval_json_beyond_float64_prints_finite(capsys, tmp_path):
    # 10^400 * zeta(2) is finite as a longdouble, so it prints as a number
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"terms": [{"factors": ["z(2)"], "coeff": "1" + "0" * 400}]}))
    code, out, _ = run(capsys, "eval", "--json", str(p))
    assert code == 0 and out.startswith("1.64493406684823e+400  bound=")


def test_eval_json_reports_a_missed_tol(capsys, tmp_path):
    # a dump is held to --tol as an index is: 10^310 z(2) is bounded by
    # about 2^-64 of its value, finite and far above the tolerance
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"terms": [{"factors": ["z(2)"], "coeff": "1" + "0" * 310}]}))
    code, out, err = run(capsys, "eval", "--json", str(p))
    assert (code, out) == (0, "1.64493406684823e+310  bound=2.18e+290  N=200\n")
    assert err == "capacity: achieved bound 2.18e+290 above tol 1e-08\n"


def test_eval_json_li_atoms_run_through_holder(capsys, tmp_path):
    # Li_q(1/2) is one more Hoelder word: a combination of Li and zeta atoms
    # reports N = 200 like any other, with the value and bound of the
    # geometric series it replaced
    p = tmp_path / "li.json"
    p.write_text(json.dumps({"terms": [
        {"factors": ["Li(4,1/2)", "z(2)"], "coeff": "3/7"},
        {"factors": ["Li(6,1/2)"], "coeff": "-2"},
        {"factors": ["z(-1)", "Li(5,1/2)"], "coeff": "5"},
    ]}))
    code, out, _ = run(capsys, "eval", "--json", str(p))
    assert (code, out) == (0, "-2.40536482005149  bound=4.55e-20  N=200\n")


def test_table_check(capsys, tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text('{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}\n')
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "2"}], "weight": 3}\n')
    code, out, err = run(capsys, "table-check", str(good), str(bad))
    assert code == 0
    assert "1 accepted, 0 rejected" in out
    assert "0 accepted, 1 rejected" in out
    code, _, _ = run(capsys, "table-check", str(bad))
    assert code == 5


def test_table_check_rejects_loose_rational_text(capsys, tmp_path):
    # each coefficient below equals the true one when Fraction() reads it,
    # but none is a form the program writes: each line is rejected on its
    # own, and the JSON integer and the padded text beside them are accepted
    path = tmp_path / "loose.jsonl"
    path.write_text(
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1_0/1_0"}], "weight": 3}\n'
        '{"lhs": "z(3,1)", "rhs": [{"factors": ["z(4)"], "coeff": "0.25"}], "weight": 4}\n'
        '{"lhs": "z(2,2)", "rhs": [{"factors": ["z(4)"], "coeff": "\u0663/4"}], "weight": 4}\n'
        '{"lhs": "z(2,1,1)", "rhs": [{"factors": ["z(4)"], "coeff": 1}], "weight": 4}\n'
        '{"lhs": "z(2,1,1,1)", "rhs": [{"factors": ["z(5)"], "coeff": " 1 "}], "weight": 5}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "table-check", str(path))
    assert code == 0 and out == f"{path}: 2 accepted, 3 rejected, max weight 5\n"
    lines = err.splitlines()
    assert [line.split(" rejected: ")[0] for line in lines] == [f"{path}:{i}:" for i in (1, 2, 3)]
    for line, text in zip(lines, ["'1_0/1_0'", "'0.25'", "'\u0663/4'"]):
        assert text in line


def test_eval_json_loose_rational_exit2(capsys, tmp_path):
    # "1e2" is 100 to Fraction(), so the dump read as 100 z(2); it is refused
    p = tmp_path / "dump.json"
    p.write_text(json.dumps({"terms": [{"factors": ["z(2)"], "coeff": "1e2"}]}))
    code, out, err = run(capsys, "eval", "--json", str(p))
    assert code == 2 and out == "" and "cannot parse expansion dump" in err and "'1e2'" in err


def test_missing_index_exit2(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2
    assert run(capsys, "verify") == (2, "", "missing INDEX argument (or --file)\n")


def test_expand_empty_list_exit2(capsys):
    code, out, err = run(capsys, "expand", "S()")
    assert (code, out, err) == (2, "", "cannot parse index: empty list (at position 3)\n")


def test_table_without_an_accepted_line_is_named_and_skipped(capsys, tmp_path):
    # the one line is rejected; the command goes on with the built-in rules
    path = tmp_path / "self.jsonl"
    path.write_text('{"lhs": "z(2,1)", "rhs": [{"factors": ["z(2,1)"], "coeff": "1"}], "weight": 3}\n')
    code, out, err = run(capsys, "reduce", "--table", str(path), "S(1,2)")
    assert (code, out) == (0, "S(1,2) = 2*z(3)\n")
    assert err == f"{path}:1: rejected: self-referential entry z(2,1)\n{path}: no usable entries\n"


def test_eval_json_reads_stdin(capsys, tmp_path, monkeypatch):
    # "-" reads the dump from stdin: the same line as from a file
    text = json.dumps({"terms": [{"factors": ["z(2)"], "coeff": "3/4"}]})
    p = tmp_path / "dump.json"
    p.write_text(text)
    from_file = run(capsys, "eval", "--json", str(p))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "eval", "--json", "-") == from_file
    assert from_file[0] == 0 and from_file[1].startswith("1.23370055013617  ")  # 3/4 z(2)


def test_verify_missing_file_exit2(capsys, tmp_path):
    for path in (str(tmp_path / "nope.txt"), _non_utf8(tmp_path)):
        code, out, err = run(capsys, "verify", "--file", path)
        assert code == 2 and out == "" and err.startswith(f"cannot read {path}: ")


def test_eval_missing_json_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--json", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read" in err


def test_eval_malformed_json_exit2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nope": 1}')
    code, _, err = run(capsys, "eval", "--json", str(p))
    assert code == 2 and "expansion dump" in err


@pytest.mark.parametrize("dump", [
    "[1]",
    '{"terms": 5}',
    '{"terms": [{"factors": 3, "coeff": "1"}]}',
    "null",
    '{"terms": [5]}',
    '{"terms": [{"factors": [3], "coeff": "1"}]}',
    '{"terms": [{"factors": ["z(2)"], "coeff": [1]}]}',
    '{"terms": [{"factors": ["z(2)"], "coeff": "1/0"}]}',
    '{"terms": [{"factors": ["z(2)"], "coeff": true}]}',
    '{"terms": [{"factors": ["z(2)"], "coeff": false}]}',
])
def test_eval_wrong_shape_dump_exit2(capsys, tmp_path, dump):
    # valid JSON of the wrong shape is a usage error, not a traceback
    p = tmp_path / "dump.json"
    p.write_text(dump)
    code, out, err = run(capsys, "eval", "--json", str(p))
    assert code == 2 and out == "" and err.startswith("cannot parse expansion dump: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--file", "batch.txt", "S(2,3)"],
    ["verify", "--file", "empty.txt", "S(2,3)"],
    ["eval", "--json", "dump.json", "S(2,3)"],
    ["eval", "--json", "-", "S(2,3)"],
])
def test_index_with_file_or_json_exit2(capsys, tmp_path, monkeypatch, argv):
    # INDEX is never dropped silently: with --file or --json it is a usage error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.txt").write_text("S(2,6)\n")
    (tmp_path / "empty.txt").write_text("")
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,6)")
    (tmp_path / "dump.json").write_text(out)
    code, out, err = run(capsys, *argv)
    option = argv[1]
    assert code == 2 and out == "" and err == f"INDEX and {option} exclude each other\n"


def test_verify_batch_reports_each_line(capsys, tmp_path):
    # a malformed or divergent line fails alone; the batch keeps going and
    # exits with the largest per-line code
    f = tmp_path / "batch.txt"
    f.write_text("S(2,6)\nS(1,x)\nS(1,1)\nS(3,5)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(f))
    assert code == 3
    blocks = out.split("== ")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["S(2,6)", "S(1,x)", "S(1,1)", "S(3,5)"]
    assert blocks[0].rstrip().endswith("PASS") and blocks[3].rstrip().endswith("PASS")
    assert blocks[1].splitlines()[1].startswith("ERROR (exit 2): cannot parse index")
    assert blocks[2].splitlines()[1].startswith("ERROR (exit 3): divergent index")


def _cyclic_table(tmp_path) -> str:
    path = tmp_path / "cyc.jsonl"
    path.write_text(
        '{"lhs": "z(4,1)", "rhs": [{"factors": ["z(3,2)"], "coeff": "1"}], "weight": 5}\n'
        '{"lhs": "z(3,2)", "rhs": [{"factors": ["z(4,1)"], "coeff": "1"}], "weight": 5}\n'
    )
    return str(path)


def test_reduce_table_repeated_lhs_rejected(capsys, tmp_path):
    # the second z(2,1) line is rejected, so the first entry alone reduces S(1,2)
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}\n'
        '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}\n'
    )
    code, out, err = run(capsys, "reduce", "--table", str(path), "S(1,2)")
    assert code == 0 and out == "S(1,2) = 2*z(3)\n"
    assert err == f"{path}:2: rejected: duplicate lhs z(2,1) (first on line 1)\n"
    code, out, _ = run(capsys, "table-check", str(path))
    assert code == 0 and out == f"{path}: 1 accepted, 1 rejected, max weight 3\n"


CYCLE_MESSAGE = "engine precondition: reduction did not reach a fixpoint within 100000 steps"


def test_reduce_cyclic_table_exit4(capsys, tmp_path):
    # two entries that rewrite into each other never reach a fixpoint: the
    # step cap ends the command with exit 4, not a traceback
    code, out, err = run(capsys, "reduce", "--table", _cyclic_table(tmp_path), "S(1,4)")
    assert code == 4 and out == "" and err == CYCLE_MESSAGE + "\n"


def test_verify_batch_cyclic_table_line_exit4(capsys, tmp_path):
    # the line that hits the cycle fails alone; the lines around it still pass
    f = tmp_path / "batch.txt"
    f.write_text("S(2,6)\nS(1,4)\nS(3,5)\n")
    code, out, _ = run(
        capsys, "verify", "--tol", "1e-6", "--table", _cyclic_table(tmp_path), "--file", str(f)
    )
    assert code == 4
    blocks = out.split("== ")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["S(2,6)", "S(1,4)", "S(3,5)"]
    assert blocks[0].rstrip().endswith("PASS") and blocks[2].rstrip().endswith("PASS")
    assert blocks[1].splitlines()[1:] == ["ERROR (exit 4): " + CYCLE_MESSAGE]


def test_verify_engine_refusal_exit4(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--engine", "t2", "S(1,1,3)")
    assert code == 4 and "ERROR (exit 4): engine precondition" in out


CAP_REFUSED = "S(" + "1," * 25 + "2)"  # 2^24 ordered partitions, above the cap


def test_verify_refused_expansion_skips_the_series(capsys, monkeypatch, tmp_path):
    # an expansion the engine refuses ends the line before the series is
    # summed: alone, under --engine t2, and as one line of a batch
    from eulersums import numerics

    def series(*args, **kwargs):
        raise AssertionError("the series was summed for a refused expansion")

    monkeypatch.setattr(numerics, "eval_euler_sum_best", series)
    for argv in (["verify", CAP_REFUSED], ["verify", "--engine", "t2", "S(1,-2)"]):
        code, out, _ = run(capsys, *argv)
        assert code == 4, out
        assert out.splitlines()[1].startswith("ERROR (exit 4): engine precondition: "), out
    f = tmp_path / "batch.txt"
    f.write_text(f"S(1,-2)\n{CAP_REFUSED}\n")
    code, out, _ = run(capsys, "verify", "--engine", "t2", "--file", str(f))
    blocks = out.split("== ")[1:]
    assert code == 4 and len(blocks) == 2
    assert all(b.splitlines()[1].startswith("ERROR (exit 4): engine precondition: ") for b in blocks)


def test_reduce_beyond_log_integral_cap(capsys):
    # zeta(30,1,1) and zeta(31,1) (weight 32) lie past the exact log-integral
    # formula (k + l <= 30): zeta_ones does not fire and they stay unresolved
    code, out, _ = run(capsys, "reduce", "--engine", "t1", "--output", "json", "S(1,1,30)")
    doc = json.loads(out)
    assert code == 0
    assert {"z(30,1,1)", "z(31,1)"} <= set(doc["unresolved"])


def test_verify_table_beyond_log_integral_cap(capsys):
    import importlib.resources as res

    path = str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--table", path, "S(1,1,30)")
    assert code == 0 and "reduction = " in out and out.rstrip().endswith("PASS")


def test_shipped_table_passes_table_check(capsys):
    # every shipped entry agrees with the numerical oracle at the default tol
    import importlib.resources as res

    path = str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
    code, out, err = run(capsys, "table-check", path)
    assert code == 0 and err == ""
    assert out == f"{path}: 171 accepted, 0 rejected, max weight 12\n"


def test_outputs_same_cold_warm_and_after_clear_caches(capsys):
    import importlib.resources as res

    from eulersums import clear_caches

    path = str(res.files("eulersums").joinpath("tables/starter_weight12.jsonl"))
    requests = [
        [command, *extra, "--table", path, index]
        for command, extra in (("reduce", ["--engine", "t1"]), ("verify", ["--tol", "1e-6"]))
        for index in ("S(1,1,-3)", "S(2,2,3)", "S(1,-2,3)")
    ]

    def outputs():
        return [run(capsys, *argv)[:2] for argv in requests]

    clear_caches()
    cold = outputs()
    warm = outputs()
    clear_caches()
    cleared = outputs()
    assert all(code == 0 for code, _ in cold)
    assert cold == warm == cleared


def test_clear_caches_empties_every_cache(capsys):
    # after a verify and a series evaluation fill them, every functools cache
    # in every eulersums module, and the atom store, is empty again
    import importlib
    import pkgutil

    from eulersums import clear_caches

    assert run(capsys, "verify", "--tol", "1e-6", "--table", _starter_table(), "S(1,-2,3)")[0] == 0
    assert run(capsys, "eval", "S(1,-1,-1)")[0] == 0
    modules = [eulersums] + [
        importlib.import_module(f"eulersums.{info.name}") for info in pkgutil.iter_modules(eulersums.__path__)
    ]
    cached = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert any(obj.cache_info().currsize for obj in cached.values())
    assert eulersums.numerics._ATOM_UNITS  # the atom store, a dict
    clear_caches()
    assert {name: obj.cache_info().currsize for name, obj in cached.items()} == dict.fromkeys(cached, 0)
    assert not eulersums.numerics._ATOM_UNITS


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_non_utf8_table_exit2(capsys, tmp_path, command):
    path = _non_utf8(tmp_path)
    code, out, err = run(capsys, command, "--table", path, "S(2,3)")
    assert code == 2 and out == ""
    assert err.startswith(f"{path}: cannot load table: ") and "Traceback" not in err


def test_table_check_non_utf8_reported_others_checked(capsys, tmp_path):
    path, starter = _non_utf8(tmp_path), _starter_table()
    code, out, err = run(capsys, "table-check", path, starter)
    assert code == 0
    assert err.startswith(f"{path}: ") and "codec" in err
    assert out == f"{starter}: 171 accepted, 0 rejected, max weight 12\n"
    code, out, err = run(capsys, "table-check", path)
    assert code == 5 and out == "" and err.startswith(f"{path}: ")


# The options each subcommand does not read.
REMOVED_OPTIONS = {
    "expand": ["--tol", "--table", "--trace", "--verify-table", "--require-tables"],
    "verify": ["--output", "--trace"],
    "eval": ["--engine", "--table", "--output", "--trace", "--verify-table", "--require-tables"],
    "table-check": ["--engine", "--table", "--output", "--trace", "--verify-table",
                    "--require-tables"],
}


@pytest.mark.parametrize(
    "command,option",
    [(command, option) for command, options in REMOVED_OPTIONS.items() for option in options],
)
def test_option_not_taken_exit2(capsys, command, option):
    values = {"--tol": ["1e-6"], "--table": [_starter_table()], "--output": ["json"],
              "--engine": ["t1"]}
    operand = _starter_table() if command == "table-check" else "S(2,3)"
    code, out, err = run(capsys, command, option, *values.get(option, []), operand)
    assert code == 2 and out == ""
    assert f"eulersum: error: unrecognized arguments: {option}" in err


def test_each_subcommand_declares_only_the_options_it_reads():
    import argparse

    from eulersums.cli import build_parser

    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {o for a in sp._actions if not isinstance(a, argparse._HelpAction)
               for o in a.option_strings}
        for name, sp in commands.choices.items()
    }
    assert declared == {
        "expand": {"--engine", "--output"},
        "reduce": {"--engine", "--output", "--trace", "--tol", "--table", "--verify-table",
                   "--require-tables"},
        "verify": {"--engine", "--tol", "--table", "--verify-table", "--require-tables", "--file"},
        "eval": {"--tol", "--json"},
        "table-check": {"--tol"},
    }
    assert sum(map(len, declared.values())) == 18


def test_parser_built_once_per_process():
    from eulersums.cli import build_parser

    assert build_parser() is build_parser()


def test_table_option_does_not_reach_next_call(capsys, tmp_path):
    # the shared parser's "append" default list must not collect --table paths
    missing = str(tmp_path / "missing.jsonl")
    code, _, err = run(capsys, "reduce", "--table", missing, "S(2,3)")
    assert code == 2 and missing in err
    code, out, err = run(capsys, "reduce", "S(2,3)")
    assert code == 0 and out and missing not in err


def test_readme_command_lines_parse():
    # every `eulersum ...` line of README's "Command line" block parses
    import pathlib
    import shlex

    from eulersums.cli import build_parser

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    parser, commands = build_parser(), []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        while words:
            command = words[: words.index("&&")] if "&&" in words else words
            words = words[len(command) + 1:]
            if ">" in command:
                command = command[: command.index(">")]
            commands.append(command)
    assert len(commands) >= 10 and all(c[0] == "eulersum" for c in commands)
    for command in commands:
        parser.parse_args(command[1:])  # a usage error raises SystemExit


def test_eval_large_outer_exponent_finishes_at_once():
    # past 193 + 4 * degree every term of the walk floors alike over n^q, so
    # an outer exponent of three million costs what one of two hundred does
    src = str(pathlib.Path(eulersums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "eulersums.cli", "eval", "S(2,3000000)"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1  bound=2.33e-56  N=100\n", "")


def test_reduce_huge_depth2_atom_exit4():
    # z(10^15 + 1, 2) would rewrite by depth2_odd into about 10^15 products in
    # one step, which the step cap never counts: it is refused before the loop
    src = str(pathlib.Path(eulersums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "eulersums.cli", "reduce", "S(2,1000000000000001)"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=2)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("engine precondition: depth2_odd on z(1000000000000001,2) ")


@pytest.mark.parametrize("text", ["S(4,2,-1000000000001)", "S(-100000000000,6)"])
def test_reduce_huge_alternating_atom_exit4(text):
    # the coefficient 2^(1-w) - 1 of a barred depth-1 atom has the denominator
    # 2^(w-1): past the step cap it is refused before the power is built
    src = str(pathlib.Path(eulersums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "eulersums.cli", "reduce", text]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=2)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("engine precondition: alt_depth1 on z(-")
    assert done.stderr.endswith(", above the step cap 100000\n")


def test_atom_above_the_word_cap_exit4(capsys, tmp_path):
    # an atom whose Hoelder word would run past the cap is refused at once,
    # before the word is built: verify and eval --json exit 4 with the
    # weight and the cap, and a verify batch line fails alone
    big = 10**15
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", f"S(2,{big})")
    assert time.monotonic() - t0 < 1.0
    assert (code, err) == (4, "")
    cap = f"above the Hoelder word cap {eulersums.numerics.HOLDER_WORD_CAP}"
    assert out.endswith(f"ERROR (exit 4): engine precondition: z({big},2): weight {big + 2} {cap}\n")
    dump = tmp_path / "big.json"
    dump.write_text(json.dumps({"terms": [{"factors": [f"z({big})"], "coeff": "1"}]}))
    t0 = time.monotonic()
    code, out, err = run(capsys, "eval", "--json", str(dump))
    assert time.monotonic() - t0 < 1.0
    assert (code, out, err) == (4, "", f"engine precondition: z({big}): weight {big} {cap}\n")
    batch = tmp_path / "batch.txt"
    batch.write_text(f"S(2,6)\nS(2,{big})\nS(3,5)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(batch))
    assert code == 4 and out.count("PASS") == 2 and out.count("ERROR (exit 4)") == 1


def test_word_cap_refusal_names_the_first_atom_in_term_order(capsys, tmp_path):
    # of two atoms past the cap, the one first in term order is named,
    # whatever the order of the dump
    dump = tmp_path / "two.json"
    dump.write_text(json.dumps({"terms": [{"factors": ["z(300001)"], "coeff": "1"},
                                          {"factors": ["z(250001)"], "coeff": "1"}]}))
    cap = eulersums.numerics.HOLDER_WORD_CAP
    code, out, err = run(capsys, "eval", "--json", str(dump))
    assert (code, out, err) == (4, "", f"engine precondition: z(250001): weight 250001 above the Hoelder word cap {cap}\n")


@pytest.fixture
def digit_limit_640():
    """The interpreter's digit limit at its least, 640, for the test's duration."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_result_past_the_digit_limit_exit4(capsys):
    # the index parses: the coefficient 2^-14400 - 1 that alt_depth1 gives
    # z(14401) has more digits than the interpreter prints by default, 4300,
    # which is no parse error but a refusal, exit 4, that names the limit
    code, out, err = run(capsys, "reduce", "S(-1,14400)")
    assert (code, out) == (4, "")
    assert err == ("cannot print result: it holds a number of more than 4300 digits, "
                   "the interpreter's limit for printing an integer\n")


@pytest.mark.parametrize("output", ["plain", "latex", "json"])
def test_result_past_a_lowered_digit_limit_exit4(capsys, digit_limit_640, output):
    # every output format refuses alike, before anything reaches stdout; an
    # index entry past the limit is text that does not parse, exit 2
    code, out, err = run(capsys, "reduce", "--output", output, "S(-1,2200)")
    assert (code, out) == (4, "")
    assert err.startswith("cannot print result: it holds a number of more than 640 digits")
    # B = 10^640 - 2 parses, and the expansion holds depth-2 atoms with slots past the
    # limit, z(2,2B) and z(B+2,B): the atom text and the unresolved list refuse alike
    big = "9" * 639 + "8"
    code, out, err = run(capsys, "reduce", "--output", output, f"S({big},{big},2)")
    assert (code, out) == (4, "")
    assert err.startswith("cannot print result: it holds a number of more than 640 digits")
    # the library writes no number into a step or a refusal: the CLI writes each
    # where it prints, so a pair reflection's trace line, depth2_odd's refusal
    # (its w - 1 and its atom) and a word-cap refusal in a verify line refuse alike
    for argv in (["reduce"], ["reduce", "--trace"]):
        for text in (f"S({big},2,2)", f"S({big},3,2)"):
            code, out, err = run(capsys, *argv, "--output", output, text)
            assert (code, out) == (4, ""), (argv, text)
            assert err.startswith("cannot print result: it holds a number of more than 640 digits")
    code, out, err = run(capsys, "verify", f"S({big},-2)")
    assert (code, err) == (4, "")
    assert out.splitlines()[1].startswith(
        "ERROR (exit 4): cannot print result: it holds a number of more than 640 digits")
    code, out, err = run(capsys, "expand", "S(" + "1" * 641 + ",2)")
    assert (code, out) == (2, "")
    assert err.startswith("cannot parse index: entry of more than 640 digits")
    assert run(capsys, "expand", "S(" + "1" * 640 + ",2)")[0] == 0


def test_eval_json_nested_past_recursion_limit_exit2(capsys, tmp_path):
    # a dump nested deeper than the interpreter's recursion limit is a
    # malformed dump, not a traceback
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "eval", "--json", str(p))
    assert code == 2 and out == "" and err.startswith("cannot parse expansion dump: ")


def test_eval_json_and_tables_share_the_term_shape_message(capsys, tmp_path):
    # an expansion dump's terms and a table's rhs are one format, with one check
    from eulersums.reduction import load_identity_table

    terms = [{"factors": "z(3)", "coeff": "1"}]
    dump, table = tmp_path / "dump.json", tmp_path / "t.jsonl"
    dump.write_text(json.dumps({"terms": terms}))
    table.write_text(json.dumps({"lhs": "z(2,1)", "rhs": terms, "weight": 3}) + "\n")
    code, out, err = run(capsys, "eval", "--json", str(dump))
    shape = 'expected terms [{"factors": [ATOM, ...], "coeff": RATIONAL}, ...]'
    assert (code, out, err) == (2, "", f"cannot parse expansion dump: {shape}\n")
    assert load_identity_table(str(table), label="t").report == [f"t:1: rejected: {shape}"]


def test_cli_imports_no_third_party_module():
    # a fresh interpreter that imports the CLI loads only the package and
    # the standard library
    src = str(pathlib.Path(eulersums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys; before = set(sys.modules); import eulersums.cli; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "extra = loaded - set(sys.stdlib_module_names) - {'eulersums'}; "
        "assert not extra, sorted(extra)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_startup_loads_no_dataclasses_inspect_or_typing():
    # under -S no site hook preloads a module, so the names that importing
    # the CLI and building its parser add are all that start-up needs
    src = str(pathlib.Path(eulersums.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import eulersums.cli; eulersums.cli.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "eulersums.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}, sorted(loaded)


def _record_cases():
    from fractions import Fraction

    from eulersums.algebra import LinComb, z
    from eulersums.indices import EulerSumIndex
    from eulersums.numerics import NumericResult
    from eulersums.reduction import ReduceResult

    value, log = LinComb.of_atom(z(2), Fraction(1, 3)), [("alt_depth1", z(-2))]
    # (class, its fields in order, the defaults of the trailing ones, repr)
    cases = [
        (EulerSumIndex, {"inner": (1, -2), "outer": 3}, {}, "S(1,-2,3)"),
        (NumericResult, {"value": Fraction(1, 2), "tail_bound": 1e-20, "terms_used": 100, "method": "euler_maclaurin"},
         {"method": "holder"}, "NumericResult(0.5 +- 1e-20, N=100)"),
        (ReduceResult, {"value": value, "log": log}, {"log": []}, f"ReduceResult(value={value!r}, log={log!r})"),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls, fields, defaults, text", _record_cases())
def test_records_keep_their_contract(cls, fields, defaults, text):
    # construction, defaults, equality, hash, frozenness, pickle, copy, repr
    import copy
    import pickle

    rec = cls(*fields.values())
    assert rec == cls(**fields) and {name: getattr(rec, name) for name in fields} == fields
    assert rec != tuple(fields.values()) and tuple(fields.values()) != rec
    assert repr(rec) == text
    required = [v for name, v in fields.items() if name not in defaults]
    assert {name: getattr(cls(*required), name) for name in defaults} == defaults
    if cls.__name__ == "ReduceResult":
        # its list field is unhashable, so the record is too
        assert cls(*required).log is not cls(*required).log
        with pytest.raises(TypeError):
            hash(rec)
        assert cls(*required) != rec  # equality reads the log
    else:
        assert hash(rec) == hash(cls(**fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec
    for back in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec


def test_lincomb_pickles_and_copies_through_its_constructor():
    # at every protocol, 0 and 1 too, a combination of atoms, products, a Li
    # atom and the unit comes back equal, its terms in the same order and its
    # coefficients exact
    import copy
    import pickle
    from fractions import Fraction

    from eulersums.algebra import UNIT_TERM, LinComb, SymbolicTerm, li_half, z

    lc = LinComb({z(3): Fraction(-1, 2), SymbolicTerm.of(z(-1), z(2)): 2, UNIT_TERM: 3, li_half(4): 1})
    copies = [pickle.loads(pickle.dumps(lc, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(lc), copy.deepcopy(lc)]:
        assert type(back) is LinComb and back == lc and back is not lc
        assert list(back.items()) == list(lc.items())
        assert all(type(c) is Fraction for _, c in back.items())


def test_failing_expand_json_writes_nothing(capsys, digit_limit_640):
    # the partition cap, the digit limit, the parser and the convergence check
    # all answer before the first byte of the document, on either engine
    big = "9" * 639 + "8"  # 2 * big + 2, the weight, has 641 digits
    cases = [
        ("S(1,2,3,4,5,6,7,8,9,2)", 4, "engine precondition: "),
        (f"S({big},{big},-2)", 4, "cannot print result: "),
        (f"S({big},-{big},2)", 4, "cannot print result: "),
        ("S(1,2", 2, "cannot parse index: "),
        ("S(2,1)", 3, "divergent index: "),
    ]
    for engine in ("auto", "t1"):
        for text, code, prefix in cases:
            got, out, err = run(capsys, "expand", "--engine", engine, "--output", "json", text)
            assert (got, out) == (code, ""), (engine, text)
            assert err.startswith(prefix), err


def test_streamed_json_is_the_whole_document(capsys):
    # --engine t1 streams t1_terms; each document parses, counts its terms, and
    # is the text json.dumps writes for the whole document
    from reference_oracles import convergent_indices

    from eulersums.expansion import expand_t1

    indices = convergent_indices(7)
    assert len(indices) == 423
    for idx in indices:
        code, out, err = run(capsys, "expand", "--engine", "t1", "--output", "json", repr(idx))
        lc = expand_t1(idx)
        doc = {"index": idx.to_json(), "weight": idx.weight, "degree": idx.degree,
               "terms": lc.to_json_terms(), "term_count": len(lc), "engine": "t1"}
        if idx.outer == -1:
            doc["convergence"] = "conditional"
        assert (code, err) == (0, ""), idx
        assert json.loads(out)["term_count"] == len(lc), idx
        assert out == json.dumps(doc) + "\n", idx
