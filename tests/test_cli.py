import json

from eulersums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "--output", "json", "S(2,3)")
    doc = json.loads(out)
    assert doc["weight"] == 5 and doc["degree"] == 1
    assert doc["index"] == {"inner": [2], "outer": 3}
    assert {"factors": ["z(5)"], "coeff": "1"} in doc["terms"]
    assert doc["term_count"] == 2


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


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "S(2,6)")
    assert code == 0 and "PASS" in out


def test_verify_batch_file(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("S(2,6)\nS(3,5)\n")
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--file", str(f))
    assert code == 0 and out.count("PASS") == 2


def test_verify_tol_range(capsys):
    code, _, err = run(capsys, "verify", "--tol", "1e-12", "S(2,6)")
    assert code == 2 and "tol" in err


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


def test_missing_index_exit2(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2


def test_verify_missing_file_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--file", str(tmp_path / "nope.txt"))
    assert code == 2 and "cannot read" in err


def test_eval_missing_json_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--json", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read" in err


def test_eval_malformed_json_exit2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nope": 1}')
    code, _, err = run(capsys, "eval", "--json", str(p))
    assert code == 2 and "expansion dump" in err


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


def test_verify_engine_refusal_exit4(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "1e-6", "--engine", "t2", "S(1,1,3)")
    assert code == 4 and "ERROR (exit 4): engine precondition" in out


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
