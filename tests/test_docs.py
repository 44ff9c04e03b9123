"""The documented examples produce the outputs they show."""

import doctest
import pathlib
import re
import types

import eulersums
from eulersums import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block():
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert len(test.examples) >= 4 and runner.failures == 0


def test_package_quick_start():
    failed, attempted = doctest.testmod(eulersums)
    assert attempted >= 3 and failed == 0


def test_public_names():
    # every name the package exports, so that none is dropped unnoticed
    names = sorted(n for n, v in vars(eulersums).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == [
        "ConvergenceError", "DegreeCapError", "EulerSumIndex", "IdentityTable",
        "IndexParseError", "LinComb", "MzvAtom", "NumericResult", "ReduceResult",
        "SymbolicTerm", "UnsupportedHypothesisError", "WordCapError", "alt_depth1", "as_fraction",
        "build_starter_table", "clear_caches", "depth2_odd", "eval_euler_sum_best", "eval_lincomb_best",
        "expand_t1", "expand_t2", "li_half", "linearize",
        "load_identity_table", "log_integral", "make_index", "parse_atom", "parse_index",
        "reduce_lincomb", "render_index", "save_table", "symmetric_sum", "z", "zeta_ones",
    ]


def _readme_exit_codes() -> dict[int, str]:
    """README's exit-code list: the text of each code's item, on one line."""
    lines = README.read_text(encoding="utf-8").split("\nExit codes.", 1)[1].splitlines()
    items: dict[int, list[str]] = {}
    for line in lines[lines.index("") + 1:]:  # the list follows its opening paragraph
        code = re.match(r"- `(\d)`: ", line)
        if code:
            item = items.setdefault(int(code[1]), [])
        elif line and not line.startswith(" "):
            break
        item.append(line.strip())
    return {code: " ".join(item) for code, item in items.items()}


def test_readme_lists_every_exit_code_with_its_prefixes():
    items = _readme_exit_codes()
    assert sorted(items) == [0, 1, 2, 3, 4, 5]
    for code, prefix in cli._FAILURES.values():
        assert prefix.strip() in items[code], (code, prefix)
