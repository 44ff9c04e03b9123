"""The documented examples produce the outputs they show."""

import doctest
import pathlib

import eulersums

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
