"""The exit-code contract of the CLI, as one property test.

Every command ends with a documented code and never with a traceback.  Exit
2 comes exactly when ``parse_index`` rejects the text, exit 3 exactly when it
finds the series divergent, and the message of each code begins with that
code's prefix.  ``cli.main`` runs in process, each call under an alarm; a
reader that closes stdout early is a subprocess's.
"""

import contextlib
import io
import itertools
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from eulersums import cli
from eulersums.indices import ConvergenceError, IndexParseError, parse_index

from reference_oracles import STARTER_TABLE

# The options each command takes, as the argv fragments drawn for it.
OPTIONS = {
    "expand": [("--engine", "t1"), ("--engine", "t2"), ("--output", "json"), ("--output", "latex")],
    "reduce": [("--engine", "t1"), ("--engine", "t2"), ("--output", "json"), ("--output", "latex"),
               ("--trace",), ("--table", STARTER_TABLE)],
    "verify": [("--engine", "t1"), ("--engine", "t2"), ("--table", STARTER_TABLE)],
    "eval": [],
}

# Entries are small or near 10^13-10^15, where every command ends at once:
# huge atoms are refused or printed without their words being built.  Entries
# near 10^2-10^12 and indices of degree 5 or more are left out, as are garbled
# texts that parse to them: there verify walks words of up to 10^5 letters,
# reduce --engine t1 prints tens of megabytes, and expand under auto takes
# seconds, each a known slow call of its own and not a fault of the contract.
_small = st.integers(1, 6)
_huge = st.builds(lambda k, d: 10**k + d, st.integers(13, 15), st.integers(-3, 3))
_entries = st.builds(lambda sign, e: sign * e, st.sampled_from([1, -1]), _small | _huge)
_indices = st.builds(
    lambda inner, outer: "S(" + ",".join(map(str, inner + [outer])) + ")",
    st.lists(_entries, max_size=4),
    _entries | st.sampled_from([1, -1]),
)


def _parses_small(text: str) -> bool:
    """False if ``text`` parses to an index of degree above 4 or with an entry above 6."""
    try:
        idx = parse_index(text)
    except (IndexParseError, ConvergenceError):
        return True
    return idx.degree <= 4 and all(abs(e) <= 6 for e in idx.inner + (idx.outer,))


_garbled = st.text("Ss()-,0123456789 ", min_size=1, max_size=12).filter(_parses_small)


@st.composite
def _calls(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    taken = OPTIONS[command]
    options = draw(st.lists(st.sampled_from(taken), unique_by=lambda o: o[0], max_size=3)) if taken else ()
    return command, tuple(itertools.chain(*options)), draw(_indices | _garbled)


# 800 inner entries, distinct or equal: refused from their number alone, where
# the exact count of their ordered partitions took 8 s for 400 distinct entries,
# and the series walk of 80 ones 48 s.
DISTINCT_800 = "S(" + ",".join(map(str, range(1, 801))) + ",2)"
ONES_800 = "S(" + "1," * 800 + "2)"

# Each call the contract was mended on, with its exit code; each takes under 5 ms.
PINNED = {
    ("expand", (), DISTINCT_800): 4,
    ("reduce", (), ONES_800): 4,
    ("verify", (), DISTINCT_800): 4,
    ("eval", (), ONES_800): 4,
    ("expand", (), "S "): 2,
    ("reduce", (), "S(2,1)"): 3,
    ("verify", (), "S(1,2"): 2,
    ("expand", (), "S(1,2,3,4,5,6,7,8,9,2)"): 4,
    ("reduce", (), "S(2,1000000000000001)"): 4,
    ("reduce", (), "S(4,2,-1000000000001)"): 4,
    ("verify", (), "S(2,1000000000000000)"): 4,
    ("expand", ("--engine", "t2"), "S(-2,3)"): 4,
    ("eval", (), "S(1000000000000003,-1000000000000002)"): 0,
}

PREFIXES = {2: ("cannot parse index: ",), 3: ("divergent index: ",),
            4: ("engine precondition: ", "cannot print result: ")}


def _expected_code(text: str) -> int | None:
    """2 or 3 if ``parse_index`` rejects ``text``; None if it parses."""
    try:
        parse_index(text)
    except IndexParseError:
        return 2
    except ConvergenceError:
        return 3
    return None


def _alarm(signum, frame):
    raise TimeoutError("the call ran past its 5 s alarm")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=_calls())
def test_exit_code_follows_the_contract(call):
    command, options, text = call
    # after "--", a text such as "-1,2" is the index, not an option
    code, out, err = _run([command, *options, "--", text])
    if command == "verify":
        # one index, one report under its header: PASS, or one line with the code
        header, *report = out.splitlines()
        assert (header, err) == (f"== {text}", "")
        assert code != 1  # the bounds are certified: every index passes
        if code:
            (line,) = report
            assert line.startswith(f"ERROR (exit {code}): ")
            message = line.removeprefix(f"ERROR (exit {code}): ")
        else:
            assert report[-1] == "PASS"
    else:
        message = err
    assert PINNED.get(call, code) == code
    expected = _expected_code(text)
    if expected is None:
        assert code in (0, 4), (code, message)
    else:
        assert code == expected
    if code:
        assert message.startswith(PREFIXES[code]), message
    if code == 4 and command != "verify":
        assert out == ""


for _call in PINNED:  # each pinned call runs first, with its code checked
    test_exit_code_follows_the_contract = example(call=_call)(test_exit_code_follows_the_contract)


def test_no_failure_type_is_a_subclass_of_another():
    # so the entry an error matches does not depend on the order of the table
    for a, b in itertools.permutations(cli._FAILURES, 2):
        assert not issubclass(a, b), (a, b)


BATCH = ["S(1,2)", "S(2,2)", "S(2,3)"]


@pytest.mark.parametrize("argv,read", [
    (["expand", "--output", "json", "S(1,2,3,4,5,6,7,2)"], 20),  # 3 MB, written in chunks
    (["expand", "S(1,2,3,4,5,6,7,2)"], 20),  # 1.7 MB, written at once
    (["verify", "--file", None], 0),  # a few lines, written at exit
], ids=["expand-json", "expand-plain", "verify-file"])
def test_closed_stdout_ends_quietly(argv, read, tmp_path):
    # the reader goes after a few bytes, or before the first: exit 1 and nothing on stderr
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(BATCH) + "\n")
    argv = [str(batch) if a is None else a for a in argv]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "eulersums.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
