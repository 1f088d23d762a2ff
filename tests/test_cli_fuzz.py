"""Property: every command line ends in a documented exit code.

Argument lists are drawn from RunPlan's own fields, so a new setting is
fuzzed with no change here.  Values come from a pool of ordinary numbers,
zero, extremes (+-1e-300, 1e150, 1e300), nan, inf and junk.  Each run
writes --output over an existing file.  The property: the exit code is 0,
1, 2 or 3; no traceback; on exit 0 the file holds the full output, on any
other code it is untouched; no temporary file is left behind.
"""

import contextlib
import io
from dataclasses import fields

from hypothesis import HealthCheck, given, settings, strategies as st

from udleak.cli import SWEEPABLE, RunPlan, main

NUMBERS = ("0.1", "0.5", "0.7", "1", "2", "0", "1e-300", "-1e-300", "1e150",
           "1e300", "nan", "inf", "-inf", "lots")

# mode is fixed per test and output by the property; sweeps are drawn apart
FUZZED = [f for f in fields(RunPlan) if f.name not in ("mode", "output", "sweep")]

SWEEP = st.builds(
    lambda name, start, stop, steps: ["--sweep", f"{name}={start}:{stop}:{steps}"],
    st.sampled_from(SWEEPABLE + ("bogus",)), st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS), st.integers(0, 3))

PREVIOUS = b"previous run\n"

FUZZ_SETTINGS = dict(derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _tokens(f):
    flag = "--" + f.name.replace("_", "-")
    kwargs = f.metadata["argparse"]
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    values = tuple(kwargs["choices"]) + ("junk",) if "choices" in kwargs else NUMBERS
    return st.sampled_from(values).map(lambda value: [flag, value])


@st.composite
def _argv(draw, base, max_sweeps):
    argv = list(base)
    for f in draw(st.lists(st.sampled_from(FUZZED), max_size=4,
                           unique_by=lambda f: f.name)):
        argv += draw(_tokens(f))
    for _ in range(draw(st.integers(0, max_sweeps))):
        argv += draw(SWEEP)
    return argv


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(tmp_path, argv):
    path = tmp_path / "rows.out"
    path.write_bytes(PREVIOUS)
    code, out, err = _main(argv + ["--output", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert out == ""
    if code == 0:
        assert path.read_text() == _main(argv)[1]
    else:
        assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["rows.out"]


@settings(max_examples=150, **FUZZ_SETTINGS)
@given(argv=_argv(["--mode", "eternal"], max_sweeps=2))
def test_eternal_argv_ends_in_exit_code(tmp_path, argv):
    _check(tmp_path, argv)


@settings(max_examples=25, **FUZZ_SETTINGS)
@given(argv=_argv(["--mode", "gaussian", "--sigma", "1"], max_sweeps=1))
def test_gaussian_argv_ends_in_exit_code(tmp_path, argv):
    _check(tmp_path, argv)
