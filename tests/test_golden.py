"""Golden-output contract for the command-line front end.

The files under tests/golden/ were written by the CLI itself for the plans
below.  Eternal CSV output must match byte for byte; the Gaussian JSON
output is compared field by field to 1e-12 absolute, which is the room a
change of eigensolver or Bessel routine leaves the numeric route.

Regenerate (only when a change of output is intended and stated):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from udleak.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

_COUPLINGS = ["--coupling-a", "0.1", "--coupling-b", "0.12"]

ETERNAL_PLANS = {
    "eternal_mass_alpha.csv": [
        "--mode", "eternal", "--validate", "--delta-e", "1.2",
        "--distance", "0.7", *_COUPLINGS,
        "--sweep", "mass=0:1.2:5", "--sweep", "alpha=0:1:5",
    ],
    "eternal_shielded_minus.csv": [
        "--mode", "eternal", "--validate", "--delta-e", "1",
        "--distance", "0.4", *_COUPLINGS, "--shield-b", "--gamma-sign", "-",
        "--sweep", "mass=0:0.9:3", "--sweep", "alpha=0.2:0.9:3",
    ],
}

GAUSSIAN_PLANS = {
    "gaussian_massless_massive.json": [
        "--mode", "gaussian", "--format", "json", "--validate",
        "--delta-e", "1", "--alpha", "0.7", "--sigma", "1", *_COUPLINGS,
        "--sweep", "mass=0:0.4:2", "--sweep", "distance=0.5:1.5:2",
    ],
}

JSON_ABS_TOL = 1e-12


def _output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def _assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, path
    else:
        assert abs(got - want) <= JSON_ABS_TOL, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(ETERNAL_PLANS))
def test_eternal_csv_byte_identical(name):
    assert _output(ETERNAL_PLANS[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(GAUSSIAN_PLANS))
def test_gaussian_json_within_tolerance(name):
    got = json.loads(_output(GAUSSIAN_PLANS[name]))
    want = json.loads((GOLDEN / name).read_text())
    _assert_close(got, want)


def _as_config(argv):
    """The plan's flags as config lines: `--name value` becomes
    `name = value`, a bare flag `name = true`."""
    lines, tokens = [], list(argv)
    while tokens:
        key = tokens.pop(0)[2:]
        value = tokens.pop(0) if tokens and not tokens[0].startswith("--") else "true"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted({**ETERNAL_PLANS, **GAUSSIAN_PLANS}))
def test_plan_as_config_file_prints_the_same(tmp_path, name):
    argv = {**ETERNAL_PLANS, **GAUSSIAN_PLANS}[name]
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(_as_config(argv))
    assert _output(["--config", str(cfg)]) == _output(argv)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**ETERNAL_PLANS, **GAUSSIAN_PLANS}.items():
        (GOLDEN / name).write_text(_output(argv))
        print(f"wrote {GOLDEN / name}")
