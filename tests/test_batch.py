"""A sweep is analysed as one batch; each point must come out as if alone.

The property tests stack random points into one batch and compare every
report field with the same point analysed on its own, bit for bit.  That
holds because there is one path: a single point runs as a batch of one
through the same numpy ufuncs.  The ufuncs need not round as Python's
scalar arithmetic does (a vectorised complex multiply may fuse its
products with FMA, and did for ~44% of random inputs on an AVX-512 build),
but a batch and its one-element slices round alike.

The golden files below were written by the CLI before the batched
pipeline existed: an eternal JSON sweep (every report field, eigenvalue
lists included, compared byte for byte) and a single-point CSV (the
N = 1 batch).  Regenerate only when a change of output is intended and
stated:

    PYTHONPATH=src python tests/test_batch.py
"""

import contextlib
import io
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udleak.cli import main
from udleak.entanglement import analyze
from udleak.integrals import eternal_integral_set, gaussian_integral_set
from udleak.model import (ETERNAL, GAUSSIAN, DetectorPairConfig, FieldSpec,
                          InitialState, SwitchingSpec, stack_points, unstack,
                          validate_config)

GOLDEN = pathlib.Path(__file__).parent / "golden"

BATCH_PLANS = {
    "eternal_mass_alpha.json": [
        "--mode", "eternal", "--format", "json", "--validate",
        "--delta-e", "1.1", "--distance", "0.6", "--coupling-a", "0.1",
        "--coupling-b", "0.08", "--gamma-sign", "-",
        "--sweep", "mass=0:1.1:4", "--sweep", "alpha=0:1:4",
    ],
    "eternal_single_point.csv": [
        "--mode", "eternal", "--validate", "--delta-e", "1.3",
        "--mass", "0.3", "--distance", "0.9", "--coupling-a", "0.1",
        "--coupling-b", "0.12", "--alpha", "0.6",
    ],
}


def _scenario(de, mass, d, alpha, sign, ca, cb, sigma=None):
    gamma = sign * math.sqrt(max(1.0 - alpha * alpha, 0.0))
    return validate_config(
        DetectorPairConfig(delta_e=de, coupling_a=ca, coupling_b=cb, distance=d),
        FieldSpec(mass=mass), InitialState(alpha=alpha, gamma=gamma),
        SwitchingSpec(kind=ETERNAL if sigma is None else GAUSSIAN, sigma=sigma))


def _assert_batch_equals_points(scenarios, sets):
    batch = list(unstack(analyze(stack_points(scenarios), ints=stack_points(sets))))
    assert len(batch) == len(scenarios)
    for i, (sc, ints) in enumerate(zip(scenarios, sets)):
        # repr tells 0.0 from -0.0 and prints the shortest exact digits
        assert repr(batch[i]) == repr(analyze(sc, ints=ints)), i


def _state(max_coupling):
    """Amplitude, sign of gamma and the two couplings (0 = shielded)."""
    coupling = st.one_of(st.just(0.0), st.floats(1e-3, max_coupling))
    return st.tuples(st.floats(0.0, 1.0), st.sampled_from((1, -1)),
                     coupling, coupling)


_ETERNAL_POINT = st.tuples(st.floats(0.3, 3.0), st.floats(0.0, 3.0),
                           st.booleans(), st.floats(0.0, 3.0), _state(0.5))


@settings(max_examples=40, deadline=None)
@given(st.lists(_ETERNAL_POINT, min_size=1, max_size=12))
def test_eternal_batch_equals_each_point(points):
    # at_threshold puts the mass exactly on delta_e (every entry zero)
    scenarios = [_scenario(de, de if at_threshold else mass, d, *state)
                 for de, mass, at_threshold, d, state in points]
    _assert_batch_equals_points(
        scenarios, [eternal_integral_set(sc) for sc in scenarios])


@settings(max_examples=40, deadline=None)
@given(st.lists(_ETERNAL_POINT, min_size=1, max_size=12))
def test_stacked_validation_and_closed_forms_equal_each_point(points):
    scenarios = [_scenario(de, de if at_threshold else mass, d, *state)
                 for de, mass, at_threshold, d, state in points]
    # the stacked config: every numeric field an array, units.c included
    config = stack_points(scenarios)
    grid = validate_config(config.pair, config.field, config.state,
                           config.switching, config.units)
    assert [repr(sc) for sc in unstack(grid)] == [repr(sc) for sc in scenarios]
    assert ([repr(ints) for ints in unstack(eternal_integral_set(grid))]
            == [repr(eternal_integral_set(sc)) for sc in scenarios])


# (delta_e, mass, distance, sigma): the integral sets do not depend on the
# amplitudes or couplings, so a few windows computed once serve every point
_WINDOWS = ((1.0, 0.0, 0.5, 1.0), (1.2, 0.4, 0.0, 1.5), (0.9, 0.3, 1.2, 2.0))
_WINDOW_SETS = {}


def _window_set(k):
    if k not in _WINDOW_SETS:
        de, mass, d, sigma = _WINDOWS[k]
        sc = _scenario(de, mass, d, 1.0, 1, 0.1, 0.1, sigma=sigma)
        _WINDOW_SETS[k] = gaussian_integral_set(sc)
    return _WINDOW_SETS[k]


@settings(max_examples=40, deadline=None)
# couplings up to 0.2 keep the quadrature error in the trace below the
# 1e-8 that the spin-flip route requires
@given(st.lists(st.tuples(st.integers(0, len(_WINDOWS) - 1), _state(0.2)),
                min_size=1, max_size=12))
def test_gaussian_batch_equals_each_point(points):
    de_mass_d_sigma = [_WINDOWS[k] for k, _ in points]
    scenarios = [_scenario(de, mass, d, *state, sigma=sigma)
                 for (de, mass, d, sigma), (_, state) in zip(de_mass_d_sigma, points)]
    _assert_batch_equals_points(scenarios, [_window_set(k) for k, _ in points])


def _output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(BATCH_PLANS))
def test_batch_output_byte_identical(name):
    assert _output(BATCH_PLANS[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in BATCH_PLANS.items():
        (GOLDEN / name).write_text(_output(argv))
        print(f"wrote {GOLDEN / name}")
