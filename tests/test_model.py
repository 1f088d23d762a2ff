import math
import warnings

import pytest

from udleak.model import (ETERNAL, GAUSSIAN, ConfigError, DetectorPairConfig,
                          FieldSpec, InitialState, SwitchingSpec, UnitSystem,
                          bell_state, stack_points, validate_config)


def _pair(**kw):
    base = dict(delta_e=1.0, coupling_a=0.1, coupling_b=0.1, distance=0.5)
    base.update(kw)
    return DetectorPairConfig(**base)


def test_valid_eternal_scenario():
    sc = validate_config(_pair(), FieldSpec(), bell_state(), SwitchingSpec())
    assert sc.channel_open
    assert sc.units.c == 1.0
    assert sc.switching.kind == ETERNAL


def test_bell_state_signs():
    plus = bell_state(+1)
    minus = bell_state(-1)
    assert plus.alpha == pytest.approx(1.0 / math.sqrt(2.0))
    assert plus.gamma == plus.alpha
    assert minus.gamma == -minus.alpha


def test_channel_closed_at_and_below_threshold():
    # the exact threshold DeltaE = m c^2 counts as closed
    at = validate_config(_pair(delta_e=1.0), FieldSpec(mass=1.0),
                         bell_state(), SwitchingSpec())
    below = validate_config(_pair(delta_e=0.5), FieldSpec(mass=1.0),
                            bell_state(), SwitchingSpec())
    assert not at.channel_open
    assert not below.channel_open


def test_channel_threshold_scales_with_c():
    sc = validate_config(_pair(delta_e=3.0), FieldSpec(mass=1.0),
                         bell_state(), SwitchingSpec(), UnitSystem(c=2.0))
    assert not sc.channel_open  # m c^2 = 4 > 3


def test_error_messages_accumulate():
    with pytest.raises(ConfigError) as exc:
        validate_config(_pair(delta_e=-1.0, coupling_a=-0.1),
                        FieldSpec(mass=-2.0), bell_state(), SwitchingSpec())
    messages = exc.value.messages
    assert len(messages) == 3
    assert any("delta_e" in m for m in messages)
    assert any("coupling_a" in m for m in messages)
    assert any("mass" in m for m in messages)


def test_normalization_enforced():
    with pytest.raises(ConfigError, match="not normalized"):
        validate_config(_pair(), FieldSpec(),
                        InitialState(alpha=0.8, gamma=0.7), SwitchingSpec())


def test_overflowing_norm_is_a_config_error():
    # alpha^2 overflows to inf, which is not normalized, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            validate_config(_pair(), FieldSpec(),
                            InitialState(alpha=1e200, gamma=0.0), SwitchingSpec())
    assert exc.value.messages == [
        "state amplitudes not normalized: alpha^2 + gamma^2 = inf"]


def test_alpha_sign_convention():
    with pytest.raises(ConfigError, match="alpha"):
        validate_config(_pair(), FieldSpec(),
                        InitialState(alpha=-0.6, gamma=0.8), SwitchingSpec())
    # gamma may be negative
    sc = validate_config(_pair(), FieldSpec(),
                         InitialState(alpha=0.6, gamma=-0.8), SwitchingSpec())
    assert sc.state.gamma == -0.8


def test_gaussian_needs_sigma():
    with pytest.raises(ConfigError, match="sigma"):
        validate_config(_pair(), FieldSpec(), bell_state(),
                        SwitchingSpec(kind=GAUSSIAN))
    sc = validate_config(_pair(), FieldSpec(), bell_state(),
                         SwitchingSpec(kind=GAUSSIAN, sigma=2.0))
    assert sc.switching.sigma == 2.0


def test_unknown_switching_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        validate_config(_pair(), FieldSpec(), bell_state(),
                        SwitchingSpec(kind="tophat"))


def test_shielded_coupling_allowed():
    sc = validate_config(_pair(coupling_b=0.0), FieldSpec(), bell_state(),
                         SwitchingSpec())
    assert sc.pair.coupling_b == 0.0


BAD_POINTS = {
    "negative-gap": (_pair(delta_e=-1.0), FieldSpec(), bell_state()),
    "nan-coupling": (_pair(coupling_a=math.nan), FieldSpec(mass=-1.0), bell_state()),
    "three-messages": (_pair(delta_e=-1.0, coupling_a=-0.1), FieldSpec(mass=-2.0),
                       bell_state()),
    "not-normalized": (_pair(), FieldSpec(), InitialState(alpha=0.8, gamma=0.7)),
    "overflowing-norm": (_pair(), FieldSpec(), InitialState(alpha=1e200, gamma=0.0)),
}


@pytest.mark.parametrize("name", sorted(BAD_POINTS))
def test_stacked_bad_point_raises_its_own_messages(name):
    with pytest.raises(ConfigError) as alone:
        validate_config(*BAD_POINTS[name], SwitchingSpec())
    good = (_pair(), FieldSpec(mass=0.5), bell_state(-1))
    # the bad point third, and a later bad point that must not report
    points = [good, good, BAD_POINTS[name], good, BAD_POINTS["negative-gap"]]
    with pytest.raises(ConfigError) as stacked:
        validate_config(*(stack_points(list(fields)) for fields in zip(*points)),
                        SwitchingSpec())
    assert stacked.value.messages == alone.value.messages
