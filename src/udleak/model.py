"""Physical configuration: detectors, field, switching, units, initial state.

All quantities use natural units with hbar = 1: energies in a reference unit
E0, times in 1/E0, distances in c/E0.  The speed of light c is kept explicit
so that the mass threshold DeltaE > m c^2 reads the same as on paper.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised by validate_config with field-level messages."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


NORMALIZATION_TOL = 1e-12

ETERNAL = "eternal"
GAUSSIAN = "gaussian"


@dataclass(frozen=True, slots=True)
class UnitSystem:
    """Unit conventions. Only c is a free parameter; hbar = 1 throughout."""

    c: float = 1.0


@dataclass(frozen=True, slots=True)
class InitialState:
    """Amplitudes of the entangled start state alpha|gg> + gamma|ee>.

    Both amplitudes are real; alpha is taken >= 0 without loss of
    generality while gamma keeps its sign (the sign decides which
    partial-transpose eigenvalue goes negative).
    """

    alpha: float
    gamma: float


@dataclass(frozen=True, slots=True)
class DetectorPairConfig:
    """Two identical-gap static detectors a distance d apart.

    The couplings may differ (coupling_b = 0 models a shielded detector B).
    """

    delta_e: float
    coupling_a: float
    coupling_b: float
    distance: float = 0.0
    trajectory: str = "static"


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Real scalar field of mass m (units E0/c^2) in the Minkowski vacuum."""

    mass: float = 0.0
    state: str = "minkowski-vacuum"


@dataclass(frozen=True, slots=True)
class SwitchingSpec:
    """Interaction window: eternal (chi = 1) or Gaussian chi = exp(-t^2/2s^2)."""

    kind: str = ETERNAL
    sigma: float | None = None


@dataclass(frozen=True, slots=True)
class ValidatedScenario:
    """Bundle of validated configuration, safe to share between evaluators."""

    pair: DetectorPairConfig
    field: FieldSpec
    state: InitialState
    switching: SwitchingSpec
    units: UnitSystem = field(default_factory=UnitSystem)
    channel_open: bool = False


def validate_config(pair, field_spec, state, switching, units=None):
    """Check every invariant and return a ValidatedScenario.

    channel_open records whether DeltaE > m c^2, i.e. whether the
    propagating (on-shell) channel is available; the exact threshold
    DeltaE = m c^2 counts as closed.
    """
    units = units or UnitSystem()
    numbers = {
        "units.c": units.c, "pair.delta_e": pair.delta_e,
        "pair.coupling_a": pair.coupling_a, "pair.coupling_b": pair.coupling_b,
        "pair.distance": pair.distance, "field.mass": field_spec.mass,
        "state.alpha": state.alpha, "state.gamma": state.gamma,
    }
    if switching.sigma is not None:
        numbers["switching.sigma"] = switching.sigma
    # NaN fails every comparison below and inf passes them; stop here first
    errors = [f"{name} must be finite, got {value}"
              for name, value in numbers.items() if not math.isfinite(value)]
    if errors:
        raise ConfigError(errors)

    if not units.c > 0:
        errors.append(f"units.c must be positive, got {units.c}")
    if not pair.delta_e > 0:
        errors.append(f"pair.delta_e must be positive, got {pair.delta_e}")
    if pair.coupling_a < 0:
        errors.append(f"pair.coupling_a must be >= 0, got {pair.coupling_a}")
    if pair.coupling_b < 0:
        errors.append(f"pair.coupling_b must be >= 0, got {pair.coupling_b}")
    if pair.distance < 0:
        errors.append(f"pair.distance must be >= 0, got {pair.distance}")
    if pair.trajectory != "static":
        errors.append(f"pair.trajectory must be 'static', got {pair.trajectory!r}")
    if field_spec.mass < 0:
        errors.append(f"field.mass must be >= 0, got {field_spec.mass}")
    if field_spec.state != "minkowski-vacuum":
        errors.append(f"field.state must be 'minkowski-vacuum', got {field_spec.state!r}")

    norm = state.alpha**2 + state.gamma**2
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        errors.append(
            f"state amplitudes not normalized: alpha^2 + gamma^2 = {norm!r}"
        )
    if state.alpha < 0:
        errors.append("state.alpha must be >= 0 (sign convention: gamma carries the sign)")

    if switching.kind == GAUSSIAN:
        if switching.sigma is None or not switching.sigma > 0:
            errors.append(f"switching.sigma must be positive for gaussian kind, got {switching.sigma}")
    elif switching.kind == ETERNAL:
        pass
    else:
        errors.append(f"switching.kind must be 'eternal' or 'gaussian', got {switching.kind!r}")

    if errors:
        raise ConfigError(errors)

    channel_open = pair.delta_e > field_spec.mass * units.c**2
    return ValidatedScenario(
        pair=pair,
        field=field_spec,
        state=state,
        switching=switching,
        units=units,
        channel_open=channel_open,
    )


def bell_state(sign=+1):
    """The maximally entangled start state alpha = |gamma| = 1/sqrt(2)."""
    a = 1.0 / math.sqrt(2.0)
    return InitialState(alpha=a, gamma=math.copysign(a, sign))


def stack_points(items):
    """One object of the items' dataclass type with a leading grid axis.

    Numeric fields become arrays over the points, in order; fields that are
    not numbers (kinds, labels, None) must agree and are kept once.  The
    array code downstream reads the result like a single point.
    """
    first = items[0]
    if is_dataclass(first):
        return type(first)(**{f.name: stack_points([getattr(x, f.name) for x in items])
                              for f in fields(first)})
    if isinstance(first, numbers.Number):
        return np.array(items)
    if any(x != first for x in items):
        raise ValueError(f"points disagree in a non-numeric field: {first!r}")
    return first


def unstack(batch):
    """Iterate over the points of a stacked object in grid order, as objects
    of the same type holding plain Python numbers (vectors as tuples)."""
    if is_dataclass(batch):
        names = [f.name for f in fields(batch)]
        rows = zip(*(unstack(getattr(batch, name)) for name in names))
        return (type(batch)(**dict(zip(names, row))) for row in rows)
    if isinstance(batch, np.ndarray):
        values = batch.tolist()
        return map(tuple, values) if batch.ndim > 1 else iter(values)
    return itertools.repeat(batch)   # shared by every point
