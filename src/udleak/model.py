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


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Real scalar field of mass m (units E0/c^2) in the Minkowski vacuum."""

    mass: float = 0.0


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

    A stacked config (numeric fields as arrays over the points, as from
    stack_points) is checked as one batch, each check a mask; the first
    failing point in grid order raises with the messages it would raise
    alone.  channel_open records whether DeltaE > m c^2,
    i.e. whether the propagating (on-shell) channel is available; the
    exact threshold DeltaE = m c^2 counts as closed.
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
    shape = np.broadcast(*numbers.values()).shape
    # (passes, message, the value it names) per check; NaN fails every
    # comparison and inf passes them, so a point with a non-finite value is
    # named by the finiteness checks alone
    finite = [(np.isfinite(value), f"{name} must be finite, got {{}}", value)
              for name, value in numbers.items()]
    failed = np.zeros(shape, dtype=bool)
    for ok, _, _ in finite:
        failed |= ~ok
    with np.errstate(over="ignore"):   # a square that overflows is inf: not normalized
        norm = np.square(state.alpha) + np.square(state.gamma)
    checks = [
        (units.c > 0, "units.c must be positive, got {}", units.c),
        (pair.delta_e > 0, "pair.delta_e must be positive, got {}", pair.delta_e),
        (pair.coupling_a >= 0, "pair.coupling_a must be >= 0, got {}", pair.coupling_a),
        (pair.coupling_b >= 0, "pair.coupling_b must be >= 0, got {}", pair.coupling_b),
        (pair.distance >= 0, "pair.distance must be >= 0, got {}", pair.distance),
        (field_spec.mass >= 0, "field.mass must be >= 0, got {}", field_spec.mass),
        (abs(norm - 1.0) <= NORMALIZATION_TOL,
         "state amplitudes not normalized: alpha^2 + gamma^2 = {!r}", norm),
        (state.alpha >= 0,
         "state.alpha must be >= 0 (sign convention: gamma carries the sign)", None),
        (switching.kind != GAUSSIAN or (switching.sigma is not None
                                         and switching.sigma > 0),
         "switching.sigma must be positive for gaussian kind, got {}", switching.sigma),
        (switching.kind in (ETERNAL, GAUSSIAN),
         "switching.kind must be 'eternal' or 'gaussian', got {!r}", switching.kind),
    ]
    for ok, _, _ in checks:
        failed |= ~np.asarray(ok, dtype=bool)
    if failed.any():
        k = int(np.argmax(failed))
        # point k's plain Python value (a value shared by every point as is)
        at = lambda v: np.broadcast_to(np.asarray(v).astype(object), shape).flat[k]
        errors = [message.format(at(value)) for ok, message, value in finite if not at(ok)]
        errors = errors or [message.format(at(value))
                            for ok, message, value in checks if not at(ok)]
        raise ConfigError(errors)

    with np.errstate(over="ignore"):   # m c^2 may reach inf
        channel_open = pair.delta_e > field_spec.mass * np.square(units.c)
    return ValidatedScenario(
        pair=pair,
        field=field_spec,
        state=state,
        switching=switching,
        units=units,
        channel_open=channel_open if shape else bool(channel_open),
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
