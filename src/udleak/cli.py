"""Command-line front end: sweeps, validation runs, CSV/JSON emission.

Output is deterministic: fixed float formatting (17 significant digits),
grid order follows sweep declaration order, no timestamps.  Exit codes:
0 success, 1 bad arguments (offending token named) or a computation that
overflowed, 2 quadrature non-convergence or a --validate tolerance breach,
3 a perturbative-regime error under --strict.  An --output file is written
whole, and only on exit 0.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .entanglement import analyze
from .integrals import (QuadratureNonConvergence, QuadratureSettings,
                        eternal_integral_set, gaussian_integral_set)
from .model import (ETERNAL, GAUSSIAN, ConfigError, DetectorPairConfig,
                    FieldSpec, InitialState, SwitchingSpec, UnitSystem,
                    stack_points, unstack, validate_config)
from .wightman import EPSILON_FLOOR

CSV_HEADER = ("mode,delta_e,mass,c,distance,coupling_a,coupling_b,alpha,"
              "gamma,sigma,initial_negativity,initial_concurrence,"
              "negativity_rate,concurrence_rate,negativity,concurrence,"
              "perturbative_ok,max_quad_error")

SWEEPABLE = ("delta_e", "mass", "distance", "coupling_a", "coupling_b",
             "alpha", "sigma")

# numeric-vs-closed agreement bounds enforced by --validate; the actual
# bound also allows for the second-order truncation artifact (the exact
# spin-flip eigenvalues differ from the clamped numeric route by the
# square of the perturbative indicator) and the quadrature error
VALIDATE_TOL_ETERNAL = 1e-8
VALIDATE_TOL_GAUSSIAN = 1e-6


def _validate_tolerance(mode, report):
    base = VALIDATE_TOL_ETERNAL if mode == ETERNAL else VALIDATE_TOL_GAUSSIAN
    return max(base, 4.0 * report.perturbative_indicator**2,
               10.0 * report.max_quad_error)


class CliError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    name: str
    start: float
    stop: float
    steps: int

    def values(self):
        return np.linspace(self.start, self.stop, self.steps)


@dataclass
class RunPlan:
    mode: str = ETERNAL
    delta_e: float = 1.0
    mass: float = 0.0
    distance: float = 0.0
    coupling_a: float = 0.1
    coupling_b: float = 0.1
    alpha: float = 1.0 / math.sqrt(2.0)
    gamma_sign: int = +1
    sigma: float | None = None
    c_light: float = 1.0
    epsilon: float = 1e-3
    p_max: float | None = None
    quad_tol: float = 1e-8
    sweeps: list = field(default_factory=list)
    shield_b: bool = False
    validate: bool = False
    strict: bool = False
    fmt: str = "csv"
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2; the contract here is status 1
    def error(self, message):
        raise CliError(message)


def _parse_sweep(token):
    try:
        name, grid = token.split("=", 1)
        start_s, stop_s, steps_s = grid.split(":")
        spec = SweepSpec(name.strip(), float(start_s), float(stop_s),
                         int(steps_s))
    except ValueError:
        raise CliError(
            f"malformed sweep {token!r}, expected name=start:stop:steps"
        ) from None
    if spec.name not in SWEEPABLE:
        raise CliError(
            f"sweep parameter {spec.name!r} not in {', '.join(SWEEPABLE)}"
        )
    if not (math.isfinite(spec.start) and math.isfinite(spec.stop)):
        raise CliError(f"sweep {token!r}: start and stop must be finite")
    if spec.steps < 1:
        raise CliError(f"sweep {token!r}: steps must be >= 1")
    if spec.start > spec.stop:
        raise CliError(f"sweep {token!r}: start must be <= stop")
    return spec


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")

_CONFIG_FLOAT = ("delta_e", "mass", "distance", "coupling_a", "coupling_b",
                 "alpha", "sigma", "c_light", "epsilon", "p_max", "quad_tol")


def _read_config(path):
    """One `key = value` per line, # comments; keys match the long flags."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "sweep":
            out.setdefault("sweeps", []).append(_parse_sweep(value))
        elif key in _CONFIG_FLOAT:
            try:
                out[key] = float(value)
            except ValueError:
                raise CliError(
                    f"{path}:{lineno}: {key} needs a number, got {value!r}"
                ) from None
        elif key in ("shield_b", "validate", "strict"):
            low = value.lower()
            if low in _BOOL_TRUE:
                out[key] = True
            elif low in _BOOL_FALSE:
                out[key] = False
            else:
                raise CliError(f"{path}:{lineno}: {key} needs a boolean, got {value!r}")
        elif key in ("mode", "gamma_sign", "format", "output"):
            out[key] = value
        else:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
    return out


def parse_args(argv) -> RunPlan:
    parser = _Parser(prog="udleak", add_help=True, description=__doc__)
    add = parser.add_argument
    add("--mode", choices=(ETERNAL, GAUSSIAN))
    add("--delta-e", type=float, dest="delta_e")
    add("--mass", type=float)
    add("--distance", type=float)
    add("--coupling-a", type=float, dest="coupling_a")
    add("--coupling-b", type=float, dest="coupling_b")
    add("--alpha", type=float)
    add("--gamma-sign", choices=("+", "-"), dest="gamma_sign")
    add("--sigma", type=float)
    add("--c-light", type=float, dest="c_light")
    add("--epsilon", type=float)
    add("--p-max", type=float, dest="p_max")
    add("--quad-tol", type=float, dest="quad_tol")
    add("--sweep", action="append", default=[], metavar="name=start:stop:steps")
    add("--shield-b", action="store_true", default=None, dest="shield_b")
    add("--validate", action="store_true", default=None)
    add("--strict", action="store_true", default=None)
    add("--format", choices=("csv", "json"), dest="fmt")
    add("--output")
    add("--config")
    ns = parser.parse_args(argv)

    # config values first, then every flag given on the command line
    values = _read_config(ns.config) if ns.config else {}
    for key, choices in (("format", ("csv", "json")), ("gamma_sign", ("+", "-")),
                         ("mode", (ETERNAL, GAUSSIAN))):
        if key in values and values[key] not in choices:
            raise CliError(f"config {key} must be {' or '.join(choices)}, "
                           f"got {values[key]!r}")
    if "format" in values:
        values["fmt"] = values.pop("format")
    sweeps = values.pop("sweeps", []) + [_parse_sweep(tok) for tok in ns.sweep]
    values.update((key, value) for key, value in vars(ns).items()
                  if value is not None and key not in ("config", "sweep"))
    plan = RunPlan(**values, sweeps=sweeps)
    plan.gamma_sign = -1 if plan.gamma_sign == "-" else +1

    for flag, value in (("--epsilon", plan.epsilon), ("--p-max", plan.p_max),
                        ("--quad-tol", plan.quad_tol)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} must be finite and positive, got {value}")
    if plan.epsilon < EPSILON_FLOOR:
        raise CliError(f"--epsilon must be >= {EPSILON_FLOOR}, got {plan.epsilon}")
    if not (0.0 <= plan.alpha <= 1.0):
        raise CliError(f"alpha must lie in [0, 1], got {plan.alpha}")
    if plan.mode == GAUSSIAN and plan.sigma is None and not any(
            s.name == "sigma" for s in plan.sweeps):
        raise CliError("gaussian mode needs sigma (flag --sigma or a sweep)")
    return plan


def _grid(plan: RunPlan):
    """(sweep point, every scenario value) dict pairs in grid order."""
    names = [spec.name for spec in plan.sweeps]
    base = dict(
        delta_e=plan.delta_e, mass=plan.mass, distance=plan.distance,
        coupling_a=plan.coupling_a, coupling_b=plan.coupling_b,
        alpha=plan.alpha, sigma=plan.sigma,
    )
    for combo in itertools.product(*(spec.values() for spec in plan.sweeps)):
        point = dict(zip(names, (float(v) for v in combo)))
        params = {**base, **point}
        if plan.shield_b:
            params["coupling_b"] = 0.0
        yield point, params


def _scenario_for(plan: RunPlan, params: dict):
    gamma = plan.gamma_sign * math.sqrt(max(1.0 - params["alpha"] ** 2, 0.0))
    pair = DetectorPairConfig(
        delta_e=params["delta_e"],
        coupling_a=params["coupling_a"],
        coupling_b=params["coupling_b"],
        distance=params["distance"],
    )
    switching = (SwitchingSpec(kind=ETERNAL) if plan.mode == ETERNAL
                 else SwitchingSpec(kind=GAUSSIAN, sigma=params["sigma"]))
    return validate_config(
        pair,
        FieldSpec(mass=params["mass"]),
        InitialState(alpha=params["alpha"], gamma=gamma),
        switching,
        UnitSystem(c=plan.c_light),
    )


def _at(values: dict):
    """' at name=value, ...' naming a grid point; '' when there is none."""
    named = ", ".join(f"{k}={v!r}" for k, v in values.items() if v is not None)
    return f" at {named}" if named else ""


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (str, bool)):
        return str(x).lower()   # the mode; true/false
    return "%.17g" % x


def _params_record(plan, sc):
    """The scenario's values, keyed like the CSV's first columns."""
    return {
        "mode": plan.mode,
        "delta_e": sc.pair.delta_e,
        "mass": sc.field.mass,
        "c": sc.units.c,
        "distance": sc.pair.distance,
        "coupling_a": sc.pair.coupling_a,
        "coupling_b": sc.pair.coupling_b,
        "alpha": sc.state.alpha,
        "gamma": sc.state.gamma,
        "sigma": sc.switching.sigma,
    }


def _csv_row(params, report):
    report_columns = CSV_HEADER.split(",")[len(params):]
    return ",".join([_fmt(v) for v in params.values()]
                    + [_fmt(getattr(report, name)) for name in report_columns])


def _json_record(params, report, ints):
    integrals = {
        name: {
            "re": v.coeff.real,
            "im": v.coeff.imag,
            "delta0_power": v.delta0_power,
            "err": v.err,
        }
        for name, v in ints.entries().items()
    }
    return {
        "params": params,
        "report": {f.name: getattr(report, f.name) for f in fields(report)[1:]},
        "integrals": integrals,
    }


def run_plan(plan: RunPlan, out=None):
    """Execute the grid and emit records; returns the exit code.  Points are
    validated and integrated one by one, then analysed as one stacked batch;
    messages and records follow in grid order."""
    out = out if out is not None else sys.stdout
    settings = QuadratureSettings(
        tol=plan.quad_tol,
        p_max=plan.p_max,
        eps_list=(2.0 * plan.epsilon, plan.epsilon),
    )

    scenarios, sets = [], []
    for point, params in _grid(plan):
        try:
            scenario = _scenario_for(plan, params)
            ints = (eternal_integral_set(scenario) if plan.mode == ETERNAL
                    else gaussian_integral_set(scenario, settings))
        except QuadratureNonConvergence as exc:
            print(f"udleak: quadrature non-convergence: {exc}{_at(point)}",
                  file=sys.stderr)
            return 2
        except OverflowError as exc:
            print(f"udleak: computation overflowed{_at(params)}: {exc}",
                  file=sys.stderr)
            return 1
        scenarios.append(scenario)
        sets.append(ints)
    # from here on the stacks carry the grid; the per-point objects go
    grid, ints = stack_points(scenarios), stack_points(sets)
    del scenarios, sets
    try:
        with np.errstate(over="raise"):
            batch = analyze(grid, settings, ints=ints)
    except (OverflowError, FloatingPointError) as exc:
        print(f"udleak: computation overflowed in the measures of the grid: {exc}",
              file=sys.stderr)
        return 1

    rows = []
    exit_code = 0
    point_sets = unstack(ints) if plan.fmt == "json" else itertools.repeat(None)
    for (point, _), scenario, report, point_ints in zip(
            _grid(plan), unstack(grid), unstack(batch), point_sets):
        if plan.validate:
            tol = _validate_tolerance(plan.mode, report)
            if report.agreement > tol:
                print(
                    "udleak: validation failed: closed-vs-numeric disagreement "
                    f"{report.agreement:.3e} exceeds {tol:.3e}{_at(point)}",
                    file=sys.stderr,
                )
                exit_code = max(exit_code, 2)
        if not report.perturbative_ok:
            print(
                "udleak: warning: perturbative indicator "
                f"{report.perturbative_indicator:.3e} exceeds 0.1{_at(point)}",
                file=sys.stderr,
            )
        if plan.strict and report.perturbative_indicator > 1.0:
            print(
                "udleak: perturbative expansion invalid (indicator "
                f"{report.perturbative_indicator:.3e} > 1) under --strict{_at(point)}",
                file=sys.stderr,
            )
            exit_code = max(exit_code, 3)

        params = _params_record(plan, scenario)
        rows.append(_csv_row(params, report) if plan.fmt == "csv"
                    else _json_record(params, report, point_ints))

    if plan.fmt == "csv":
        text = CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)
    else:
        text = json.dumps(rows, indent=2) + "\n"
    out.write(text)
    return exit_code


def _write_whole(path, text):
    """Write to a new temporary file beside `path`, then rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        plan = parse_args(argv)
    except CliError as exc:
        print(f"udleak: error: {exc}", file=sys.stderr)
        return 1
    try:
        if not plan.output:
            return run_plan(plan)
        buf = io.StringIO()
        code = run_plan(plan, out=buf)
    except ConfigError as exc:
        print(f"udleak: invalid scenario: {'; '.join(exc.messages)}",
              file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"udleak: error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        try:
            _write_whole(plan.output, buf.getvalue())
        except OSError as exc:
            print(f"udleak: error: cannot write {plan.output}: {exc}",
                  file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
