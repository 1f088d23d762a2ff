"""Command-line front end: sweeps, validation runs, CSV/JSON emission.

Output is deterministic: fixed float formatting (17 significant digits),
grid order follows sweep declaration order, no timestamps.  Exit codes:
0 success, 1 bad arguments (offending token named), 2 quadrature
non-convergence or a --validate tolerance breach, 3 a perturbative-regime
error under --strict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .entanglement import analyze
from .integrals import (QuadratureNonConvergence, QuadratureSettings,
                        eternal_integral_set, gaussian_integral_set)
from .model import (ETERNAL, GAUSSIAN, ConfigError, DetectorPairConfig,
                    FieldSpec, InitialState, SwitchingSpec, UnitSystem,
                    validate_config)
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
_CONFIG_OTHER = ("mode", "gamma_sign", "shield_b", "validate", "strict",
                 "format")


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

    plan = RunPlan()
    if ns.config:
        cfg = _read_config(ns.config)
        fmt = cfg.pop("format", None)
        if fmt is not None:
            if fmt not in ("csv", "json"):
                raise CliError(f"config format must be csv or json, got {fmt!r}")
            plan.fmt = fmt
        sign = cfg.pop("gamma_sign", None)
        if sign is not None:
            if sign not in ("+", "-"):
                raise CliError(f"config gamma_sign must be + or -, got {sign!r}")
            plan.gamma_sign = +1 if sign == "+" else -1
        mode = cfg.pop("mode", None)
        if mode is not None:
            if mode not in (ETERNAL, GAUSSIAN):
                raise CliError(f"config mode must be eternal or gaussian, got {mode!r}")
            plan.mode = mode
        for key, value in cfg.items():
            setattr(plan, key, value)

    for name in ("mode", "delta_e", "mass", "distance", "coupling_a",
                 "coupling_b", "alpha", "sigma", "c_light", "epsilon",
                 "p_max", "quad_tol", "shield_b", "validate", "strict",
                 "output"):
        value = getattr(ns, name)
        if value is not None:
            setattr(plan, name, value)
    if ns.fmt is not None:
        plan.fmt = ns.fmt
    if ns.gamma_sign is not None:
        plan.gamma_sign = +1 if ns.gamma_sign == "+" else -1
    if ns.sweep:
        plan.sweeps = plan.sweeps + [_parse_sweep(tok) for tok in ns.sweep]
    if plan.shield_b is None:
        plan.shield_b = False
    if plan.validate is None:
        plan.validate = False
    if plan.strict is None:
        plan.strict = False

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


def _scenario_for(plan: RunPlan, point: dict):
    params = dict(
        delta_e=plan.delta_e, mass=plan.mass, distance=plan.distance,
        coupling_a=plan.coupling_a, coupling_b=plan.coupling_b,
        alpha=plan.alpha, sigma=plan.sigma,
    )
    params.update(point)
    if plan.shield_b:
        params["coupling_b"] = 0.0
    gamma = plan.gamma_sign * math.sqrt(max(1.0 - params["alpha"] ** 2, 0.0))

    pair = DetectorPairConfig(
        delta_e=params["delta_e"],
        coupling_a=params["coupling_a"],
        coupling_b=params["coupling_b"],
        distance=params["distance"],
    )
    switching = (SwitchingSpec(kind=ETERNAL) if plan.mode == ETERNAL
                 else SwitchingSpec(kind=GAUSSIAN, sigma=params["sigma"]))
    scenario = validate_config(
        pair,
        FieldSpec(mass=params["mass"]),
        InitialState(alpha=params["alpha"], gamma=gamma),
        switching,
        UnitSystem(c=plan.c_light),
    )
    return scenario, params, gamma


def _fmt(x):
    if x is None:
        return ""
    return "%.17g" % x


def _csv_row(plan, params, gamma, report):
    eternal = plan.mode == ETERNAL
    cells = [
        plan.mode,
        _fmt(params["delta_e"]),
        _fmt(params["mass"]),
        _fmt(plan.c_light),
        _fmt(params["distance"]),
        _fmt(params["coupling_a"]),
        _fmt(params["coupling_b"]),
        _fmt(params["alpha"]),
        _fmt(gamma),
        "" if eternal else _fmt(params["sigma"]),
        _fmt(report.initial_negativity),
        _fmt(report.initial_concurrence),
        _fmt(report.negativity_rate),
        _fmt(report.concurrence_rate),
        _fmt(report.negativity),
        _fmt(report.concurrence),
        "true" if report.perturbative_ok else "false",
        _fmt(report.max_quad_error),
    ]
    return ",".join(cells)


def _json_record(plan, params, gamma, report, ints):
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
        "params": {
            "mode": plan.mode,
            "delta_e": params["delta_e"],
            "mass": params["mass"],
            "c": plan.c_light,
            "distance": params["distance"],
            "coupling_a": params["coupling_a"],
            "coupling_b": params["coupling_b"],
            "alpha": params["alpha"],
            "gamma": gamma,
            "sigma": None if plan.mode == ETERNAL else params["sigma"],
        },
        "report": {
            "initial_negativity": report.initial_negativity,
            "initial_concurrence": report.initial_concurrence,
            "negativity_rate": report.negativity_rate,
            "concurrence_rate": report.concurrence_rate,
            "negativity": report.negativity,
            "concurrence": report.concurrence,
            "pt_eigenvalues_closed": list(report.pt_eigenvalues_closed),
            "pt_eigenvalues_numeric": list(report.pt_eigenvalues_numeric),
            "wootters_closed": list(report.wootters_closed),
            "wootters_numeric": list(report.wootters_numeric),
            "negative_pt_index": report.negative_pt_index,
            "shielded": report.shielded,
            "agreement": report.agreement,
            "perturbative_indicator": report.perturbative_indicator,
            "perturbative_ok": report.perturbative_ok,
            "max_quad_error": report.max_quad_error,
        },
        "integrals": integrals,
    }


def run_plan(plan: RunPlan, out=None):
    """Execute the grid and emit records; returns the exit code."""
    out = out if out is not None else sys.stdout
    grids = [spec.values() for spec in plan.sweeps]
    names = [spec.name for spec in plan.sweeps]
    points = itertools.product(*grids) if grids else [()]

    settings = QuadratureSettings(
        tol=plan.quad_tol,
        p_max=plan.p_max,
        eps_list=(2.0 * plan.epsilon, plan.epsilon),
    )

    rows = []
    records = []
    exit_code = 0
    for combo in points:
        point = dict(zip(names, (float(v) for v in combo)))
        scenario, params, gamma = _scenario_for(plan, point)
        try:
            if plan.mode == ETERNAL:
                ints = eternal_integral_set(scenario)
            else:
                ints = gaussian_integral_set(scenario, settings)
        except QuadratureNonConvergence as exc:
            print(f"udleak: quadrature non-convergence: {exc}", file=sys.stderr)
            return 2
        report = analyze(scenario, settings, ints=ints)

        if plan.validate:
            tol = _validate_tolerance(plan.mode, report)
            if report.agreement > tol:
                print(
                    "udleak: validation failed: closed-vs-numeric disagreement "
                    f"{report.agreement:.3e} exceeds {tol:.3e}", file=sys.stderr,
                )
                exit_code = max(exit_code, 2)
        if not report.perturbative_ok:
            print(
                "udleak: warning: perturbative indicator "
                f"{report.perturbative_indicator:.3e} exceeds 0.1",
                file=sys.stderr,
            )
        if plan.strict and report.perturbative_indicator > 1.0:
            print(
                "udleak: perturbative expansion invalid (indicator "
                f"{report.perturbative_indicator:.3e} > 1) under --strict",
                file=sys.stderr,
            )
            exit_code = max(exit_code, 3)

        if plan.fmt == "csv":
            rows.append(_csv_row(plan, params, gamma, report))
        else:
            records.append(_json_record(plan, params, gamma, report, ints))

    if plan.fmt == "csv":
        text = CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)
    else:
        text = json.dumps(records, indent=2) + "\n"
    out.write(text)
    return exit_code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        plan = parse_args(argv)
    except CliError as exc:
        print(f"udleak: error: {exc}", file=sys.stderr)
        return 1
    try:
        if plan.output:
            with open(plan.output, "w", encoding="utf-8", newline="\n") as fh:
                return run_plan(plan, out=fh)
        return run_plan(plan)
    except ConfigError as exc:
        print(f"udleak: invalid scenario: {'; '.join(exc.messages)}",
              file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"udleak: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
