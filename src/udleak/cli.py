"""Command-line front end: sweeps, validation runs, CSV/JSON emission.

A sweep is built as columns, one stacked scenario that is validated and
(eternal mode) integrated in one pass; only the Gaussian quadrature runs
point by point.  The CSV and the JSON are both written from one record of
those columns.  Output is deterministic: CSV floats carry 17 significant
digits, JSON floats are Python's shortest round-trip repr, grid order
follows sweep declaration order, no timestamps.  Exit codes: 0 success,
1 bad arguments (offending token named), an invalid scenario or a
computation that overflowed, 2 quadrature non-convergence, a --validate
tolerance breach or a failed trace or Hermiticity check of a density
matrix, 3 a perturbative-regime error under --strict.  A sweep that fails
names the first point in grid order that fails alone, with its own error,
found in O(log n) batch passes over the columns.  A warning raised while a
point's integrals are computed prints as one "udleak: warning:" line
naming the point.  An --output file is written whole, and only on exit 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .density import PERTURBATIVE_FAIL, PERTURBATIVE_WARN
from .entanglement import analyze
from .integrals import (QuadratureNonConvergence, QuadratureSettings,
                        eternal_integral_set, gaussian_integral_set)
from .linalg import MatrixCheckFailed
from .model import (ETERNAL, GAUSSIAN, ConfigError, DetectorPairConfig,
                    FieldSpec, InitialState, SwitchingSpec, UnitSystem,
                    stack_points, unstack, validate_config)
from .wightman import EPSILON_FLOOR

CSV_HEADER = ("mode,delta_e,mass,c,distance,coupling_a,coupling_b,alpha,"
              "gamma,sigma,initial_negativity,initial_concurrence,"
              "negativity_rate,concurrence_rate,negativity,concurrence,"
              "perturbative_ok,max_quad_error")

# numeric-vs-closed agreement bounds enforced by --validate; the actual
# bound also allows for the second-order truncation artifact (the exact
# spin-flip eigenvalues differ from the clamped numeric route by the
# square of the perturbative indicator) and the quadrature error
VALIDATE_TOL_ETERNAL = 1e-8
VALIDATE_TOL_GAUSSIAN = 1e-6


def _validate_tolerance(mode, report):
    base = VALIDATE_TOL_ETERNAL if mode == ETERNAL else VALIDATE_TOL_GAUSSIAN
    return np.maximum(np.maximum(base, 4.0 * np.square(report.perturbative_indicator)),
                      10.0 * report.max_quad_error)


class CliError(Exception):
    # not a ValueError: argparse passes it on unchanged from a type function
    pass


@dataclass(frozen=True)
class SweepSpec:
    name: str
    start: float
    stop: float
    steps: int


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


def _setting(default=None, sweepable=False, **argparse_kwargs):
    """A RunPlan field: its default, whether --sweep may vary it, and how
    argparse reads its --flag and config key."""
    return field(default=default,
                 metadata={"sweepable": sweepable, "argparse": argparse_kwargs})


@dataclass
class RunPlan:
    """Every setting of a run; each field is one --flag and one config key."""

    mode: str = _setting(ETERNAL, choices=(ETERNAL, GAUSSIAN))
    delta_e: float = _setting(1.0, sweepable=True, type=float)
    mass: float = _setting(0.0, sweepable=True, type=float)
    distance: float = _setting(0.0, sweepable=True, type=float)
    coupling_a: float = _setting(0.1, sweepable=True, type=float)
    coupling_b: float = _setting(0.1, sweepable=True, type=float)
    alpha: float = _setting(1.0 / math.sqrt(2.0), sweepable=True, type=float)
    gamma_sign: str = _setting("+", choices=("+", "-"))
    sigma: float | None = _setting(None, sweepable=True, type=float)
    c_light: float = _setting(1.0, type=float)
    epsilon: float = _setting(1e-3, type=float)
    p_max: float | None = _setting(None, type=float)
    quad_tol: float = _setting(1e-8, type=float)
    sweep: list = field(default_factory=list, metadata={"argparse": dict(
        action="append", type=_parse_sweep, metavar="name=start:stop:steps")})
    shield_b: bool = _setting(False, action="store_true")
    validate: bool = _setting(False, action="store_true")
    strict: bool = _setting(False, action="store_true")
    format: str = _setting("csv", choices=("csv", "json"))
    output: str | None = _setting(None)


SWEEPABLE = tuple(f.name for f in fields(RunPlan) if f.metadata.get("sweepable"))
_BOOLEANS = {f.name for f in fields(RunPlan) if f.type == "bool"}
_BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2; the contract here is status 1
    def error(self, message):
        raise CliError(message)


def _settings_parser(**kwargs):
    """One --flag per RunPlan field.  A setting not given stays out of the
    namespace, so RunPlan's own default applies."""
    parser = _Parser(argument_default=argparse.SUPPRESS, **kwargs)
    for f in fields(RunPlan):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            **f.metadata["argparse"])
    return parser


def _read_config(path, ns):
    """Parse a config file into `ns` with the settings parser, one line at
    a time: `key = value` becomes `--key=value` (a boolean: the bare flag
    when true, unset when false).  # starts a comment."""
    parser = _settings_parser(add_help=False, allow_abbrev=False)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise CliError(f"expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            flag = "--" + name.replace("_", "-")
            if name not in _BOOLEANS:
                tokens = [f"{flag}={value}"]
            elif value.lower() in _BOOLEAN_WORDS:
                vars(ns).pop(name, None)   # a later line overrides an earlier one
                tokens = [flag] if _BOOLEAN_WORDS[value.lower()] else []
            else:
                raise CliError(f"{name} needs a boolean, got {value!r}")
            parser.parse_args(tokens, ns)
        except CliError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None


def parse_args(argv) -> RunPlan:
    parser = _settings_parser(prog="udleak", description=__doc__)
    parser.add_argument("--config")
    config = getattr(parser.parse_args(argv), "config", None)

    # config lines first, then the command line again on top: flags
    # override config values, and their sweeps follow the config's
    ns = argparse.Namespace()
    if config:
        _read_config(config, ns)
    settings = vars(parser.parse_args(argv, ns))
    settings.pop("config", None)
    plan = RunPlan(**settings)

    for flag, value in (("--epsilon", plan.epsilon), ("--p-max", plan.p_max),
                        ("--quad-tol", plan.quad_tol)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} must be finite and positive, got {value}")
    if plan.epsilon < EPSILON_FLOOR:
        raise CliError(f"--epsilon must be >= {EPSILON_FLOOR}, got {plan.epsilon}")
    if not math.isfinite(2.0 * plan.epsilon):
        raise CliError(f"--epsilon {plan.epsilon} overflowed: the regulator "
                       "pair is 2 x epsilon and epsilon")
    if not (0.0 <= plan.alpha <= 1.0):
        raise CliError(f"alpha must lie in [0, 1], got {plan.alpha}")
    swept = [s.name for s in plan.sweep]
    for i, name in enumerate(swept):
        # a sweep that adds no grid axis would print repeated rows
        if name in swept[:i]:
            raise CliError(f"sweep parameter {name!r} is swept twice")
        if name == "sigma" and plan.mode != GAUSSIAN:
            raise CliError("sweep parameter 'sigma' needs --mode gaussian")
        if name == "coupling_b" and plan.shield_b:
            raise CliError("sweep parameter 'coupling_b' is held at 0 by --shield-b")
    if plan.mode == GAUSSIAN and plan.sigma is None and "sigma" not in swept:
        raise CliError("gaussian mode needs sigma (flag --sigma or a sweep)")
    if plan.mode != GAUSSIAN and plan.sigma is not None:
        raise CliError("--sigma needs --mode gaussian")
    return plan


def _grid(plan: RunPlan):
    """The grid as columns: (sweep point, every scenario value), each a
    dict of name -> array over the points (None for an unset value), in
    itertools.product order over the sweep axes, the first sweep outermost."""
    # an axis that overflows holds a non-finite point: validate_config names it
    with np.errstate(over="ignore", invalid="ignore"):
        axes = [np.linspace(spec.start, spec.stop, spec.steps) for spec in plan.sweep]
    n = math.prod(len(axis) for axis in axes)
    point = {spec.name: column.ravel() for spec, column in
             zip(plan.sweep, np.meshgrid(*axes, indexing="ij"))}
    params = {name: point[name] if name in point
              else None if getattr(plan, name) is None
              else np.full(n, getattr(plan, name), dtype=float)
              for name in SWEEPABLE}
    if plan.shield_b:
        params["coupling_b"] = np.zeros(n)
    return point, params


def _computed(plan, params, settings):
    """Validate, integrate and analyse the columns `params`: the validated
    grid, its stacked integral set, its report and the one-line warnings
    per point (index -> lines).  A failing stage raises a contract
    exception (_FAILURES) and names no point; _first_failure finds it."""
    alpha = params["alpha"]
    sign = -1.0 if plan.gamma_sign == "-" else 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = validate_config(
            DetectorPairConfig(*(params[k] for k in
                                 ("delta_e", "coupling_a", "coupling_b", "distance"))),
            FieldSpec(mass=params["mass"]),
            InitialState(alpha=alpha,
                         gamma=sign * np.sqrt(np.maximum(1.0 - np.square(alpha), 0.0))),
            SwitchingSpec(kind=ETERNAL) if plan.mode == ETERNAL
            else SwitchingSpec(kind=GAUSSIAN, sigma=params["sigma"]),
            UnitSystem(c=plan.c_light),
        )
        if plan.mode == ETERNAL:
            ints, notes = eternal_integral_set(grid), {0: _one_line_warnings(caught)}
        else:
            sets, notes = [], {}
            for i, scenario in enumerate(unstack(grid)):
                sets.append(gaussian_integral_set(scenario, settings))
                notes[i] = _one_line_warnings(caught)
            ints = stack_points(sets)
    with np.errstate(over="raise"):
        return grid, ints, analyze(grid, settings, ints=ints), notes


# the exceptions that end a run with an exit code and one line; an
# ArithmeticError is an overflow, a division by zero or a raised
# floating-point error
_FAILURES = (ConfigError, QuadratureNonConvergence, MatrixCheckFailed, ArithmeticError)


def _first_failure(plan, params, settings, n, exc):
    """(i, exception) of the first of the n points of the columns `params`,
    whose batch raised `exc`, that fails alone, or (None, None) when the
    point found passes alone.

    The points fail one by one, so the shortest failing prefix ends at
    that point: galloping over blocks of doubling length, then bisection
    of the first failing block, find it in O(log n) passes, each over
    points not yet known to pass.  Its own exception is that of a pass
    over it alone, which runs once, and only if no pass of the search
    (or the batch, at n = 1) already was one.
    """
    def fails(lo, hi):
        try:
            _computed(plan, {k: v if v is None else v[lo:hi]
                             for k, v in params.items()}, settings)
        except _FAILURES as failure:
            return failure
        return None

    # points [0, lo) pass and [lo, hi) holds a failing one; [0, n) fails;
    # own is the exception of a pass over exactly [lo, hi), or None
    lo, hi, own = 0, 1, exc if n == 1 else None
    while hi < n:
        own = fails(lo, hi)
        if own:
            break
        lo, hi = hi, min(2 * hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        own = fails(lo, mid)
        if own:
            hi = mid
        else:
            lo = mid
    own = own or fails(lo, hi)
    return (lo, own) if own else (None, None)


def _failure(exc, point, params, i):
    """Print the one line of a contract exception raised by grid point i
    of the columns (none named when they are empty); return its exit code."""
    if isinstance(exc, ConfigError):
        code, line = 1, f"invalid scenario: {exc}{_at(point, i)}"
    elif isinstance(exc, QuadratureNonConvergence):
        code, line = 2, f"quadrature non-convergence: {exc}{_at(point, i)}"
    elif isinstance(exc, MatrixCheckFailed):   # trace, Hermiticity or LAPACK
        code, line = 2, f"numeric check failed: {exc}{_at(params, i)}"
    else:
        code, line = 1, f"computation overflowed{_at(params, i)}: {exc}"
    print(f"udleak: {line}", file=sys.stderr)
    return code


def _at(columns: dict, i):
    """' at name=value, ...' naming grid point i of the columns; '' when
    there is none."""
    named = ", ".join(f"{k}={v[i].item()!r}" for k, v in columns.items()
                      if v is not None)
    return f" at {named}" if named else ""


def _record(plan, grid, report, ints):
    """The output as one record of columns, nested as each JSON record is.
    A leaf is an array over the points, an (n, k) array for a list of k
    values per point, or one value shared by every point (mode, c, None)."""
    return {
        "params": {
            "mode": plan.mode,
            "delta_e": grid.pair.delta_e,
            "mass": grid.field.mass,
            "c": grid.units.c,
            "distance": grid.pair.distance,
            "coupling_a": grid.pair.coupling_a,
            "coupling_b": grid.pair.coupling_b,
            "alpha": grid.state.alpha,
            "gamma": grid.state.gamma,
            "sigma": grid.switching.sigma,
        },
        "report": {f.name: getattr(report, f.name) for f in fields(report)[1:]},
        "integrals": {
            name: {"re": v.coeff.real, "im": v.coeff.imag,
                   "delta0_power": v.delta0_power, "err": v.err}
            for name, v in ints.entries().items()
        },
    }


def _csv_text(record, n):
    """CSV_HEADER and one row per point, from the record's params and the
    report columns the header names.  "%.17g" runs once per shared cell and
    per distinct bit pattern of a column (its uint64 view keeps -0.0 apart
    from 0.0); every row goes through one template in C-level % formatting."""
    columns = (list(record["params"].values())
               + [record["report"][name] for name in CSV_HEADER.split(",")[10:]])
    template, table = [], []
    for v in columns:
        if not isinstance(v, np.ndarray):
            text = "" if v is None else v if isinstance(v, str) else "%.17g" % v
            template.append(text.replace("%", "%%"))
        elif v.dtype == bool:
            template.append("%s")
            table.append(np.where(v, "true", "false"))
        else:
            bits, inverse = np.unique(v.view(np.uint64), return_inverse=True)
            template.append("%s")
            table.append(np.array(["%.17g" % x for x in bits.view(v.dtype)],
                                  dtype=object)[inverse])
    cells = np.array(table, dtype=object).T.ravel().tolist()
    return CSV_HEADER + "\n" + (",".join(template) + "\n") * n % tuple(cells)


def _json_layout(obj, indent, columns):
    """json.dumps(obj, indent=2) of one point's record nested at `indent`
    (a newline and spaces), with %s for each cell of an array leaf, whose
    column goes to `columns`; keys are strings."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        obj = list(obj.T)
    if isinstance(obj, np.ndarray):
        columns.append(obj)
        return "%s"
    inner = indent + "  "
    if isinstance(obj, dict):
        parts = [json.dumps(k).replace("%", "%%") + ": "
                 + _json_layout(v, inner, columns) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        parts = [_json_layout(v, inner, columns) for v in obj]
    else:
        return json.dumps(obj).replace("%", "%%")
    left, right = "{}" if isinstance(obj, dict) else "[]"
    return left + (inner + ("," + inner).join(parts) + indent if parts else "") + right


def _json_text(record, n):
    """json.dumps(rows, indent=2) + "\n" byte for byte, where rows are the
    n points' records.  json encodes in pure Python when indent is set;
    here the record is laid out once, and the cells of its columns go
    through json's C encoder in one call, row by row."""
    columns = []
    row = _json_layout(record, "\n  ", columns)
    cells = np.array(columns, dtype=object).T.ravel().tolist()
    # encoded JSON never holds a raw NUL: ensure_ascii escapes it in strings
    cells = json.dumps(cells, separators=("\0", ":"))[1:-1].split("\0")
    return ("[\n  " + ",\n  ".join([row] * n) + "\n]\n") % tuple(cells)


def _one_line_warnings(caught):
    """The distinct messages of the recorded warnings, each on one line;
    empties the record."""
    if not caught:
        return ()
    lines = tuple(dict.fromkeys(" ".join(str(w.message).split()) for w in caught))
    caught.clear()
    return lines


def run_plan(plan: RunPlan, out=None):
    """Execute the grid and emit records; returns the exit code.  The grid
    is built, validated and (eternal) integrated as columns, the Gaussian
    integrals point by point, and all of it analysed as one stacked batch;
    checks are masks over the batch's report.  A batch that fails
    reports the first point that fails alone (_first_failure).
    Messages and records follow in grid order."""
    out = out if out is not None else sys.stdout
    settings = QuadratureSettings(
        tol=plan.quad_tol,
        p_max=plan.p_max,
        eps_list=(2.0 * plan.epsilon, plan.epsilon),
    )

    point, params = _grid(plan)
    n = len(params["alpha"])
    try:
        grid, ints, batch, notes = _computed(plan, params, settings)
    except _FAILURES as exc:
        # the batch does not say which point failed: the first point in
        # grid order that fails alone does, with its own exception
        i, own = _first_failure(plan, params, settings, n, exc)
        return _failure(own, point, params, i) if own else _failure(exc, {}, {}, 0)

    tol = np.broadcast_to(_validate_tolerance(plan.mode, batch) if plan.validate
                          else np.inf, n)
    failed = batch.agreement > tol
    strict = (batch.perturbative_indicator > PERTURBATIVE_FAIL) & plan.strict
    warn = ~batch.perturbative_ok
    for i in sorted(set(np.flatnonzero(failed | strict | warn).tolist()) | notes.keys()):
        here = _at(point, i)
        for note in notes.get(i, ()):
            print(f"udleak: warning: {note}{here}", file=sys.stderr)
        if failed[i]:
            print("udleak: validation failed: closed-vs-numeric disagreement "
                  f"{batch.agreement[i]:.3e} exceeds {tol[i]:.3e}{here}",
                  file=sys.stderr)
        indicator = f"{batch.perturbative_indicator[i]:.3e}"
        if warn[i]:
            print(f"udleak: warning: perturbative indicator {indicator} exceeds "
                  f"{PERTURBATIVE_WARN:g}{here}", file=sys.stderr)
        if strict[i]:
            print(f"udleak: perturbative expansion invalid (indicator {indicator} > "
                  f"{PERTURBATIVE_FAIL:g}) under --strict{here}", file=sys.stderr)

    write = _csv_text if plan.format == "csv" else _json_text
    out.write(write(_record(plan, grid, batch, ints), n))
    return 3 if strict.any() else 2 if failed.any() else 0


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
    try:
        plan = parse_args(argv)
        if not plan.output:
            return run_plan(plan)
        buf = io.StringIO()
        code = run_plan(plan, out=buf)
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
