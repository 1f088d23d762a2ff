"""Span tracing at udleak's layer boundaries, from the benchmark's side.

Wrappers replace module attributes at the names the calling module looks
up at call time (for example udleak.integrals.quad, which the integral
evaluators call by that global name), so the library itself is untouched.
Each call becomes a span (name, start, end, parent) kept in compact
arrays in memory; per-layer numbers are derived from the spans at the end
and the spans are written out once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

from workloads import ORACLE_ENTRIES, entry_slug


def _mass_class(scenario, *args, **kwargs):
    return "massive" if scenario.field.mass > 0 else "massless"


def _oracle_entry(entry, *args, **kwargs):
    return entry_slug(entry)


# (module, attribute the caller looks up, span name, tag of the call)
BOUNDARIES = (
    ("udleak.cli", "run_plan", "cli.run_plan", None),
    ("udleak.cli", "validate_config", "model.validate_config", None),
    ("udleak.cli", "eternal_integral_set", "integrals.eternal_integral_set", None),
    ("udleak.cli", "gaussian_integral_set", "integrals.gaussian_integral_set", _mass_class),
    ("udleak.cli", "analyze", "entanglement.analyze", None),
    ("udleak.entanglement", "evolved_density", "density.evolved_density", None),
    ("udleak.entanglement", "negativity_numeric", "entanglement.negativity_numeric", None),
    ("udleak.entanglement", "concurrence_numeric", "entanglement.concurrence_numeric", None),
    ("udleak.entanglement", "pt_eigenvalues_closed", "entanglement.pt_eigenvalues_closed", None),
    ("udleak.entanglement", "wootters_closed_exact", "entanglement.wootters_closed_exact", None),
    ("udleak.entanglement", "leakage_rates", "entanglement.leakage_rates", None),
    ("udleak.linalg", "hermitian_eigensystem", "linalg.hermitian_eigensystem", None),
    ("udleak.integrals", "gaussian_integral_set", "integrals.gaussian_integral_set", _mass_class),
    ("udleak.integrals", "quad", "integrals.quad", None),
    ("udleak.integrals", "switching_fourier", "wightman.switching_fourier", None),
    ("udleak.integrals", "wightman_position", "wightman.wightman_position", None),
    ("udleak.wightman", "bessel_k1", "wightman.bessel_k1", None),
    ("udleak.integrals", "oracle_quadrature", "integrals.oracle_quadrature", _oracle_entry),
)


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _name_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, fn, span_name, tag=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span_name if tag is None else f"{span_name}.{tag(*args, **kwargs)}"
            idx = len(self.start)
            self.name.append(self._name_id(label))
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for module, attr, span_name, tag in BOUNDARIES:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, span_name, tag))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def arrays(self):
        """name id, parent index, start, end as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


class _Spans:
    """Vectorised queries over a tracer's spans."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name, self.parent, start, end = tracer.arrays()
        self.dur = end - start
        has_parent = self.parent >= 0
        # child time: sum of the durations of each span's direct children
        self.child = np.bincount(self.parent[has_parent],
                                 weights=self.dur[has_parent],
                                 minlength=len(self.dur))
        self.self_time = self.dur - self.child

    def ids(self, *labels):
        return [self.names.index(x) for x in labels if x in self.names]

    def mask(self, *labels):
        return np.isin(self.name, self.ids(*labels))

    def child_of(self, mask, parent_mask):
        """The spans in `mask` whose parent is in `parent_mask`."""
        ok = mask & (self.parent >= 0)
        out = np.zeros_like(mask)
        out[ok] = parent_mask[self.parent[ok]]
        return out

    def parents_of(self, mask):
        """Mask of the spans that have at least one child in `mask`."""
        out = np.zeros(len(self.dur), dtype=bool)
        out[self.parent[mask & (self.parent >= 0)]] = True
        return out

    def count(self, *labels):
        return int(self.mask(*labels).sum())

    def total(self, *labels):
        return float(self.dur[self.mask(*labels)].sum())


def _ratio(num, den):
    return num / den if den else 0.0


GIS = "integrals.gaussian_integral_set"
ORACLE = "integrals.oracle_quadrature"
MASS_CLASSES = ("massless", "massive")

# per-layer metric names and units, in report order
LAYER_UNITS = {
    "cli.self_ms_per_point": "ms",
    "model.validate_config.us_per_call": "us",
    "integrals.eternal_integral_set.us_per_call": "us",
    "density.evolved_density.us_per_call": "us",
    "linalg.hermitian_eigensystem.calls_per_point": "count",
    "linalg.hermitian_eigensystem.us_per_call": "us",
    "entanglement.analyze.self_us_per_point": "us",
    "entanglement.numeric.us_per_point": "us",
    "entanglement.closed.us_per_point": "us",
    **{f"{GIS}.ms_per_call.{c}": "ms" for c in MASS_CLASSES},
    "integrals.radial.ms_per_point": "ms",
    **{f"integrals.y_ab.ms_per_point.{c}": "ms" for c in MASS_CLASSES},
    "integrals.quad.calls_per_point": "count",
    **{f"wightman.wightman_position.calls_per_point.{c}": "count"
       for c in MASS_CLASSES},
    "wightman.switching_fourier.calls_per_point": "count",
    "wightman.bessel_k1.calls_per_point": "count",
    "wightman.bessel_k1.us_per_call": "us",
    **{f"{ORACLE}.ms.{entry_slug(e)}": "ms" for e in ORACLE_ENTRIES},
    f"{ORACLE}.calls_per_entry": "count",
    **{f"crosscheck.gap.{entry_slug(e)}": "ratio" for e in ORACLE_ENTRIES},
    "crosscheck.max_gap": "ratio",
    "setup.import_udleak_ms": "ms",
    "setup.import_scipy_integrate_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer):
    """Per-layer numbers from the spans; 0 where a workload never enters
    the layer. Per point means per analyze call (grid point) for the
    per-point path and per Gaussian integral set for the quadrature path."""
    s = _Spans(tracer)
    m = {}

    points = s.count("entanglement.analyze")
    run_plan = s.mask("cli.run_plan")
    m["cli.self_ms_per_point"] = 1e3 * _ratio(s.self_time[run_plan].sum(), points)
    for label in ("model.validate_config", "integrals.eternal_integral_set",
                  "density.evolved_density", "linalg.hermitian_eigensystem"):
        m[f"{label}.us_per_call"] = 1e6 * _ratio(s.total(label), s.count(label))
    m["linalg.hermitian_eigensystem.calls_per_point"] = _ratio(
        s.count("linalg.hermitian_eigensystem"), points)
    analyze = s.mask("entanglement.analyze")
    m["entanglement.analyze.self_us_per_point"] = 1e6 * _ratio(
        s.self_time[analyze].sum(), points)
    m["entanglement.numeric.us_per_point"] = 1e6 * _ratio(s.total(
        "entanglement.negativity_numeric",
        "entanglement.concurrence_numeric"), points)
    m["entanglement.closed.us_per_point"] = 1e6 * _ratio(s.total(
        "entanglement.pt_eigenvalues_closed",
        "entanglement.wootters_closed_exact",
        "entanglement.leakage_rates"), points)

    # a quad span is radial if its integrand reaches switching_fourier and
    # Y_AB if it reaches wightman_position
    quad = s.mask("integrals.quad")
    radial = quad & s.parents_of(s.mask("wightman.switching_fourier"))
    y_ab = quad & s.parents_of(s.mask("wightman.wightman_position"))
    sets = {c: s.count(f"{GIS}.{c}") for c in MASS_CLASSES}
    all_sets = sum(sets.values())
    wp = s.mask("wightman.wightman_position")
    for c in MASS_CLASSES:
        m[f"{GIS}.ms_per_call.{c}"] = 1e3 * _ratio(s.total(f"{GIS}.{c}"), sets[c])
        quad_in_class = s.child_of(quad, s.mask(f"{GIS}.{c}"))
        m[f"integrals.y_ab.ms_per_point.{c}"] = 1e3 * _ratio(
            s.dur[quad_in_class & y_ab].sum(), sets[c])
        m[f"wightman.wightman_position.calls_per_point.{c}"] = _ratio(
            int(s.child_of(wp, quad_in_class).sum()), sets[c])
    m["integrals.radial.ms_per_point"] = 1e3 * _ratio(s.dur[radial].sum(), all_sets)
    m["integrals.quad.calls_per_point"] = _ratio(int(quad.sum()), all_sets)
    m["wightman.switching_fourier.calls_per_point"] = _ratio(
        s.count("wightman.switching_fourier"), all_sets)
    m["wightman.bessel_k1.calls_per_point"] = _ratio(
        s.count("wightman.bessel_k1"), all_sets)
    m["wightman.bessel_k1.us_per_call"] = 1e6 * _ratio(
        s.total("wightman.bessel_k1"), s.count("wightman.bessel_k1"))

    # oracle: time per top-level call (its coarse re-evaluation included)
    oracle = s.mask(*(f"{ORACLE}.{entry_slug(e)}" for e in ORACLE_ENTRIES))
    top = oracle & ~s.child_of(oracle, oracle)
    for e in ORACLE_ENTRIES:
        mine = top & s.mask(f"{ORACLE}.{entry_slug(e)}")
        m[f"{ORACLE}.ms.{entry_slug(e)}"] = 1e3 * _ratio(
            s.dur[mine].sum(), int(mine.sum()))
    m[f"{ORACLE}.calls_per_entry"] = _ratio(int(oracle.sum()), int(top.sum()))
    return m
