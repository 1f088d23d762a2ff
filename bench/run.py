#!/usr/bin/env python3
"""udleak benchmark: seeded workloads through the public API.

    python3 bench/run.py --workload eternal-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run builds the workload from --seed, repeats it for --seconds of
measured time in this process, checks every output, and prints a summary
(lines starting with '#') and, as the last line, one JSON object with
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 alternates traced and untraced passes and reports the
per-layer metrics, the tracing overhead and the import breakdown.
--workload all runs every workload in its own process and prints each
summary followed by one JSON line holding every result.

Workloads and the layers each stresses are described in workloads.py;
metric names, units and bounds are in BENCHMARK.json at the repo root.
"""

import os

# one BLAS/OpenMP thread here and in every probe process; must precede
# the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 8          # fresh processes timed for setup_s
IMPORTTIME_PROBES = 3     # fresh processes under -X importtime (traced run)
PROBE_TIMEOUT_S = 60


# On a shared 2-vCPU VM the machine's speed swings by up to 1.6x within
# seconds and between hours, for CPU time as much as for wall time, and no
# statistic of the program's own timings filters that out. So a fixed
# reference computation is timed at every boundary between the program's
# timed segments (and around every set-up probe), and each duration is
# scaled by REFERENCE_S / (the reference's time next to it): the figures
# read as on a machine where the reference takes REFERENCE_S. The summary
# lines also print the unscaled figures.
REFERENCE_S = 2.5e-3
REFERENCE_REPS = 2        # reference runs at each segment boundary
PROBE_REFERENCE_REPS = 5  # reference runs before and after each probe


def _reference_integrand(x):
    return math.exp(-x * x) * math.cos(3.0 * x) / (1.0 + x * x)


class _Cell:
    def __init__(self, x):
        self.x = x

    def value(self, y):
        return self.x * y + 1


class Reference:
    """Times a fixed mix of scipy quadrature over a Python integrand and
    interpreted object and dict work, the two kinds of work the program
    spends its time on. Of the candidates tried (this, a bare Python loop
    with small numpy arrays, large numpy arrays), it tracked the speed of
    all three workloads most closely."""

    def __init__(self):
        from scipy.integrate import quad

        self.quad = quad
        self.marks = []   # reference time at each boundary of this pass

    def _work(self):
        for _ in range(24):
            self.quad(_reference_integrand, 0.0, 10.0, limit=200)
        table = {}
        for i in range(3000):
            table[i % 97] = _Cell(i).value(i) + len(table)
        return table

    def time(self, reps):
        clock = time.perf_counter
        times = []
        for _ in range(reps):
            t0 = clock()
            self._work()
            times.append(clock() - t0)
        return min(times)

    def mark(self):
        self.marks.append(self.time(REFERENCE_REPS))

    def scale(self, segments):
        """Segment durations scaled by the reference times on either side."""
        marks, self.marks = self.marks, []
        return [seg * 2.0 * REFERENCE_S / (before + after)
                for seg, before, after in zip(segments, marks, marks[1:])]


# ---------------------------------------------------------------------------
# one pass of a workload: the timed calls into the program, then the checks.
# run() returns the duration of each segment of the pass (a plan, or a
# scenario's production set or oracle entry) and the program's output.


class GridPass:
    """Every plan of a grid workload through udleak.cli.main, in-process."""

    def __init__(self, wl):
        import udleak.cli

        self.wl = wl
        self.cli = udleak.cli

    def run(self, between):
        clock = time.perf_counter
        segments, outputs = [], []
        for argv in self.wl.plans:
            between()
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
            segments.append(clock() - t0)
            outputs.append((rc, out.getvalue()))
        between()
        return segments, outputs

    def check(self, outputs):
        from checks import check_eternal_csv, check_gaussian_json

        checker = check_eternal_csv if self.wl.fmt == "csv" else check_gaussian_json
        return [checker(rc, text, points)
                for (rc, text), points in zip(outputs, self.wl.points)], {}

    def probe_spec(self):
        return {"argv": self.wl.first_item()}


class CrosscheckPass:
    """Production integral set and every oracle entry, per scenario."""

    def __init__(self, wl):
        import udleak.integrals
        from workloads import build_scenario, oracle_kwargs

        self.wl = wl
        self.integrals = udleak.integrals
        self.scenarios = [(build_scenario(p), oracle_kwargs(p))
                          for p in wl.scenarios]

    def run(self, between):
        clock = time.perf_counter
        integrals = self.integrals
        segments, results = [], []
        for k, (scenario, kwargs) in enumerate(self.scenarios):
            # an exception is a failed item, not the end of the run
            between()
            t0 = clock()
            try:
                production = integrals.gaussian_integral_set(scenario).entries()
            except Exception as exc:
                production = exc
            segments.append(clock() - t0)
            for entry in self.wl.entries:
                between()
                t0 = clock()
                try:
                    value, _ = integrals.oracle_quadrature(entry, scenario, **kwargs)
                except Exception as exc:
                    value = exc
                segments.append(clock() - t0)
                results.append((k, entry, value, production))
        between()
        return segments, results

    def check(self, results):
        from checks import check_crosscheck

        tallies = [check_crosscheck([result])[0] for result in results]
        return tallies, check_crosscheck(results)[1]

    def probe_spec(self):
        return {"scenario": self.wl.scenarios[0], "entry": self.wl.entries[0]}


# ---------------------------------------------------------------------------
# fresh-process probes


def _probe(spec, importtime, reference):
    """Run probe.py in a fresh process; returns (returncode, wall seconds
    scaled by the reference, raw wall seconds, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "probe.py"), json.dumps(spec)]
    before = reference.time(PROBE_REFERENCE_REPS)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    after = reference.time(PROBE_REFERENCE_REPS)
    scaled = wall * 2.0 * REFERENCE_S / (before + after)
    return proc.returncode, scaled, wall, proc.stderr


def _import_ms(stderr, module):
    """Cumulative import time of `module` from -X importtime output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e3
    return 0.0


# ---------------------------------------------------------------------------
# a run


def run(wl, seconds, trace, n_probes=None):
    """Measure one workload; returns (result dict, summary lines)."""
    from checks import Tally

    runner = GridPass(wl) if hasattr(wl, "plans") else CrosscheckPass(wl)
    n_probes = n_probes or (IMPORTTIME_PROBES if trace else SETUP_PROBES)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    reference = Reference()
    passes = {False: [], True: []}    # scaled segment durations, untraced / traced
    raw = []                          # unscaled untraced segment durations
    probes = []                       # (returncode, scaled s, wall s, stderr)
    first = tallies = None
    gaps = {}
    busy = 0.0
    spec = runner.probe_spec()
    while busy < seconds or (trace and not passes[True]):
        # probes are spread over the run so they see the same machine state
        if len(probes) < n_probes and busy >= len(probes) * seconds / n_probes:
            probes.append(_probe(spec, trace, reference))
        traced = trace and len(passes[False]) > len(passes[True])
        with tracer.installed() if traced else contextlib.nullcontext():
            segments, output = runner.run(reference.mark)
        busy += sum(segments)
        passes[traced].append(reference.scale(segments))
        if not traced:
            raw.append(segments)
        # the first pass is checked; every later one, traced or not, must
        # reproduce it exactly, or the items of the output that differs
        # fail. Each item counts once per run, however many passes fit.
        text = [repr(item) for item in output]
        if first is None:
            first = text
            tallies, gaps = runner.check(output)
            continue
        for i, (got, want) in enumerate(zip(text, first)):
            if got != want and tallies[i].failed < tallies[i].attempted:
                n = tallies[i].attempted
                tallies[i] = Tally(attempted=n, failed=n, unexpected=n, messages=[
                    f"{'traced' if traced else 'untraced'} pass output {i} "
                    "differs from the first pass"])
    while len(probes) < n_probes:
        probes.append(_probe(spec, trace, reference))
    tally = Tally()
    for item in tallies:
        tally.add(item)
    for rc, _, _, stderr in probes:
        tally.attempted += 1
        if rc != 0:
            tally.fail(f"set-up probe exited {rc}: {stderr.strip()[-200:]}")

    # time of a pass: the sum over segments of each one's median over passes
    cost = {traced: sum(statistics.median(seg) for seg in zip(*runs))
            for traced, runs in passes.items() if runs}
    lines = _environment(wl, seconds, trace, passes)
    if trace:
        from tracing import LAYER_UNITS, layer_metrics
        from workloads import ORACLE_ENTRIES, entry_slug

        values = layer_metrics(tracer)
        for entry in ORACLE_ENTRIES:
            values[f"crosscheck.gap.{entry_slug(entry)}"] = gaps.get(entry, 0.0)
        values["crosscheck.max_gap"] = max(gaps.values(), default=0.0)
        for module in ("udleak", "scipy.integrate"):
            name = f"setup.import_{module.replace('.', '_')}_ms"
            values[name] = statistics.median(_import_ms(p[3], module)
                                             for p in probes)
        values["trace.overhead_frac"] = cost[True] / cost[False] - 1.0
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{wl.name}.npz"
        tracer.save(span_file)
        lines.append(f"spans: {len(tracer.start)} written to "
                     f"{span_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p[1] for p in probes), "unit": "s"},
            "items_per_s": {"value": wl.items / cost[False], "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        alias = "points_per_s" if hasattr(wl, "plans") else "entries_per_s"
        unscaled = wl.items / sum(statistics.median(seg) for seg in zip(*raw))
        rates = [wl.items / sum(seg) for seg in raw]
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        lines += [
            f"{alias} = items_per_s = items / sum over segments of the "
            "median over passes, scaled by the reference",
            f"  unscaled {unscaled:.6g} 1/s; per-pass unscaled rate over "
            f"{len(rates)} passes: median {statistics.median(rates):.6g}, "
            f"quartiles {q[0]:.6g} .. {q[2]:.6g}",
            f"setup_s = median of {len(probes)} fresh processes, scaled by the "
            f"reference; unscaled {statistics.median(p[2] for p in probes):.6g} s",
        ]
    lines += [f"  {name:<54} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    lines.append(f"failed/attempted {tally.failed}/{tally.attempted} "
                 f"(failed_frac {tally.failed / max(tally.attempted, 1):.4g}, "
                 f"{tally.unexpected} outside known defects)")
    if gaps:
        lines.append(f"crosscheck_max_gap {max(gaps.values()):.6g} P''_A")
    lines += [f"  failure: {msg}" for msg in tally.messages]
    result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines


def _environment(wl, seconds, trace, passes):
    import numpy
    import scipy

    return [
        f"udleak benchmark: workload {wl.name}, {seconds:g} s measured, "
        f"trace {int(trace)}",
        f"env: nproc {len(os.sched_getaffinity(0))}, python "
        f"{platform.python_version()}, numpy {numpy.__version__}, scipy "
        f"{scipy.__version__}, OMP/OpenBLAS/MKL threads 1, single process",
        f"passes: {len(passes[False])} untraced, {len(passes[True])} traced; "
        f"{wl.items} items per pass",
    ]


# ---------------------------------------------------------------------------


def run_all(args):
    """Every workload in its own process; summaries, then one JSON line."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr, end="")
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def use_sources():
    """Import udleak from this checkout's src/, here and in every probe."""
    if not (SRC / "udleak" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return True


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"bench: udleak sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import generate

    result, lines = run(generate(args.workload, args.seed), args.seconds,
                        bool(args.trace))
    print("\n".join(f"# {line}" for line in lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
