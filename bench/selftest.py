#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Checks that a tiny run of every workload emits every metric BENCHMARK.json
names, with its unit, in both trace modes, and that corrupted program
output (a NaN cell, a negative rate, a nonzero rate at threshold, an
out-of-range negativity, a perturbed oracle value, an exception) is
counted as failed. Exits 1 on any failed check.
"""

import json
import math
import sys

import run

FAILURES = []


def expect(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_metric_names(spec):
    from workloads import WORKLOADS, generate

    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            wl = generate(name, seed=0, tiny=True)
            result, _ = run.run(wl, seconds=0.01, trace=trace, n_probes=1)
            json.dumps(result)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            expect(set(got) == set(want),
                   f"{name} trace {int(trace)}: emits exactly the {section} metrics")
            expect(all(got[k]["unit"] == u for k, u in want.items() if k in got)
                   and all(math.isfinite(v["value"]) for v in got.values()),
                   f"{name} trace {int(trace)}: every metric has its unit and a finite value")
            expect(result["correct"] and result["attempted"] >= 1
                   and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {int(trace)}: correct, attempted >= 1, exactly the result keys")


def _replace_cell(text, row, column, new):
    from checks import CSV_HEADER

    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[CSV_HEADER.index(column)] = new
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_corruption():
    from checks import (CSV_HEADER, check_crosscheck, check_eternal_csv,
                        check_gaussian_json)
    from workloads import generate

    wl = generate("eternal-grid", seed=0, tiny=True)
    _, [(rc, text)] = run.GridPass(wl).run(lambda: None)
    n = wl.points[0]
    expect(check_eternal_csv(rc, text, n).failed == 0, "eternal: clean output passes")
    rate = CSV_HEADER.index("negativity_rate")
    rate_row = next(i for i, line in enumerate(text.splitlines()[1:], 1)
                    if float(line.split(",")[rate]) > 0)
    for label, bad in (
            ("NaN cell", _replace_cell(text, 1, "initial_negativity", "nan")),
            ("negative rate", _replace_cell(text, rate_row, "negativity_rate", "-1e-3")),
            ("nonzero rate at threshold", _replace_cell(text, n, "concurrence_rate", "1e-9")),
            ("missing row", "\n".join(text.splitlines()[:-1]) + "\n")):
        expect(check_eternal_csv(rc, bad, n).failed == 1,
               f"eternal: {label} counts one failed row")
    expect(check_eternal_csv(2, text, n).failed == n,
           "eternal: nonzero exit fails every row")

    wl = generate("gaussian-grid", seed=0, tiny=True)
    _, outputs = run.GridPass(wl).run(lambda: None)
    rc, text = outputs[0]
    n = wl.points[0]
    expect(check_gaussian_json(rc, text, n).failed == 0, "gaussian: clean output passes")
    records = json.loads(text)
    records[0]["report"]["negativity"] = 2.0 * records[0]["report"]["initial_negativity"]
    expect(check_gaussian_json(rc, json.dumps(records), n).failed == 1,
           "gaussian: negativity above |alpha gamma| counts one failed record")
    records = json.loads(text)
    records[-1]["integrals"]["P_A"]["re"] = math.nan
    expect(check_gaussian_json(rc, json.dumps(records), n).failed == 1,
           "gaussian: NaN integral counts one failed record")

    wl = generate("crosscheck", seed=0, tiny=True)
    _, results = run.CrosscheckPass(wl).run(lambda: None)
    clean, _ = check_crosscheck(results)
    expect(clean.unexpected == 0, "crosscheck: no failure outside known defects")
    k, entry, value, production = results[0]
    pdd = production["P''_A"].coeff.real
    perturbed = [(k, entry, value + 1e-3 * pdd, production)] + results[1:]
    bad, _ = check_crosscheck(perturbed)
    expect(bad.failed == clean.failed + 1 and bad.unexpected == 1,
           "crosscheck: perturbed oracle value counts one unexpected failure")
    raised = [(k, entry, RuntimeError("boom"), production)] + results[1:]
    bad, _ = check_crosscheck(raised)
    expect(bad.failed == clean.failed + 1 and bad.unexpected == 1,
           "crosscheck: an exception counts one unexpected failure")


def main():
    if not run.use_sources():
        print(f"selftest: udleak sources not found under {run.SRC}", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_corruption()
    check_metric_names(spec)
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
