"""Fresh-process set-up probe: import udleak.cli, then finish one item.

    python3 bench/probe.py '<json spec>'

The spec holds either {"argv": [...]} (one grid point through
udleak.cli.main) or {"scenario": {...}, "entry": "P"} (the production
integral set and one oracle entry). The caller times the whole process;
run under `python3 -X importtime` it also yields the import breakdown on
stderr, so the program's own output goes to a buffer, not to stderr.
"""

import contextlib
import io
import json
import sys

import udleak.cli


def main():
    spec = json.loads(sys.argv[1])
    if "argv" in spec:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return udleak.cli.main(spec["argv"])
    from udleak import integrals
    from workloads import build_scenario, oracle_kwargs

    scenario = build_scenario(spec["scenario"])
    integrals.gaussian_integral_set(scenario)
    integrals.oracle_quadrature(spec["entry"], scenario,
                                **oracle_kwargs(spec["scenario"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
