"""Seeded workload generator for the udleak benchmark.

A workload is fixed in structure and cost mix; the seed draws only the
scenario values, from ranges narrow enough that the cost of a pass moves
by a few percent between seeds. The program under test receives only the
generated argv lists (grid workloads) or scenario parameters (crosscheck).

    eternal-grid   1,000-point eternal CSV sweep. Stresses the per-point
                   path cli -> model -> integrals (closed forms) -> density
                   -> linalg -> entanglement; bypasses every quadrature,
                   the Gaussian kernels and the oracle.
    gaussian-grid  massless sigma x distance JSON sweep plus a massive one,
                   each about half the time. Stresses the radial quadrature
                   and the Y_AB cross term (rational kernel at m = 0,
                   Bessel K_1 at m > 0); the per-point cli/density/linalg
                   path is a small share; bypasses the oracle.
    crosscheck     three Gaussian scenarios (massless, massive, coincident
                   d = 0), each entry of the brute-force oracle compared
                   with the production integral set. Stresses the oracle's
                   numpy time-grid kernels; bypasses cli, density and the
                   entanglement measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("eternal-grid", "gaussian-grid", "crosscheck")

# criterion-8 oracle settings: time window 7 sigma, radial cut-off 8,
# regulator 1e-6; the oracle's error estimate stays on
ORACLE_WINDOW_SIGMAS = 7.0
ORACLE_P_MAX = 8.0
ORACLE_EPSILON = 1e-6

# production names of the quantities each oracle entry defines
PRODUCTION_NAME = {
    "P": "P_A", "P''": "P''_A", "Pbar": "Pbar_A", "Pbar'": "Pbar'_A",
    "P*_AB": "P*_AB", "P'_AB": "P'_AB", "Pbar'_AB": "Pbar'_AB",
    "X_AB": "X_AB", "M": "ReM_A", "Y_AB": "Y_AB", "xi_AB": "xi_AB",
}
ORACLE_ENTRIES = tuple(PRODUCTION_NAME)


def entry_slug(entry):
    """Oracle entry name in metric-name characters: P'' -> Pdd, P*_AB -> Pstar_AB."""
    return entry.replace("''", "dd").replace("'", "p").replace("*", "star")


@dataclass(frozen=True)
class GridWorkload:
    name: str
    plans: tuple          # one argv tuple per udleak invocation
    points: tuple         # grid points each plan emits
    fmt: str              # "csv" or "json"

    @property
    def items(self):
        return sum(self.points)

    def first_item(self):
        """argv of the first plan cut down to its first grid point."""
        argv = list(self.plans[0])
        for i, tok in enumerate(argv):
            if i and argv[i - 1] == "--sweep":
                name, grid = tok.split("=", 1)
                start = grid.split(":")[0]
                argv[i] = f"{name}={start}:{start}:1"
        return argv


@dataclass(frozen=True)
class CrosscheckWorkload:
    name: str
    scenarios: tuple      # dicts of scenario parameters
    entries: tuple        # oracle entries checked per scenario

    @property
    def items(self):
        return len(self.scenarios) * len(self.entries)


def _num(x):
    return "%.4f" % x


def _common_flags(rng, mode):
    """Couplings, amplitude and sign of gamma drawn from the seed."""
    return [
        "--mode", mode, "--validate",
        "--coupling-a", _num(rng.uniform(0.05, 0.15)),
        "--coupling-b", _num(rng.uniform(0.05, 0.15)),
        "--gamma-sign", rng.choice("+-"),
    ]


def eternal_grid(rng, tiny=False):
    # the mass sweep ends exactly at delta_e (same token), so the last row
    # sits at threshold with zero rates; alpha = 0 and 1 are product states
    de = _num(rng.uniform(0.8, 1.5))
    n_mass, n_alpha = (4, 3) if tiny else (40, 25)
    argv = _common_flags(rng, "eternal") + [
        "--delta-e", de, "--distance", _num(rng.uniform(0.0, 2.0)),
        "--sweep", f"mass=0:{de}:{n_mass}",
        "--sweep", f"alpha=0:1:{n_alpha}",
    ]
    return GridWorkload("eternal-grid", (tuple(argv),), (n_mass * n_alpha,),
                        "csv")


def gaussian_grid(rng, tiny=False):
    # ~12 massless points cost what one massive point costs, so 48 + 4
    # points split a pass about evenly between the two kernel paths;
    # every distance is > 0
    common = _common_flags(rng, "gaussian") + [
        "--format", "json",
        "--delta-e", _num(rng.uniform(0.9, 1.1)),
        "--alpha", _num(rng.uniform(0.55, 0.85)),
    ]
    (ns0, nd0), (ns1, nd1) = ((2, 1), (1, 1)) if tiny else ((6, 8), (2, 2))
    s0 = rng.uniform(0.95, 1.05)
    d0 = rng.uniform(0.25, 0.35)
    massless = common + [
        "--sweep", f"sigma={_num(s0)}:{_num(s0 + 1.0)}:{ns0}",
        "--sweep", f"distance={_num(d0)}:{_num(d0 + 1.5)}:{nd0}",
    ]
    s1 = rng.uniform(0.95, 1.05)
    d1 = rng.uniform(0.45, 0.55)
    massive = common + [
        "--mass", _num(rng.uniform(0.35, 0.45)),
        "--sweep", f"sigma={_num(s1)}:{_num(s1 + 0.5)}:{ns1}",
        "--sweep", f"distance={_num(d1)}:{_num(d1 + 1.0)}:{nd1}",
    ]
    return GridWorkload("gaussian-grid", (tuple(massless), tuple(massive)),
                        (ns0 * nd0, ns1 * nd1), "json")


def crosscheck(rng, tiny=False):
    def scenario(sigma, mass, distance, delta_e):
        return dict(
            sigma=sigma, mass=mass, distance=distance, delta_e=delta_e,
            coupling_a=rng.uniform(0.05, 0.15),
            coupling_b=rng.uniform(0.05, 0.15),
            alpha=rng.uniform(0.55, 0.85),
            gamma_sign=rng.choice((+1, -1)),
        )

    # oracle cost scales with sigma (time grid and radial nodes), so sigma
    # moves by only +-2% between seeds
    scenarios = (
        scenario(1.5 * rng.uniform(0.98, 1.02), 0.0,
                 rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.1)),
        scenario(rng.uniform(0.98, 1.02), rng.uniform(0.4, 0.6),
                 rng.uniform(0.8, 1.2), rng.uniform(1.1, 1.3)),
        scenario(rng.uniform(0.98, 1.02), rng.uniform(0.25, 0.35),
                 0.0, rng.uniform(0.9, 1.1)),
    )
    entries = ("P''", "M", "Y_AB") if tiny else ORACLE_ENTRIES
    return CrosscheckWorkload("crosscheck", scenarios, entries)


_GENERATORS = {"eternal-grid": eternal_grid, "gaussian-grid": gaussian_grid,
               "crosscheck": crosscheck}


def generate(name, seed, tiny=False):
    """The workload `name` drawn from `seed`; tiny=True for the self-test."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), tiny)


def build_scenario(params):
    """ValidatedScenario for one crosscheck parameter dict."""
    from udleak.model import (GAUSSIAN, DetectorPairConfig, FieldSpec,
                              InitialState, SwitchingSpec, validate_config)

    alpha = params["alpha"]
    gamma = params["gamma_sign"] * math.sqrt(1.0 - alpha * alpha)
    return validate_config(
        DetectorPairConfig(delta_e=params["delta_e"],
                           coupling_a=params["coupling_a"],
                           coupling_b=params["coupling_b"],
                           distance=params["distance"]),
        FieldSpec(mass=params["mass"]),
        InitialState(alpha=alpha, gamma=gamma),
        SwitchingSpec(kind=GAUSSIAN, sigma=params["sigma"]),
    )


def oracle_kwargs(params):
    return dict(window=ORACLE_WINDOW_SIGMAS * params["sigma"],
                p_max=ORACLE_P_MAX, epsilon=ORACLE_EPSILON)
