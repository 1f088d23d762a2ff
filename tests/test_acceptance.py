"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s or check captured
output) and enforces the stated tolerance with plain asserts.
"""

import math
import time

import numpy as np
import pytest

from udleak import linalg
from udleak.density import check_x_structure, evolved_density
from udleak.entanglement import (concurrence_closed, concurrence_numeric,
                                 leakage_rates, negativity_numeric,
                                 pt_eigenvalues_closed, wootters_closed_exact)
from udleak.integrals import (eternal_integral_set, gaussian_integral_set,
                              oracle_quadrature)
from udleak.model import (ETERNAL, GAUSSIAN, DetectorPairConfig, FieldSpec,
                          InitialState, SwitchingSpec, bell_state,
                          validate_config)


def _scenario(de=1.0, mass=0.0, d=0.0, kind=ETERNAL, sigma=None, ca=0.1,
              cb=0.1, state=None):
    return validate_config(
        DetectorPairConfig(delta_e=de, coupling_a=ca, coupling_b=cb, distance=d),
        FieldSpec(mass=mass), state or bell_state(),
        SwitchingSpec(kind=kind, sigma=sigma))


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_eternal_closed_forms():
    cases = [((1.0, 0.0), (0.5, 0.25)),
             ((2.0, 1.0), (math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 4.0)),
             ((1.0, 1.0), (0.0, 0.0))]
    worst = 0.0
    for (de, mass), (pdd, rem) in cases:
        e = eternal_integral_set(_scenario(de=de, mass=mass)).entries()
        worst = max(worst,
                    abs(e["P''_A"].coeff.real - pdd),
                    abs(e["ReM_A"].coeff.real - rem))
    _report(1, worst <= 1e-14, f"stripped P'' and Re M, worst {worst:.2e}")


def test_criterion_2_oracle_slope_fit():
    t0 = time.time()
    sigmas = np.array([8.0, 16.0, 32.0])
    points = [(1.0, 0.0, 0.7), (2.0, 1.0, 0.7), (1.0, 0.5, 0.7)]
    worst = 0.0
    for de, mass, d in points:
        strip = eternal_integral_set(
            _scenario(de=de, mass=mass, d=d)).entries()
        q = math.sqrt(de * de - mass * mass)
        p_max = 2.0 * q + 0.5
        for entry, key in (("P''", "P''_A"), ("M", "ReM_A"),
                           ("X_AB", "X_AB")):
            vals = []
            for s in sigmas:
                sc = _scenario(de=de, mass=mass, d=d, kind=GAUSSIAN, sigma=s)
                v, _ = oracle_quadrature(entry, sc, window=6.0 * s,
                                         p_max=p_max, epsilon=1e-6,
                                         _estimate_error=False)
                vals.append(v.real)
            slope = np.polyfit(sigmas, vals, 1)[0]
            rel = abs(math.sqrt(math.pi) * slope - strip[key].coeff.real) \
                / strip[key].coeff.real
            worst = max(worst, rel)
    dt = time.time() - t0
    _report(2, worst <= 0.02 and dt < 60.0,
            f"sqrt(pi) x slope vs stripped, worst {worst:.2%}, {dt:.1f}s")


GRID = [(de, mass, d)
        for de in (1.0, 1.5, 2.0)
        for mass in (0.0, 0.4, 0.8)
        for d in (0.0, 0.5, 1.5)]


def test_criterion_3_negativity_pipeline():
    t0 = time.time()
    worst = 0.0
    sign_rule_ok = True
    for de, mass, d in GRID:
        for sign in (+1, -1):
            sc = _scenario(de=de, mass=mass, d=d, ca=0.01, cb=0.01,
                           state=bell_state(sign))
            ints = eternal_integral_set(sc)
            rho = evolved_density(sc.state, sc.pair, ints)
            _, numeric = negativity_numeric(rho)
            closed, negative_index = pt_eigenvalues_closed(
                rho, sc.state.alpha * sc.state.gamma >= 0)
            worst = max(worst, float(np.max(np.abs(
                np.sort(np.array(closed)) - np.array(numeric)))))
            expect = 2 if sign > 0 else 1
            sign_rule_ok &= (negative_index == expect)
            sign_rule_ok &= (closed[expect - 1] < 0.0)
    dt = time.time() - t0
    _report(3, worst <= 1e-8 and sign_rule_ok and dt < 10.0,
            f"PPT numeric vs closed, worst {worst:.2e}, "
            f"sign rule {'ok' if sign_rule_ok else 'BROKEN'}, {dt:.1f}s")


def test_criterion_4_concurrence_pipeline():
    t0 = time.time()
    worst = 0.0
    for de, mass, d in GRID:
        sc = _scenario(de=de, mass=mass, d=d, ca=0.01, cb=0.01)
        ints = eternal_integral_set(sc)
        rho = evolved_density(sc.state, sc.pair, ints)
        _, numeric = concurrence_numeric(rho)
        closed = wootters_closed_exact(rho)
        worst = max(worst, float(np.max(np.abs(
            np.array(closed) - np.array(numeric)))))
    # stripped deficit coefficient at the Bell point, C = 0.1
    sc = _scenario(de=1.0, mass=0.0, d=0.0)
    conc, _ = concurrence_closed(sc.state, sc.pair, eternal_integral_set(sc))
    deficit_err = abs((1.0 - conc) - 0.01)
    dt = time.time() - t0
    _report(4, worst <= 1e-6 and deficit_err <= 1e-12 and dt < 10.0,
            f"Wootters numeric vs closed, worst {worst:.2e}, "
            f"Bell deficit error {deficit_err:.2e}, {dt:.1f}s")


def _numeric_rate_paths():
    """Leakage rates from the numeric eigenvalue routes only.

    The negativity deficit is quadratic-exact at the Bell point, so the
    C = 0.1 value is used directly.  The concurrence deficit picks up a
    clamp artifact at fourth order, so the per-C^2 coefficient is
    extrapolated to zero coupling through three couplings and then scaled
    back to C = 0.1.
    """
    sc = _scenario(de=1.0, mass=0.0, d=0.0)
    ints = eternal_integral_set(sc)
    rho = evolved_density(sc.state, sc.pair, ints)
    neg, _ = negativity_numeric(rho)
    dn = (0.5 - neg) / (2.0 * math.pi)

    cs = (0.005, 0.01, 0.02)
    xs = np.array([c * c for c in cs])
    fs = []
    for c in cs:
        sc_c = _scenario(de=1.0, mass=0.0, d=0.0, ca=c, cb=c)
        rho_c = evolved_density(sc_c.state, sc_c.pair,
                                eternal_integral_set(sc_c))
        conc, _ = concurrence_numeric(rho_c)
        fs.append((1.0 - conc) / (c * c))
    # quadratic Lagrange extrapolation to x = 0
    f0 = 0.0
    for i in range(3):
        term = fs[i]
        for j in range(3):
            if j != i:
                term *= -xs[j] / (xs[i] - xs[j])
        f0 += term
    dc = f0 * 0.01 / (2.0 * math.pi)
    return dn, dc


def test_criterion_5_leakage_rates():
    sc = _scenario(de=1.0, mass=0.0, d=0.0)
    dn_closed, dc_closed = leakage_rates(sc.state, sc.pair,
                                         eternal_integral_set(sc))
    value_ok = (abs(dn_closed - 7.95775e-4) < 1e-9
                and abs(dc_closed - 1.59155e-3) < 1e-8)
    dn_num, dc_num = _numeric_rate_paths()
    gap = max(abs(dn_num - dn_closed), abs(dc_num - dc_closed))
    _report(5, value_ok and gap <= 1e-10,
            f"closed rates ({dn_closed:.6e}, {dc_closed:.6e}), "
            f"closed-vs-numeric gap {gap:.2e}")


def test_criterion_6_shielding():
    both = _scenario(cb=0.1)
    shielded = _scenario(cb=0.0)
    dn_b, _ = leakage_rates(both.state, both.pair,
                            eternal_integral_set(both))
    dn_s, _ = leakage_rates(shielded.state, shielded.pair,
                            eternal_integral_set(shielded))
    err = abs(dn_s / dn_b - 0.5)
    _report(6, err <= 1e-12, f"shielded rate ratio error {err:.2e}")


def test_criterion_7_structural_invariants():
    t0 = time.time()
    rng = np.random.default_rng(42)
    checked = 0
    ok = True
    notes = []

    def fail(msg):
        nonlocal ok
        ok = False
        notes.append(msg)

    for i in range(200):
        de = rng.uniform(0.3, 3.0)
        mass = rng.uniform(0.0, 1.2)
        d = rng.uniform(0.0, 3.0)
        a = rng.uniform(0.0, 1.0)
        g = math.copysign(math.sqrt(1.0 - a * a), rng.choice([-1.0, 1.0]))
        ca, cb = rng.uniform(0.0, 0.05, size=2)
        gaussian = (i % 4 == 0)
        sc = _scenario(de=de, mass=mass, d=d, ca=ca, cb=cb,
                       kind=GAUSSIAN if gaussian else ETERNAL,
                       sigma=rng.uniform(0.5, 3.0) if gaussian else None,
                       state=InitialState(alpha=a, gamma=g))
        ints = (gaussian_integral_set(sc) if gaussian
                else eternal_integral_set(sc))
        rho = evolved_density(sc.state, sc.pair, ints)

        herm = linalg.hermiticity_residual(rho.matrix)
        if herm > 1e-14:
            fail(f"hermiticity {herm:.1e}")
        tr = linalg.trace(rho.matrix)
        trace_residual = abs(tr.real - 1.0) + abs(tr.imag)
        trace_tol = 1e-14 if not gaussian else 1e-8
        if trace_residual > trace_tol:
            fail(f"trace {trace_residual:.1e}")
        if check_x_structure(rho) != 0.0:
            fail("X pattern broken")
        e = ints.entries()
        bound = math.sqrt(e["P''_A"].coeff.real * e["P''_B"].coeff.real)
        if abs(e["X_AB"].coeff) > bound + 1e-12 + ints.max_err:
            fail(f"|X| {abs(e['X_AB'].coeff):.3e} > bound {bound:.3e}")
        if not gaussian:
            far = _scenario(de=de, mass=mass, d=d + 1.0, ca=ca, cb=cb,
                            state=InitialState(alpha=a, gamma=g))
            if leakage_rates(sc.state, sc.pair, ints) != leakage_rates(
                    far.state, far.pair, eternal_integral_set(far)):
                fail("eternal rates depend on distance")
        checked += 1

    # mass monotonicity with a zero at threshold
    masses = np.linspace(0.0, 1.0, 21)
    vals = [eternal_integral_set(_scenario(de=1.0, mass=m)).entries()
            ["P''_A"].coeff.real for m in masses]
    if not all(x > y for x, y in zip(vals, vals[1:])):
        fail("P'' not strictly decreasing in mass")
    if vals[-1] != 0.0:
        fail("P'' nonzero at threshold")

    dt = time.time() - t0
    _report(7, ok and checked >= 200 and dt < 60.0,
            f"{checked} random scenarios, {dt:.1f}s"
            + ("" if ok else "; " + "; ".join(notes[:3])))


def test_criterion_8_gaussian_mode():
    t0 = time.time()
    points = [(1.0, 0.0, 0.5, 1.5), (1.2, 0.5, 1.0, 2.0), (2.0, 1.5, 0.0, 1.0)]
    ok = True
    notes = []
    for de, mass, d, sigma in points:
        sc = _scenario(de=de, mass=mass, d=d, kind=GAUSSIAN, sigma=sigma)
        ints = gaussian_integral_set(sc)
        e = ints.entries()
        if not (e["P_A"].coeff.real > 0.0 and e["P''_A"].coeff.real > 0.0):
            ok = False
            notes.append(f"P not positive at {(de, mass)}")
        rho = evolved_density(sc.state, sc.pair, ints)
        neg, _ = negativity_numeric(rho)
        if not neg < 0.5:
            ok = False
            notes.append(f"negativity {neg} not below |alpha gamma|")
        # Re M identity against the defining ordered integral
        rem = e["ReM_A"].coeff.real
        m_val, _ = oracle_quadrature("M", sc, window=7.0 * sigma, p_max=8.0,
                                     epsilon=1e-6, _estimate_error=False)
        if abs(m_val.real - rem) > 1e-5:
            ok = False
            notes.append(f"Re M identity off by {abs(m_val.real - rem):.2e}")
    dt = time.time() - t0
    _report(8, ok and dt < 120.0,
            f"P > 0, N < |alpha gamma|, Re M identity at 3 points, {dt:.1f}s"
            + ("" if ok else "; " + "; ".join(notes)))
