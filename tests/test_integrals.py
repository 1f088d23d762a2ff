import math

import numpy as np
import pytest
from scipy.integrate import quad

from udleak import integrals
from udleak.integrals import (IntegralSet, NotDistributional,
                              QuadratureNonConvergence, QuadratureSettings,
                              RegulatedValue, eternal_integral_set,
                              gaussian_integral_set, oracle_quadrature, rate,
                              threshold_momentum)
from udleak.model import (ETERNAL, GAUSSIAN, DetectorPairConfig, FieldSpec,
                          SwitchingSpec, UnitSystem, bell_state,
                          validate_config)
from udleak.wightman import PositionKernel, wightman_position


def _scenario(de=1.0, mass=0.0, d=0.5, kind=ETERNAL, sigma=None, c=1.0,
              ca=0.1, cb=0.1):
    return validate_config(
        DetectorPairConfig(delta_e=de, coupling_a=ca, coupling_b=cb, distance=d),
        FieldSpec(mass=mass), bell_state(),
        SwitchingSpec(kind=kind, sigma=sigma), UnitSystem(c=c))


# --------------------------------------------------------------- rate algebra

def test_rate_arithmetic():
    assert rate(RegulatedValue(0.5, 1)) == pytest.approx(0.5 / (2 * math.pi))


def test_rate_requires_distributional():
    with pytest.raises(NotDistributional):
        rate(RegulatedValue(0.5, 0))


def test_regulated_value_power_checked():
    with pytest.raises(ValueError):
        RegulatedValue(1.0, 2)


# ------------------------------------------------------------- eternal forms

def test_eternal_closed_values():
    ints = eternal_integral_set(_scenario(de=1.0, mass=0.0, d=0.0))
    e = ints.entries()
    assert e["P''_A"].coeff == pytest.approx(0.5, abs=1e-15)
    assert e["ReM_A"].coeff == pytest.approx(0.25, abs=1e-15)
    assert e["X_AB"].coeff == pytest.approx(0.5, abs=1e-15)  # sinc(0) = 1
    for name in ("P_A", "Pbar_A", "Pbar'_A", "P*_AB", "P'_AB", "Pbar'_AB",
                 "Y_AB", "xi_AB"):
        assert e[name].coeff == 0.0


def test_eternal_massive_values():
    ints = eternal_integral_set(_scenario(de=2.0, mass=1.0, d=0.0)).entries()
    assert ints["P''_A"].coeff == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert ints["ReM_A"].coeff == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)


def test_eternal_sinc_separation():
    d = 1.3
    ints = eternal_integral_set(_scenario(de=1.0, mass=0.0, d=d)).entries()
    assert ints["X_AB"].coeff == pytest.approx(0.5 * math.sin(d) / d, abs=1e-15)


def test_eternal_speed_of_light_scaling():
    c = 2.0
    ints = eternal_integral_set(_scenario(de=1.0, mass=0.0, d=0.0, c=c)).entries()
    assert ints["P''_A"].coeff == pytest.approx(1.0 / (2.0 * c**3), abs=1e-16)


def test_eternal_threshold_all_zero():
    for de, mass in ((1.0, 1.0), (0.5, 1.0)):
        ints = eternal_integral_set(_scenario(de=de, mass=mass))
        assert all(v.coeff == 0.0 for v in ints.entries().values())
        assert ints.delta0_power == 0


def test_eternal_mass_monotone_to_threshold():
    vals = [eternal_integral_set(_scenario(de=1.0, mass=m)).entries()["P''_A"].coeff.real
            for m in np.linspace(0.0, 1.0, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


def test_threshold_momentum():
    sc = _scenario(de=2.0, mass=1.0)
    assert threshold_momentum(sc) == pytest.approx(math.sqrt(3.0))
    assert threshold_momentum(_scenario(de=1.0, mass=1.0)) == 0.0


def test_eternal_rejects_gaussian_scenario():
    with pytest.raises(ValueError):
        eternal_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0))


# ------------------------------------------------------------ gaussian forms

def test_gaussian_all_entries_finite_positive():
    ints = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, mass=0.0))
    e = ints.entries()
    assert ints.delta0_power == 0
    for name in ("P_A", "P''_A", "Pbar_A", "ReM_A"):
        assert e[name].coeff.real > 0.0
    assert e["P_A"].coeff.real < e["P''_A"].coeff.real


def test_gaussian_trace_identity():
    # Re(Y) + Re(xi) = P'_AB + Pbar'_AB, the trace-preservation condition;
    # it holds up to rounding, at d = 0 as well, where Im Y_AB still
    # carries the regulator
    for mass, d in ((0.0, 0.5), (0.5, 1.0), (0.0, 2.0), (0.9, 1.0),
                    (0.0, 0.0), (0.3, 0.0)):
        e = gaussian_integral_set(
            _scenario(kind=GAUSSIAN, sigma=2.0, mass=mass, d=d)).entries()
        lhs = (e["Y_AB"].coeff + np.conj(e["xi_AB"].coeff)).real
        rhs = (e["P'_AB"].coeff + e["Pbar'_AB"].coeff).real
        assert abs(lhs - rhs) < 1e-13


def test_gaussian_rem_identity_consistency():
    e = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.5)).entries()
    assert e["ReM_A"].coeff == pytest.approx(
        0.5 * (e["P_A"].coeff + e["P''_A"].coeff), abs=1e-12)


def test_gaussian_conjugate_pairs_real():
    e = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, mass=0.3)).entries()
    for name in ("P_A", "P''_A", "Pbar_A", "Pbar'_A", "X_AB", "P*_AB", "P'_AB"):
        assert abs(e[name].coeff.imag) < 1e-12
    assert e["Pbar_A"].coeff == pytest.approx(np.conj(e["Pbar'_A"].coeff))


def test_gaussian_sinc_bound():
    # separated entries are bounded by their coincidence counterparts
    e0 = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, d=0.0)).entries()
    e1 = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, d=2.0)).entries()
    assert abs(e1["X_AB"].coeff) < abs(e0["X_AB"].coeff)
    assert abs(e1["X_AB"].coeff) <= math.sqrt(
        e1["P''_A"].coeff.real * e1["P''_B"].coeff.real) + 1e-12
    assert e0["X_AB"].coeff == pytest.approx(e0["P''_A"].coeff, abs=1e-12)


def test_gaussian_xi_equals_y():
    e = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=2.0, d=0.7)).entries()
    assert e["xi_AB"].coeff == e["Y_AB"].coeff


def test_gaussian_feynman_term_regulator_stable():
    # Richardson-extrapolated Y must be insensitive to the regulator pair
    sc = _scenario(kind=GAUSSIAN, sigma=2.0, mass=0.5, d=0.5)
    a = gaussian_integral_set(sc, QuadratureSettings(eps_list=(4e-3, 2e-3)))
    b = gaussian_integral_set(sc, QuadratureSettings(eps_list=(1e-3, 5e-4)))
    assert abs(a.entries()["Y_AB"].coeff - b.entries()["Y_AB"].coeff) < 1e-7


def _v_factor(sc):
    sigma, de = sc.switching.sigma, sc.pair.delta_e
    return 2.0 * sigma * math.sqrt(math.pi) * math.exp(-((sigma * de) ** 2))


@pytest.mark.parametrize("c", (1.0, 2.0))
@pytest.mark.parametrize("sigma", (1.0, 2.0))
@pytest.mark.parametrize("d", (0.1, 0.5, 2.0))
def test_massless_cross_term_matches_cauchy_principal_value(d, sigma, c):
    # u0 = 2/(4 pi^2 c^3) [PV int_0^inf e^{-u^2/4s^2}/(x^2 - u^2) du
    #                      - i pi e^{-x^2/4s^2}/(2x)],  x = d/c
    sc = _scenario(kind=GAUSSIAN, sigma=sigma, mass=0.0, d=d, c=c)
    x = d / c
    pv, _ = quad(lambda u: -math.exp(-u * u / (4 * sigma**2)) / (u + x),
                 0.0, 13.0 * sigma, weight="cauchy", wvar=x,
                 epsabs=1e-15, epsrel=1e-14, limit=200)
    delta = -math.pi * math.exp(-x * x / (4 * sigma**2)) / (2.0 * x)
    ref = 0.5 * _v_factor(sc) * 2.0 * complex(pv, delta) / (4 * math.pi**2 * c**3)
    y = gaussian_integral_set(sc).y_ab
    assert abs(y.coeff - ref) <= 1e-13 * abs(ref)


def _regulated_y(sc, eps):
    """Y_AB against the i-eps kernel at one regulator, integrated tightly."""
    sigma, c, d = sc.switching.sigma, sc.units.c, sc.pair.distance
    kern = PositionKernel(mass=sc.field.mass, c=c, epsilon=eps)
    x = d / c
    parts = []
    for part in ("real", "imag"):
        val, _ = quad(lambda u: getattr(wightman_position(kern, u, d), part)
                      * math.exp(-u * u / (4 * sigma**2)),
                      0.0, 13.0 * sigma, points=[x - 50 * eps, x, x + 50 * eps],
                      epsabs=1e-14, epsrel=1e-13, limit=2000)
        parts.append(val)
    return _v_factor(sc) * complex(*parts)


@pytest.mark.parametrize("sigma, mass, d, de", [
    (2.0, 0.5, 0.5, 1.0), (1.0, 0.3, 1.0, 1.0), (1.5, 0.9, 2.0, 1.0),
    (1.0, 0.3, 0.5, 1.0),
])
def test_massive_cross_term_matches_richardson_regulated_reference(sigma, mass, d, de):
    # quadratic Richardson in eps over eps, 2 eps, 4 eps
    sc = _scenario(kind=GAUSSIAN, sigma=sigma, mass=mass, d=d, de=de)
    f1, f2, f4 = (_regulated_y(sc, eps) for eps in (1e-4, 2e-4, 4e-4))
    ref = (8.0 * f1 - 6.0 * f2 + f4) / 3.0
    assert abs(gaussian_integral_set(sc).y_ab.coeff - ref) < 1e-10


def _t_form_im_y(sc):
    """Im Y_AB from scipy quad on the proper-time form
    -sqrt(pi) k v_factor int_0^inf e^{-x^2 a - mu^2/4a} dt, a = 1/4s^2 + t^2,
    in pieces of the peak width 1/x around t* = sqrt(max(mu/2x - 1/4s^2, 0)),
    and by factors of 4 around sqrt(b) and mu/2, where mu^2/4a turns over."""
    sigma, c, d = sc.switching.sigma, sc.units.c, sc.pair.distance
    x, mu, b = d / c, sc.field.mass * c * c, 1.0 / (4.0 * sigma**2)
    psi = lambda t: -(x * t) ** 2 - x * x * b - mu * mu / (4.0 * (b + t * t))
    t_star = math.sqrt(max(mu / (2.0 * x) - b, 0.0))
    cuts = sorted({0.0, *(t for t in (t_star + j / x for j in range(-8, 9)) if t > 0.0),
                   *(v * 4.0**j for j in range(-3, 4) for v in (math.sqrt(b), mu / 2.0))})
    f = lambda t: math.exp(psi(t) - psi(t_star))
    total = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(cuts, cuts[1:]))
    total += quad(f, cuts[-1], math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    k = 1.0 / (4.0 * math.pi**2 * c**3)
    return -math.sqrt(math.pi) * k * _v_factor(sc) * total * math.exp(psi(t_star))


@pytest.mark.parametrize("sigma, mass, d, de, c", [
    (1.0, 0.4, 0.5, 1.0, 1.0), (2.0, 1.0, 0.5, 1.0, 1.0), (0.3, 5.0, 2.0, 1.0, 1.0),
    (5.0, 1e-2, 0.05, 0.3, 1.0), (1.0, 0.4, 0.5, 1.0, 3.0),
    # the peak at s* = 0 with r = h^2 = 30: a quartic, not a Gaussian, top
    (1.0, math.sqrt(30.0), 2.0 * math.sqrt(30.0), 1.0, 1.0),
    # m c^2 sigma = 2e3 and 3.6e3: thousands of periods of the J_1 form
    (1.0, 2e3, 0.01, 1.0, 1.0), (7.23, 292.0, 0.0671, 0.242, 1.3),
    # x mu = 2e-12 << 1 << mu sigma: a hole of width ~x mu/2 near s = 0
    # whose edge closes like 1/s^2, on edges graded by factors of 4
    (0.6, 1.13e10, 2e-22, 1.0, 1.0),
])
def test_massive_cross_term_matches_t_form_quad(sigma, mass, d, de, c):
    sc = _scenario(kind=GAUSSIAN, sigma=sigma, mass=mass, d=d, de=de, c=c)
    im, err = integrals._feynman_cross_term_im(sc, QuadratureSettings())
    ref = _t_form_im_y(sc)
    assert abs(im - ref) <= 1e-11 * abs(ref)
    assert err <= max(1e-8, 1e-14 * abs(im))


def test_tiny_mass_cross_term_meets_massless_closed_value():
    # the t-form rule at m = 1e-8 against -pi k v e^{-x^2/4s^2}/(2x)
    tiny = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, mass=1e-8, d=0.5))
    zero = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, mass=0.0, d=0.5))
    im, im0 = tiny.y_ab.coeff.imag, zero.y_ab.coeff.imag
    assert abs(im - im0) <= 1e-12 * abs(im0)


def test_huge_mass_cross_term_underflows_to_zero():
    # the integrand peaks at e^{-x mu}, which underflows: 0 with no error
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, mass=1e150, d=0.5)
    assert integrals._feynman_cross_term_im(sc, QuadratureSettings()) == (0.0, 0.0)


def test_cross_term_nonconvergence_names_y_ab(monkeypatch):
    # no scenario found makes the Y_AB panel rule miss the gate, so a rule
    # whose weights drift with the node count, and never settles, stands in
    rule = integrals._unit_rule
    monkeypatch.setattr(integrals, "_unit_rule", lambda parts, n: (
        rule(parts, n)[0], rule(parts, n)[1] * (1.0 + 1e-9 * n * parts)))
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, mass=0.4, d=0.5)
    with pytest.raises(QuadratureNonConvergence, match="entry Im Y_AB"):
        integrals._feynman_cross_term_im(sc, QuadratureSettings())


def test_gaussian_nonconvergence_names_entry():
    # sinc(p d) turns over ~16,000 times below p_max: no panel rule resolves
    # it (massive; the massless entries are closed)
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, mass=0.4, d=1e4)
    with pytest.raises(QuadratureNonConvergence, match="entry X_AB"):
        gaussian_integral_set(sc)


@pytest.mark.parametrize("knob", ["tol", "p_max"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_quadrature_settings_need_finite_positive_knobs(knob, value):
    # an infinite tol would pass every gate: the m = 0.4, d = 1e4 point that
    # cannot converge would return X_AB with an error above its value
    with pytest.raises(ValueError, match=f"{knob} must be finite and positive"):
        QuadratureSettings(**{knob: value})


def test_gaussian_tiny_tol_meets_relative_floor():
    # tol below rounding: the 1e-14 relative floor of the gate takes over
    sc = _scenario(kind=GAUSSIAN, sigma=1.0)
    tiny = gaussian_integral_set(sc, QuadratureSettings(tol=1e-300)).entries()
    for name, v in gaussian_integral_set(sc).entries().items():
        assert abs(tiny[name].coeff - v.coeff) <= 1e-14 * abs(v.coeff), name


@pytest.fixture
def no_cross_term(monkeypatch):
    """Im Y_AB stubbed to zero, so a test sees the radial entries alone."""
    monkeypatch.setattr(integrals, "_feynman_cross_term_im",
                        lambda scenario, settings: (0.0, 0.0))


@pytest.mark.parametrize("mass", (0.0, 0.5))
@pytest.mark.parametrize("sigma", (200.0, 1000.0))
def test_gaussian_tends_to_eternal(no_cross_term, sigma, mass):
    # a Gaussian window of width sigma has int chi^2 dt = sigma sqrt(pi) in
    # place of the eternal delta(0) factor; the peak is 1/sigma wide
    e = eternal_integral_set(_scenario(mass=mass, d=0.5)).entries()
    g = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=sigma, mass=mass,
                                        d=0.5)).entries()
    for name in ("P''_A", "X_AB"):
        got = g[name].coeff.real * math.sqrt(math.pi) / sigma
        assert got == pytest.approx(e[name].coeff.real, rel=1e-5), name


def _gaussian_integral(a, sigma, p_max):
    """int_0^p_max p exp(-sigma^2 (p - a)^2) dp, for either sign of a."""
    s = sigma
    ends = math.exp(-(s * a) ** 2) - math.exp(-(s * (p_max - a)) ** 2)
    # erf(s (p_max - a)) + erf(s a) as an erfc difference: at a < 0 the two
    # erf values are both near 1 and would cancel
    span = math.erfc(-s * a) - math.erfc(s * (p_max - a))
    return ends / (2 * s * s) + a * math.sqrt(math.pi) / (2 * s) * span


@pytest.mark.parametrize("de", (0.3, 1.0, 3.0, 10.0))
@pytest.mark.parametrize("sigma", (0.3, 1.0, 4.0, 64.0, 200.0, 1000.0))
def test_gaussian_massless_coincident_closed_forms(no_cross_term, sigma, de):
    # at m = 0, d = 0 the radial entries are Gaussian moments in p = E
    sc = _scenario(de=de, kind=GAUSSIAN, sigma=sigma, d=0.0)
    p_max = QuadratureSettings().resolved_p_max(sc)
    k = sigma**2 / (2 * math.pi)
    p_dd = k * _gaussian_integral(de, sigma, p_max)
    p = k * _gaussian_integral(-de, sigma, p_max)
    p_bar = (math.exp(-(sigma * de) ** 2)
             * -math.expm1(-(sigma * p_max) ** 2) / (4 * math.pi))
    e = gaussian_integral_set(sc).entries()
    for ref, names in ((p, ("P_A", "P*_AB")), (p_dd, ("P''_A", "X_AB")),
                       (p_bar, ("Pbar_A", "P'_AB"))):
        for name in names:
            assert abs(e[name].coeff - ref) <= 1e-12 * max(1.0, abs(ref)), name


@pytest.mark.parametrize("c", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("d", (0.0, 1e-3, 0.05, 0.5, 5.0, 50.0, 300.0))
def test_massless_closed_entries_match_panels(d, c):
    # the closed forms against the panel rule they replace at m = 0, with
    # sigma dE up to 30 and the cut-off at and below its default
    for sigma, de in ((1.0, 1.0), (0.3, 2.0), (3.0, 0.5), (10.0, 3.0),
                      (0.5, 0.2), (20.0, 1.5)):
        sc = _scenario(de=de, kind=GAUSSIAN, sigma=sigma, d=d, c=c)
        default = QuadratureSettings().resolved_p_max(sc)
        for p_max in (default, 0.3 * default):
            closed = integrals._massless_entries(sc, p_max)
            panels, err = integrals._radial_entries(sc, p_max, 1e-10)
            bound = 1e-12 * np.abs(closed) + 1e-14 * closed[1] + err
            assert np.all(np.abs(closed - panels) <= bound), (sigma, de, p_max)


def test_massless_entries_overflow_names_the_entry():
    # k = sigma^2/(2 pi c^3) overflows while the moments stay finite
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, d=0.5, c=1e-105)
    with pytest.raises(OverflowError, match=r"^P = inf is not finite"):
        gaussian_integral_set(sc)


def test_gaussian_rejects_eternal_scenario():
    with pytest.raises(ValueError):
        gaussian_integral_set(_scenario(kind=ETERNAL))


# ------------------------------------------------------------------- oracle

def test_oracle_matches_factorized_separable():
    sc = _scenario(kind=GAUSSIAN, sigma=2.0, mass=0.5, d=0.5)
    e = {k: v.coeff for k, v in gaussian_integral_set(sc).entries().items()}
    truth = {"P": e["P_A"], "P''": e["P''_A"], "Pbar": e["Pbar_A"],
             "Pbar'": e["Pbar'_A"], "P*_AB": e["P*_AB"], "P'_AB": e["P'_AB"],
             "Pbar'_AB": e["Pbar'_AB"], "X_AB": e["X_AB"]}
    for name, ref in truth.items():
        val, err = oracle_quadrature(name, sc, window=14.0, p_max=8.0,
                                     epsilon=1e-6)
        tol = max(1e-6, 3.0 * (err if math.isfinite(err) else 0.0))
        assert abs(val - ref) < tol, (name, val, ref)


def test_oracle_m_real_part_matches_identity_route():
    # Re of the defining ordered integral vs the (P + P'')/2 shortcut
    for mass in (0.0, 0.5, 1.0):
        sc = _scenario(kind=GAUSSIAN, sigma=2.0, mass=mass, de=1.2)
        rem = gaussian_integral_set(sc).entries()["ReM_A"].coeff.real
        val, _ = oracle_quadrature("M", sc, window=14.0, p_max=8.0,
                                   epsilon=1e-6, _estimate_error=False)
        assert abs(val.real - rem) < 1e-5, (mass, val.real, rem)


def test_oracle_y_real_part_matches_trace_identity():
    sc = _scenario(kind=GAUSSIAN, sigma=2.0, mass=0.5, d=0.5)
    e = gaussian_integral_set(sc).entries()
    val, _ = oracle_quadrature("Y_AB", sc, window=14.0, p_max=8.0,
                               epsilon=1e-4, _estimate_error=False)
    assert abs(val.real - e["P'_AB"].coeff.real) < 1e-6
    # same defining integral read at the mirror gap
    xi, _ = oracle_quadrature("xi_AB", sc, window=14.0, p_max=8.0,
                              epsilon=1e-4, _estimate_error=False)
    assert abs(xi - val) < 1e-8


@pytest.mark.parametrize("sigma, mass, d", [(1.5, 0.0, 0.5), (1.0, 0.5, 1.0),
                                            (1.0, 0.3, 0.5)])
def test_oracle_y_matches_production(sigma, mass, d):
    # the oracle's analytic radial tail beyond p_max makes this converge
    sc = _scenario(kind=GAUSSIAN, sigma=sigma, mass=mass, d=d)
    e = gaussian_integral_set(sc).entries()
    val, _ = oracle_quadrature("Y_AB", sc, window=7.0 * sigma, p_max=32.0,
                               epsilon=1e-6, _estimate_error=False)
    assert abs(val - e["Y_AB"].coeff) < 1e-5 * e["P''_A"].coeff.real


def test_oracle_rejects_unknown_entry_and_eternal():
    sc = _scenario(kind=GAUSSIAN, sigma=1.0)
    with pytest.raises(ValueError, match="unknown entry"):
        oracle_quadrature("nope", sc, window=5.0, p_max=5.0, epsilon=1e-4)
    with pytest.raises(ValueError):
        oracle_quadrature("P''", _scenario(kind=ETERNAL), window=5.0,
                          p_max=5.0, epsilon=1e-4)
    with pytest.raises(ValueError):
        oracle_quadrature("P''", sc, window=-1.0, p_max=5.0, epsilon=1e-4)


def test_oracle_large_sigma_slope():
    # finite-window values grow linearly in sigma; sqrt(pi) x slope
    # reproduces the stripped coefficient (delta(0) emulation)
    strip = eternal_integral_set(_scenario(de=1.0, mass=0.0)).entries()["P''_A"]
    sigmas = (8.0, 16.0)
    vals = []
    for s in sigmas:
        sc = _scenario(kind=GAUSSIAN, sigma=s, mass=0.0, d=0.0)
        v, _ = oracle_quadrature("P''", sc, window=6.0 * s, p_max=2.5,
                                 epsilon=1e-6, _estimate_error=False)
        vals.append(v.real)
    slope = (vals[1] - vals[0]) / (sigmas[1] - sigmas[0])
    assert math.sqrt(math.pi) * slope == pytest.approx(strip.coeff.real, rel=0.02)


# the oracle's array kernels

def _lag_sums_reference(h, g, dx):
    # the dense double sum, W from scipy's cumulative_simpson of the identity
    from scipy.integrate import cumulative_simpson
    n = len(h)
    w = cumulative_simpson(np.eye(n), dx=dx, axis=0, initial=0)
    terms = w * np.multiply.outer(h, g)
    return np.array([np.trace(terms, offset=-m) for m in range(-1, n)])


def test_lag_sums_match_dense_cumulative_simpson_at_every_lag():
    # a slip in the lag index leaves Y_AB and xi_AB intact but not M
    rng = np.random.default_rng(11)
    dx = 0.0137
    for n in (3, 5, 101, 1601):
        h, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(2))
        ref = _lag_sums_reference(h, g, dx)
        got = integrals._lag_sums(h, g, dx)
        assert got.shape == (n + 1,)
        scale = dx * np.linalg.norm(h) * np.linalg.norm(g)
        assert np.max(np.abs(got - ref)) < 1e-14 * scale, n
    with pytest.raises(ValueError):
        integrals._lag_sums(h[:-1], g[:-1], dx)


def test_lag_sums_match_scipy_on_real_and_imaginary_parts():
    # sum_m A_m e^{i E m dx} is sum_k h_k e^{i E tau_k} C_k, C the
    # cumulative Simpson integral of g e^{-i E tau}, scipy's on each part
    from scipy.integrate import cumulative_simpson
    rng = np.random.default_rng(7)
    for n in (3, 5, 101, 1601):
        tau = np.linspace(-1.0, 2.0, n)
        dx = tau[1] - tau[0]
        h, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for _ in range(2))
        a = integrals._lag_sums(h, g, dx)
        for e in (0.0, 1.3, -7.0, 40.0):
            y = g * np.exp(-1j * e * tau)
            cum = (cumulative_simpson(y.real, dx=dx, initial=0)
                   + 1j * cumulative_simpson(y.imag, dx=dx, initial=0))
            ref = np.sum(h * np.exp(1j * e * tau) * cum)
            got = a @ np.exp(1j * e * dx * np.arange(-1, n))
            scale = np.sum(np.abs(h) * np.abs(cum))
            assert abs(got - ref) < 1e-13 * scale, (n, e)


def test_phases_match_direct_exponentials():
    # |E tau| up to 2,000, on a grid whose length is not a block multiple
    tau = np.linspace(-10.0, 10.0, 4003)
    e = np.linspace(0.0, 200.0, 37)
    direct = np.exp(1j * np.multiply.outer(e, tau))
    assert np.max(np.abs(integrals._phases(e, tau) - direct)) < 1e-12


ORACLE_CASES = [(0.0, 0.5), (0.4, 1.0), (0.3, 0.0)]


@pytest.mark.parametrize("mass, d", ORACLE_CASES)
def test_oracle_error_estimate_is_half_grid_plus_half_nodes(mass, d):
    # the estimate shares the full grid's phases with its half grid; it
    # must still equal the two standalone coarser evaluations
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, mass=mass, d=d)
    scale = gaussian_integral_set(sc).entries()["P''_A"].coeff.real
    kw = dict(window=7.0, p_max=8.0, epsilon=1e-6)
    for entry in ("P''", "X_AB", "M", "Y_AB", "xi_AB"):
        v, err = oracle_quadrature(entry, sc, n_time=3201, n_p=96, **kw)
        half, _ = oracle_quadrature(entry, sc, n_time=1601, n_p=96,
                                    _estimate_error=False, **kw)
        coarse, _ = oracle_quadrature(entry, sc, n_time=3201, n_p=48,
                                      _estimate_error=False, **kw)
        assert abs(err - (abs(v - half) + abs(v - coarse))) < 1e-13 * scale, entry


# oracle values at sigma = 1, m = 0.4, d = 0.5, dE = 1 (window 7, p_max 8,
# eps 1e-6, 1601 time nodes, 48 radial nodes), recorded from the scipy
# cumulative_simpson and direct-exponential implementation
PINNED_ORACLE = {
    "P''": complex(0.2619943912894479, 0.0),
    "X_AB": complex(0.23648513191612358, 0.0),
    "M": complex(0.1326773526644595, -0.1694544151703456),
    "Y_AB": complex(0.020078598675770148, -0.09248554669603277),
    "xi_AB": complex(0.020078598675770155, -0.09248554669603277),
}


def test_oracle_pinned_values():
    sc = _scenario(kind=GAUSSIAN, sigma=1.0, mass=0.4, d=0.5)
    scale = gaussian_integral_set(sc).entries()["P''_A"].coeff.real
    for entry, ref in PINNED_ORACLE.items():
        v, err = oracle_quadrature(entry, sc, window=7.0, p_max=8.0, epsilon=1e-6,
                                   n_time=1601, n_p=48, _estimate_error=False)
        assert abs(v - ref) < 1e-12 * scale, (entry, v, ref)
        assert math.isnan(err)


def test_integral_set_max_err_and_power():
    ints = eternal_integral_set(_scenario())
    assert ints.delta0_power == 1
    assert ints.max_err == 0.0
    g = gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0, mass=0.4))
    assert g.max_err > 0.0
    # massless: every entry is closed, Im Y_AB included
    assert gaussian_integral_set(_scenario(kind=GAUSSIAN, sigma=1.0)).max_err == 0.0
