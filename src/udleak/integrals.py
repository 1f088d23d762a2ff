"""The eleven correlation integrals for a validated scenario.

Eternal switching: closed forms, with the infinite-duration delta(0)
factor carried symbolically (delta0_power = 1) so that rate extraction is
a typed operation instead of arithmetic on a large float.

Gaussian switching: every double time integral of a non-time-ordered
entry factorizes mode by mode into products of switching-window Fourier
transforms, leaving a single smooth radial momentum integral (angular
part analytic, sinc(p d) where a phase exp(+-i p.d) appears).  Massless,
the six such entries are Gaussian moments and sine transforms in E = p c,
closed through erfc-like tails of the Faddeeva function, with no error.
Massive, they share one composite Gauss-Legendre rule whose panel edges
hold the window peaks; each error estimate is the change from the rule
with half the nodes.  Two real parts follow from identities of a real
even window rather than from their ordered integrals: Re M = (P + P'')/2
and, from trace preservation, Re Y_AB = P'_AB.  The imaginary part of
the time-ordered cross term Y_AB (= xi_AB) is a Gaussian-weighted
integral of the position-space kernel along u = tA - tB'.  At d > 0 it
needs no regulator: the kernel's proper-time form turns it into one
positive, non-oscillating integral, closed when massless (the light-cone
delta) and on the same gated panel rule as the radial entries when
massive.  At d = 0 Y_AB is UV-divergent, and Im G is integrated with the
regulator in place and extrapolated to eps -> 0 from
QuadratureSettings.eps_list (the CLI's --epsilon); that number depends on
the regulator, a known defect, and is the only scipy quad left.

A brute-force evaluator of the raw definitions (nested time x time x
radial-mode quadrature, no factorization) is provided as the independent
oracle for everything else.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ETERNAL, GAUSSIAN, ValidatedScenario, stack_points, unstack
from .wightman import PositionKernel, switching_fourier, wightman_position


class NotDistributional(ValueError):
    pass


class QuadratureNonConvergence(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class RegulatedValue:
    """A number times delta(0)^power, with a quadrature error estimate
    (each an array over the points in a stacked set)."""

    coeff: complex
    delta0_power: int = 0
    err: float = 0.0

    def __post_init__(self):
        power = self.delta0_power
        if not (power in (0, 1) if isinstance(power, int)
                else np.all((power == 0) | (power == 1))):
            raise ValueError(f"delta0_power must be 0 or 1, got {self.delta0_power}")


def rate(value: RegulatedValue):
    """Per-unit-time rate of a distributional value: coeff / (2 pi).

    Implements (finite quantity) x lim_{T->inf} 1/(2 pi T) int_{-T/2}^{T/2} du.
    """
    if value.delta0_power != 1:
        raise NotDistributional(
            "rate extraction needs a delta0_power = 1 value; "
            f"got power {value.delta0_power}"
        )
    r = value.coeff / (2.0 * math.pi)
    if r.imag == 0.0:
        return r.real
    return r


@dataclass(frozen=True, slots=True)
class IntegralSet:
    """The distinct correlation integrals of one scenario.

    Both detectors share one gap and one window, so each per-detector
    entry is stored once; entries() expands them to the sixteen named
    values the density matrix and the output formats read.
    """

    p: RegulatedValue
    p_dd: RegulatedValue            # spontaneous-emission entry P''
    p_bar: RegulatedValue
    m_re: RegulatedValue            # real part of the vacuum-fluctuation entry
    p_ab_star: RegulatedValue
    p_ab_prime: RegulatedValue
    x_ab: RegulatedValue
    y_ab: RegulatedValue

    def entries(self):
        """All sixteen named entries, with the model's identities applied.

        A = B (one shared gap), Pbar' = conj(Pbar), and for a real even
        window (eternal switching included) Pbar'_AB = P'_AB and
        xi_AB = Y_AB, since xi(dE) = Y(-dE) and Y is even in dE.
        """
        pb = self.p_bar
        p_bar_prime = RegulatedValue(pb.coeff.conjugate(), pb.delta0_power, pb.err)
        return {
            "P_A": self.p, "P_B": self.p,
            "P''_A": self.p_dd, "P''_B": self.p_dd,
            "Pbar_A": pb, "Pbar_B": pb,
            "Pbar'_A": p_bar_prime, "Pbar'_B": p_bar_prime,
            "ReM_A": self.m_re, "ReM_B": self.m_re,
            "P*_AB": self.p_ab_star, "P'_AB": self.p_ab_prime,
            "Pbar'_AB": self.p_ab_prime, "X_AB": self.x_ab,
            "Y_AB": self.y_ab, "xi_AB": self.y_ab,
        }

    @property
    def max_err(self):
        return np.max([v.err for v in self.entries().values()], axis=0)

    @property
    def delta0_power(self):
        return np.max([v.delta0_power for v in self.entries().values()], axis=0)


@dataclass(frozen=True)
class QuadratureSettings:
    """Plain-value knobs for the Gaussian-mode evaluators."""

    tol: float = 1e-8
    p_max: float | None = None       # default 10 max(dE, 1/sigma) / c
    eps_list: tuple = (2e-3, 1e-3)   # d = 0 Y_AB regulators, extrapolated to 0

    def __post_init__(self):
        for name in ("tol", "p_max"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def resolved_p_max(self, scenario):
        if self.p_max is not None:
            return self.p_max
        sigma = scenario.switching.sigma or 1.0
        p_max = 10.0 * max(scenario.pair.delta_e, 1.0 / sigma) / scenario.units.c
        if not math.isfinite(p_max):
            raise OverflowError(f"default p_max = {p_max} is not finite")
        return p_max


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: eternal runs and
    Gaussian points at d > 0 never load scipy.integrate."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def threshold_momentum(scenario):
    """On-shell radial momentum sqrt(dE^2 - m^2 c^4)/c, or 0 below threshold."""
    de = scenario.pair.delta_e
    mc2 = scenario.field.mass * scenario.units.c**2
    if de <= mc2:
        return 0.0
    return math.sqrt(de * de - mc2 * mc2) / scenario.units.c


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def eternal_integral_set(scenario: ValidatedScenario) -> IntegralSet:
    """Closed forms for chi = 1: only P'', Re M and X_AB survive.

    Stripped coefficients (the factor multiplying delta(0)):
    P'' = sqrt(dE^2 - m^2 c^4) / (2 c^3), Re M = half of that, and
    X_AB = P'' sinc(q d / c) with q the surviving energy-shell momentum
    scale.  At and below threshold everything is zero.

    A stacked scenario gives entries that are arrays over the points; a
    single one runs as a batch of one and gives plain numbers.  A
    non-finite P'' raises OverflowError, naming the first such value.
    """
    if scenario.switching.kind != ETERNAL:
        raise ValueError("eternal_integral_set requires eternal switching")
    single = np.ndim(scenario.state.alpha) == 0
    sc = stack_points([scenario]) if single else scenario
    c = sc.units.c
    # an overflow gives inf and 0 / 0 the NaN silently; the check below names them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mc2 = sc.field.mass * np.square(c)
        root = np.sqrt(np.maximum(sc.pair.delta_e * sc.pair.delta_e - mc2 * mc2, 0.0))
        c3 = c**3
        p_dd = root / (2.0 * c3)
        bad = ~np.isfinite(p_dd)
        if bad.any():
            raise OverflowError(f"P'' = {p_dd[np.argmax(bad)].item()} is not finite")
        m_re = root / (4.0 * c3)
        x = p_dd * _sinc(root * sc.pair.distance / c)

    zero = RegulatedValue(np.zeros_like(root, dtype=complex), np.zeros(root.shape, int),
                          np.zeros_like(root))
    power0 = (root > 0.0).astype(int)
    dist = lambda v: RegulatedValue(v.astype(complex), power0, zero.err)
    ints = IntegralSet(p=zero, p_dd=dist(p_dd), p_bar=zero, m_re=dist(m_re),
                       p_ab_star=zero, p_ab_prime=zero, x_ab=dist(x), y_ab=zero)
    return next(unstack(ints)) if single else ints


RADIAL_ENTRIES = ("P", "P''", "Pbar", "P*_AB", "X_AB", "P'_AB")


def _finite_entries(val, names=RADIAL_ENTRIES):
    val = np.asarray(val)
    if not np.isfinite(val).all():
        k = int(np.argmin(np.isfinite(val)))
        raise OverflowError(f"{names[k]} = {val[k]} is not finite")
    return val


@functools.cache
def _unit_rule(parts, n):
    """Gauss-Legendre, n nodes on each of `parts` equal pieces of [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = (np.arange(parts)[:, None] + 0.5 * (x + 1.0)) / parts
    return nodes.ravel(), np.tile(w / (2.0 * parts), parts)


def _panel_integral(f, edges, tol, names, scale):
    """scale int f over the panels between `edges`, f giving one row per
    entry of `names` at the nodes: (values, error estimates).  Composite
    Gauss-Legendre; the estimate is the change from the rule with half the
    nodes, and until every entry passes err <= max(tol, 1e-14 |value|)
    each panel is cut in twice as many pieces of 256 nodes, up to 64
    (leggauss(n) is a dense n x n eigenproblem, so n stays at 256).
    """
    lo, width = edges[:-1, None], np.diff(edges)[:, None]

    def rule(parts, n):
        u, w = _unit_rule(parts, n)
        return scale * (f((lo + width * u).ravel()) @ (width * w).ravel())

    coarse, parts = rule(1, 128), 1
    while True:
        val = _finite_entries(rule(parts, 256), names)
        err = np.abs(val - coarse)
        failing = ~(err <= np.maximum(tol, 1e-14 * np.abs(val)))
        if not failing.any():
            return val, err
        if parts >= 64:
            worst = int(np.argmax(np.where(failing, err, -1.0)))
            raise QuadratureNonConvergence(
                f"entry {names[worst]} error estimate {err[worst]:.3e} "
                f"exceeds tol {tol:.3e}")
        coarse, parts = val, 2 * parts


def _massless_entries(scenario, p_max):
    """The six radial entries at m = 0 in closed form, RADIAL_ENTRIES order.

    With E = p c, L = p_max c, s = sigma, k = s^2/(2 pi c^3) and x = d/c,
    each entry is k int_0^L g(E) e^{-s^2 (E - a)^2} dE, g = E (P, P'', Pbar)
    or sin(E x)/x (P*_AB, X_AB, P'_AB), at a = -dE, +dE and 0 (times
    e^{-s^2 dE^2}) in turn.  Both reduce to segments of
    int e^{-s^2 t^2 + i x t} dt (t = E - a) between tails
    T(b) = int_b^inf = (sqrt(pi)/2s) e^{-s^2 b^2 + i b x} w(x/2s + i s b)
    for b >= 0 only, so the Faddeeva w is evaluated where Im >= 0 and no
    e^{+s^2 b^2} forms.
    """
    from scipy.special import wofz   # imported here: eternal runs load no scipy
    s = scenario.switching.sigma
    c = scenario.units.c
    de = scenario.pair.delta_e
    big_l = p_max * c
    x = scenario.pair.distance / c
    k = s * s / (2.0 * math.pi * c**3)
    root_pi = math.sqrt(math.pi)

    def tail(b, freq):
        return (root_pi / (2.0 * s) * cmath.exp(complex(-(s * b) ** 2, b * freq))
                * complex(wofz(complex(freq / (2.0 * s), s * b))))

    def segment(lo, hi, freq):
        # int_lo^hi e^{-s^2 t^2 + i freq t} dt, from tails past 0 only
        if lo >= 0.0:
            return tail(lo, freq) - tail(hi, freq)
        if hi <= 0.0:
            return (tail(-hi, freq) - tail(-lo, freq)).conjugate()
        whole = root_pi / s * math.exp(-(freq / (2.0 * s)) ** 2)
        return whole - tail(-lo, freq).conjugate() - tail(hi, freq)

    def moment(a):
        ends = math.exp(-(s * a) ** 2) - math.exp(-(s * (big_l - a)) ** 2)
        return ends / (2.0 * s * s) + a * segment(-a, big_l - a, 0.0).real

    def sine(a):
        return (cmath.exp(complex(0.0, a * x)) * segment(-a, big_l - a, x)).imag

    pair = math.exp(-(s * de) ** 2)
    radial = [k * moment(-de), k * moment(de),
              pair * -math.expm1(-(s * big_l) ** 2) / (4.0 * math.pi * c**3)]
    if x * big_l < 1e-8:
        # sinc(p d) rounds to 1 up to p_max: d = 0 to double precision
        return _finite_entries(radial + radial)
    f = k / x
    return _finite_entries(radial + [f * sine(-de), f * sine(de), f * pair * sine(0.0)])


def _radial_entries(scenario, p_max, tol):
    """The six radial entries 1/(4 pi^2) int_0^pmax dp p^2/E [sinc(p d)] w(E),
    w one of chi(E + dE)^2, chi(E - dE)^2, chi(E - dE) chi(E + dE), in
    RADIAL_ENTRIES order, with their error estimates.  Only massive points
    come here: at m = 0, _massless_entries has them in closed form.

    Panel edges hold every peak of the weights: the shell q,
    q +- 10/(sigma c) and 10/(sigma c), where a squared window has fallen
    by e^-100 (see _panel_integral).
    """
    sw = scenario.switching
    c = scenario.units.c
    mc2 = scenario.field.mass * c**2
    de = scenario.pair.delta_e
    d = scenario.pair.distance
    q = threshold_momentum(scenario)
    width = 10.0 / (sw.sigma * c)
    edges = np.unique([0.0, p_max] + [e for e in (q, q - width, q + width, width)
                                      if 0.0 < e < p_max])

    def weights(p):
        e = np.sqrt((p * c) ** 2 + mc2 * mc2)
        plus = switching_fourier(sw, e + de)
        minus = switching_fourier(sw, e - de)
        f = np.array([plus * plus, minus * minus, plus * minus]) * (p * p / e)
        return np.concatenate([f, f * _sinc(p * d)])

    return _panel_integral(weights, edges, tol, RADIAL_ENTRIES, 1.0 / (4.0 * math.pi**2))


def _regulated_cross_term_im(scenario, settings, v_factor):
    """Im Y_AB at d = 0: the u-quadrature of Im G(|u|, 0), the time-ordered
    kernel with the regulator eps in place, linearly extrapolated to
    eps -> 0.  Returns (value, error estimate).

    Y_AB is UV-divergent at coincidence, so this number depends on the
    regulator pair (settings.eps_list); it is kept as a known defect.
    """
    sigma = scenario.switching.sigma
    c = scenario.units.c
    tol = settings.tol
    u_max = 13.0 * sigma

    def u_integral(eps):
        kern = PositionKernel(mass=scenario.field.mass, c=c, epsilon=eps)

        def f(u):
            w = math.exp(-(u * u) / (4.0 * sigma * sigma))
            val = w * wightman_position(kern, u, 0.0).imag
            if not math.isfinite(val):      # a NaN handed back to quad can crash it
                raise QuadratureNonConvergence(f"entry Y_AB integrand is {val} at u = {u!r}")
            return val

        im, eim = quad(f, 0.0, u_max, epsabs=tol, epsrel=1e-12, limit=800)
        return 2.0 * im, 2.0 * eim

    eps_hi, eps_lo = sorted(settings.eps_list, reverse=True)[:2]
    # smaller regulator first: a huge one overflows before 2 eps is tried as inf
    u_lo, err_lo = u_integral(eps_lo)
    u_hi, err_hi = u_integral(eps_hi)
    # linear Richardson in eps (assumes eps_hi = 2 eps_lo up to rounding)
    w = eps_hi / (eps_hi - eps_lo)
    u0 = w * u_lo - (w - 1.0) * u_hi
    extrap_err = abs(u_lo - u_hi)
    return 0.5 * v_factor * u0, 0.5 * v_factor * (err_hi + err_lo + extrap_err)


def _feynman_cross_term_im(scenario, settings):
    """Im Y_AB for Gaussian switching via the position-space kernel, with
    its error estimate; Re Y_AB = P'_AB (see gaussian_integral_set).

    In rotated coordinates u = tA - tB', v = tA + tB' the double integral
    splits exactly: a Gaussian v-integral v_factor (analytic) times
    u0 = 2 int_0^inf du e^{-u^2/4 sigma^2} G(u, d), G the time-ordered
    kernel.  Its proper-time form G = k int_0^inf da e^{-a (x^2 - u^2) -
    mu^2/4a} (x = d/c, mu = m c^2, k = 1/(4 pi^2 c^3)) leaves the u-integral
    sqrt(pi/(b - a)), b = 1/(4 sigma^2), imaginary only for a > b (its sign
    set by the i-eps); with a = b + t^2, Im u0 = -2 sqrt(pi) k
    int_0^inf e^{-x^2 a - mu^2/4a} dt, which neither oscillates nor
    cancels, and is -pi k e^{-x^2/4 sigma^2}/x massless.  Massive, s = x t
    gives the exponent -A - r^2/A with A = s^2 + h^2, h = x/(2 sigma),
    r = x mu/2 (no x^2 to underflow).  It peaks at A* = max(r, h^2), where
    it is at most -A*, and falls below its peak by (A - A*)^2/A or more.
    At d = 0 the integral diverges and the regulated route is kept instead.
    """
    sigma = scenario.switching.sigma
    de = scenario.pair.delta_e
    c = scenario.units.c
    d = scenario.pair.distance

    # int dv exp(-v^2/4s^2 - i dE v) -- even in dE, so xi_AB = Y_AB(-dE) = Y_AB
    v_factor = 2.0 * sigma * math.sqrt(math.pi) * math.exp(-((sigma * de) ** 2))
    if d == 0.0:
        return _regulated_cross_term_im(scenario, settings, v_factor)

    x = d / c
    h = x / (2.0 * sigma)
    r = 0.5 * x * scenario.field.mass * c**2
    # Im Y_AB = 0.5 v_factor Im u0 = scale int_0^inf e^{-A - r^2/A} ds
    scale = -math.sqrt(math.pi) * v_factor / (4.0 * math.pi**2 * c**3) / x
    if r == 0.0:
        # massless (or x mu below the smallest double): the light-cone delta
        im = scale * 0.5 * math.sqrt(math.pi) * math.exp(-h * h)
        if not math.isfinite(im):
            raise OverflowError(f"Im Y_AB = {im} is not finite")
        return im, 0.0
    a_star = max(r, h * h)
    if not a_star < 1000.0:
        return 0.0, 0.0                 # the integrand, below e^-A*, underflows
    peak = math.sqrt(a_star - h * h)
    top = math.sqrt(peak * peak + 32.0 + 8.0 * math.sqrt(16.0 + a_star))
    flank, lo = top - peak, max(h, r)
    # past top, (A - A*)^2/A > 64; r^2/A turns over at s ~ lo, then closes
    # like r^2/s^2 out to s ~ 1: edges 4^j lo there, where r shows
    cuts = [lo * 4.0**j for j in range(math.ceil(-math.log(lo, 4.0)))] if r > 1e-16 else []
    cuts += [peak - flank, peak - flank / 4, peak, peak + flank / 4]
    edges = np.array(sorted({0.0, top, *(e for e in cuts if 0.0 < e < top)}))
    (im,), (err,) = _panel_integral(
        lambda s: np.exp(-s * s - h * h - (r / np.hypot(s, h)) ** 2)[None],
        edges, settings.tol, ("Im Y_AB",), scale)
    return float(im), float(err)


def gaussian_integral_set(scenario: ValidatedScenario,
                          settings: QuadratureSettings | None = None) -> IntegralSet:
    """All eleven entries at finite Gaussian width: everything is finite.

    Two real parts come from identities valid for a real even window
    instead of their defining ordered integrals, which oracle_quadrature
    covers: Re M = (P + P'')/2 (the theta function drops out of the
    symmetrized anti-commutator integrand), and Re Y_AB = P'_AB, the
    condition Re Y_AB + Re xi_AB = P'_AB + Pbar'_AB for the evolved
    density matrix to keep trace 1, with xi_AB = Y_AB and
    Pbar'_AB = P'_AB.  Only Im Y_AB is integrated.
    """
    if scenario.switching.kind != GAUSSIAN:
        raise ValueError("gaussian_integral_set requires gaussian switching")
    settings = settings or QuadratureSettings()
    p_max = settings.resolved_p_max(scenario)
    if scenario.field.mass == 0.0:
        val, err = _massless_entries(scenario, p_max), np.zeros(len(RADIAL_ENTRIES))
    else:
        val, err = _radial_entries(scenario, p_max, settings.tol)
    results = {name: RegulatedValue(complex(v), 0, float(e))
               for name, v, e in zip(RADIAL_ENTRIES, val, err)}
    p = results["P"]
    p_dd = results["P''"]
    p_ab = results["P'_AB"]
    m_re = RegulatedValue(0.5 * (p.coeff + p_dd.coeff), 0,
                          0.5 * (p.err + p_dd.err))
    y_im, y_err = _feynman_cross_term_im(scenario, settings)
    y_ab = RegulatedValue(complex(p_ab.coeff.real, y_im), 0, p_ab.err + y_err)
    return IntegralSet(p=p, p_dd=p_dd, p_bar=results["Pbar"], m_re=m_re,
                       p_ab_star=results["P*_AB"], p_ab_prime=p_ab,
                       x_ab=results["X_AB"], y_ab=y_ab)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

# (omega_tau, omega_tau') coefficient tables: phase exp(i(a dE + b E) tau)
# for each defining integral, read off the raw definitions mode by mode.
_SEPARABLE = {
    "P":        ((+1, +1), (-1, -1), False),
    "P''":      ((-1, +1), (+1, -1), False),
    "Pbar":     ((-1, +1), (-1, -1), False),
    "Pbar'":    ((+1, +1), (+1, -1), False),
    "P*_AB":    ((-1, -1), (+1, +1), True),
    "P'_AB":    ((-1, -1), (-1, +1), True),
    "Pbar'_AB": ((-1, +1), (-1, -1), True),
    "X_AB":     ((-1, +1), (+1, -1), True),
}

ORACLE_ENTRIES = tuple(_SEPARABLE) + ("M", "Y_AB", "xi_AB")


def _lag_sums(h, g, dx):
    """A_m = sum_k h_k g_{k-m} W_{k,k-m} for the lags m = -1 ... n-1
    (index m + 1), W the cumulative Simpson rule as a matrix: C_k =
    sum_j W_kj y_j is scipy's cumulative_simpson of y (odd node count n,
    uniform step dx, C_0 = 0).  Grouped by lag, the time-ordered double
    sum sum_{k,j} h_k g_j W_kj e^{i E (tau_k - tau_j)} is
    sum_m A_m e^{i E m dx}.

    In units of dx/3, W_{k,k-m} is 1 at m = 0, 4 at odd m and 2 at even
    m > 0 for even k (the composite rule up to tau_k); for odd k (that
    rule plus the first half of the next parabola) it is -1/4, 2 and 9/4
    at m = -1, 0 and 1, then 2 at odd m and 4 at even m.  The j = 0
    column is 1 lower at every lag.  So A is two FFT correlations of g,
    with h on the even and on the odd nodes.
    """
    n = len(h)
    if n % 2 == 0:
        raise ValueError("need an odd node count for cumulative Simpson")
    lags = np.arange(-1, n)
    even = np.where(lags % 2, 4.0, 2.0)
    even[:2] = 0.0, 1.0
    odd = np.where(lags % 2, 2.0, 4.0)
    odd[:3] = -0.25, 2.0, 2.25
    parts = np.zeros((2, n), complex)
    parts[0, ::2], parts[1, 1::2] = h[::2], h[1::2]
    # sum_k p_k g_{k-m} is the convolution of p with reversed g at n - 1 + m
    size = 1 << (2 * n - 2).bit_length()
    corr = np.fft.ifft(np.fft.fft(parts, size) * np.fft.fft(g[::-1], size))
    corr = corr[:, n - 2:2 * n - 1]
    a = even * corr[0] + odd * corr[1]
    a[1:] -= h * g[0]
    return dx / 3 * a


def _phases(e, tau):
    """exp(i e tau) for energies e on the uniform grid tau: phases at block
    starts times in-block offsets, len(e) (n/B + B) complex exponentials
    instead of len(e) n.  The step comes from the endpoints, since
    tau[1] - tau[0] carries a rounding error of up to ~1e-13 relative."""
    n = len(tau)
    block = math.isqrt(n) + 1
    step = (tau[-1] - tau[0]) / (n - 1)
    start = np.exp(1j * np.multiply.outer(e, tau[::block]))
    offset = np.exp(1j * np.multiply.outer(e, step * np.arange(block)))
    return (start[:, :, None] * offset[:, None, :]).reshape(len(e), -1)[:, :n]


def _simpson_weights(n, h):
    if n % 2 == 0:
        raise ValueError("need an odd node count for composite Simpson")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def oracle_quadrature(entry, scenario, window, p_max, epsilon,
                      n_time=None, n_p=None, _estimate_error=True):
    """Evaluate one raw correlation integral by direct nested quadrature.

    Inner double time integral on a truncated window (composite Simpson on
    a uniform grid; the time-ordered entries M, Y_AB and xi_AB take the
    inner integral up to tau by cumulative Simpson), outer Gauss-Legendre
    radial mode quadrature, angular factor analytic.  No per-mode
    factorization identities or closed forms are used, so this is
    independent of every other evaluator in the module.

    The cumulative rule's weight on tau' depends only on the lag
    tau - tau' (in steps) and the parity of tau's node, apart from the
    first node, so each time-ordered double sum is regrouped by lag
    (_lag_sums): its energy-free lag coefficients come from two FFT
    correlations per time grid, and at each radial node the sum is one
    phase sum over lags, as cheap as a separable entry.  The same terms
    are summed, in another order.

    Y_AB and xi_AB decay only like 1/E in the radial variable: at large E
    the time-ordered double integral tends to -2i sigma sqrt(pi)
    e^{-sigma^2 dE^2} / E (the u = tA - tB' integral of e^{-i E |u|}
    against the window gives -2i/E times its value at u = 0, and the
    v-integral gives 2 sigma sqrt(pi) e^{-sigma^2 dE^2}).  With E -> p c
    beyond p_max, the part the cut-off drops is derived from that limit in
    closed form, -2i sigma sqrt(pi) e^{-sigma^2 dE^2} / (4 pi^2 c^2 d)
    (pi/2 - Si(p_max d)), and added.  At d = 0 the tail does not converge
    (Y_AB diverges there) and nothing is added.

    Returns (value, error_estimate); the estimate is the change under
    halving both node counts.  Every e^{+-i E tau} is read from one lag
    phase matrix e^{i E (tau - tau_0)} per chunk of radial nodes (its
    conjugate for -E; each term pairs +E with -E, so e^{i E tau_0}
    cancels), which the half time grid tau[::2] of the estimate shares;
    the radial-node halving is a second call.
    """
    if entry not in ORACLE_ENTRIES:
        raise ValueError(f"unknown entry {entry!r}; choose from {ORACLE_ENTRIES}")
    if scenario.switching.kind != GAUSSIAN:
        raise ValueError(
            "oracle_quadrature integrates the switching window directly; "
            "emulate eternal switching with a wide Gaussian"
        )
    if not (window > 0 and p_max > 0 and epsilon > 0):
        raise ValueError("window, p_max and epsilon must all be positive")

    sigma = scenario.switching.sigma
    de = scenario.pair.delta_e
    c = scenario.units.c
    mc2 = scenario.field.mass * c**2
    d = scenario.pair.distance

    # radial Gauss-Legendre nodes
    if n_p is None:
        n_p = int(min(420, max(96, 9.0 * p_max * max(sigma, 1.0))))
    p_nodes, p_weights = (p_max * a for a in _unit_rule(1, n_p))
    e_nodes = np.sqrt((p_nodes * c) ** 2 + mc2 * mc2)
    measure = p_weights * p_nodes**2 / e_nodes * np.exp(-epsilon * e_nodes)
    if entry in ("Y_AB", "xi_AB") or (entry in _SEPARABLE and _SEPARABLE[entry][2]):
        measure = measure * _sinc(p_nodes * d)

    # uniform time grid fine enough for the fastest phase
    omega_max = de + float(e_nodes[-1])
    if n_time is None:
        n_time = int(2.0 * window * omega_max / 0.07) + 1
        n_time = max(n_time, 801)
    # 4k+1 nodes so the half grid tau[::2] is still odd-count for Simpson
    n_time += (-(n_time - 1)) % 4
    tau = np.linspace(-window, window, n_time)
    chi = np.exp(-(tau**2) / (2.0 * sigma * sigma))
    up = np.exp(1j * de * tau)          # e^{i dE tau}; e^{-i dE tau} is its conjugate
    # (node slice, step): the full grid, and the half grid for the estimate
    grids = [(slice(None), tau[1] - tau[0])]
    if _estimate_error:
        grids.append((slice(None, None, 2), tau[2] - tau[0]))

    tail = 0.0
    if entry in ("Y_AB", "xi_AB") and d > 0:
        from scipy.special import sici
        si, _ = sici(p_max * d)
        tail = (-2j * sigma * math.sqrt(math.pi) * math.exp(-((sigma * de) ** 2))
                / (4.0 * math.pi**2 * c * c * d) * (0.5 * math.pi - float(si)))

    def pm(z, sign):
        # a phase factor z, or for sign < 0 its conjugate, the opposite phase
        return z if sign > 0 else z.conj()

    def tsum(ph, b, v):
        # sum over lags m of e^{i b E m dt} v_m, for each radial node
        return ph @ v if b > 0 else (ph @ v.conj()).conj()

    def time_integral(nodes, dt):
        """The double time integral on the grid tau[nodes], as a function
        of the lag phases ph = e^{i E (tau - tau_0)} at each radial node."""
        u, x = up[nodes], chi[nodes]
        wx = _simpson_weights(len(x), dt) * x
        if entry in _SEPARABLE:
            # phase e^{i(a dE + b E) tau} on each time integral
            (a1, b1), (a2, b2), _ = _SEPARABLE[entry]
            v1, v2 = pm(u, a1) * wx, pm(u, a2) * wx
            return lambda ph: tsum(ph, b1, v1) * tsum(ph, b2, v2)
        if entry == "M":
            # int dtau chi e^{i w tau} int_{-W}^{tau} dtau' chi e^{-i w tau'}
            # for w = dE + E and w = dE - E (the two anti-commutator pieces):
            # 2 sum_m A_m cos(E m dt), lag -1 folded onto lag 1
            a = _lag_sums(wx * u, x * u.conj(), dt)
            a[2] += a[0]
            a = a[1:]
            return lambda ph: tsum(ph, +1, a) + tsum(ph, -1, a)
        # Y_AB / xi_AB: e^{-+i dE (tA + tB')} times the G_F-ordered kernel.
        # h = wx q is g = x q times the Simpson weights, which are the last
        # row of the cumulative rule, so the upper ordering is the full
        # product of the +E and -E sums of h minus the lower ordering:
        # that product - 2i sum_m A_m sin(E m dt), lag -1 folded onto 1
        q = pm(u, -1 if entry == "Y_AB" else +1)
        h = wx * q
        a = _lag_sums(h, x * q, dt)
        a[2] -= a[0]
        a = a[1:]
        return lambda ph: (tsum(ph, +1, h) * tsum(ph, -1, h)
                           - tsum(ph, +1, a) + tsum(ph, -1, a))

    # one lag phase matrix per chunk of radial nodes serves both time grids
    integrands = [(nodes, time_integral(nodes, dt)) for nodes, dt in grids]
    sums = np.zeros(len(grids), complex)
    chunk = 48
    for i0 in range(0, n_p, chunk):
        ph = _phases(e_nodes[i0:i0 + chunk], tau - tau[0])
        for k, (nodes, integrand) in enumerate(integrands):
            sums[k] += measure[i0:i0 + chunk] @ integrand(ph[:, nodes])
    value, *half = sums / (4.0 * math.pi**2) + tail

    if not _estimate_error:
        return value, math.nan

    coarse, _ = oracle_quadrature(entry, scenario, window, p_max, epsilon,
                                  n_time=n_time, n_p=max(32, n_p // 2),
                                  _estimate_error=False)
    err = abs(value - half[0]) + abs(value - coarse)
    return value, err
