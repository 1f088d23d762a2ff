import math

import numpy as np
import pytest

from udleak.model import ETERNAL, GAUSSIAN, SwitchingSpec
from udleak.wightman import (EPSILON_FLOOR, PositionKernel, RegulatorTooSmall,
                             UnsupportedSwitching, bessel_k1,
                             switching_fourier, wightman_mode_sum,
                             wightman_position)

mpmath = pytest.importorskip("mpmath")


def test_bessel_k1_against_mpmath():
    rng = np.random.default_rng(13)

    def draw(r_lo, r_hi):
        r = rng.uniform(r_lo, r_hi)
        phi = rng.uniform(-0.45 * math.pi, 0.45 * math.pi)
        return r * complex(math.cos(phi), math.sin(phi))

    # the second band brackets |z| ~ 7.8, where a series/asymptotic switch
    # loses accuracy to cancellation
    worst = 0.0
    for z in [draw(0.05, 30.0) for _ in range(60)] + [draw(7.0, 8.6) for _ in range(30)]:
        ours = bessel_k1(z)
        ref = complex(mpmath.besselk(1, mpmath.mpc(z.real, z.imag)))
        worst = max(worst, abs(ours - ref) / abs(ref))
    assert worst < 1e-12


def test_bessel_k1_small_argument_pole():
    # K_1(z) -> 1/z as z -> 0
    for z in (1e-4, 1e-4 * 1j + 1e-5):
        assert abs(bessel_k1(z) * z - 1.0) < 1e-6


def test_bessel_k1_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        bessel_k1(0.0)


def test_position_massless_spacelike_limit():
    # (dt=0, r=1): 1/(4 pi^2) as eps -> 0
    vals = [wightman_position(PositionKernel(epsilon=e), 0.0, 1.0)
            for e in (4e-3, 2e-3)]
    extrap = 2.0 * vals[1] - vals[0]  # eps^2 behaviour: crude linear bound
    assert extrap.real == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-4)
    assert abs(extrap.imag) < 1e-4


def test_position_massless_timelike():
    # (dt=2, r=0): about -1/(16 pi^2), small imaginary part ~ eps
    v = wightman_position(PositionKernel(epsilon=1e-3), 2.0, 0.0)
    assert v.real == pytest.approx(-1.0 / (16.0 * math.pi**2), rel=1e-5)
    assert abs(v.imag) < 1e-4
    assert v.imag < 0  # positive-frequency branch


def test_massive_reduces_to_massless():
    k0 = PositionKernel(mass=0.0, epsilon=1e-2)
    k1 = PositionKernel(mass=1e-6, epsilon=1e-2)
    a = wightman_position(k0, 0.7, 0.3)
    b = wightman_position(k1, 0.7, 0.3)
    assert abs(a - b) / abs(a) < 1e-9


def test_closed_form_matches_mode_sum():
    rng = np.random.default_rng(29)
    for mass in (0.0, 0.5, 1.0):
        for _ in range(7):
            dt = rng.uniform(-3.0, 3.0)
            r = rng.uniform(0.0, 3.0)
            eps = rng.uniform(0.03, 0.1)
            kern = PositionKernel(mass=mass, epsilon=eps)
            closed = wightman_position(kern, dt, r)
            sums = wightman_mode_sum(kern, dt, r)
            assert abs(closed - sums) / abs(closed) < 1e-6, (mass, dt, r, eps)


def test_closed_form_matches_mode_sum_nonunit_c():
    kern = PositionKernel(mass=0.5, c=2.0, epsilon=0.05)
    closed = wightman_position(kern, 0.9, 1.3)
    sums = wightman_mode_sum(kern, 0.9, 1.3)
    assert abs(closed - sums) / abs(closed) < 1e-6


def test_hermiticity_symmetry():
    # G(-dt, r) = conj(G(dt, r)) for the regulated kernel
    kern = PositionKernel(mass=0.7, epsilon=0.05)
    a = wightman_position(kern, 1.2, 0.4)
    b = wightman_position(kern, -1.2, 0.4)
    assert abs(b - np.conj(a)) < 1e-14


def test_regulator_floor_enforced():
    import types

    with pytest.raises(RegulatorTooSmall):
        PositionKernel(epsilon=0.5 * EPSILON_FLOOR)
    hacked = types.SimpleNamespace(mass=0.0, c=1.0, epsilon=0.5 * EPSILON_FLOOR)
    with pytest.raises(RegulatorTooSmall):
        wightman_position(hacked, 0.0, 1.0)
    with pytest.raises(RegulatorTooSmall):
        wightman_mode_sum(hacked, 0.0, 1.0)


def test_negative_separation_rejected():
    with pytest.raises(ValueError, match="separation"):
        wightman_position(PositionKernel(epsilon=1e-2), 0.0, -1.0)


def test_switching_fourier_values():
    sw = SwitchingSpec(kind=GAUSSIAN, sigma=1.0)
    assert switching_fourier(sw, 0.0) == pytest.approx(math.sqrt(2.0 * math.pi))
    assert switching_fourier(sw, 2.0) == pytest.approx(
        math.sqrt(2.0 * math.pi) * math.exp(-2.0))


def test_switching_fourier_matches_quadrature():
    from scipy.integrate import quad

    sw = SwitchingSpec(kind=GAUSSIAN, sigma=1.7)
    for omega in (0.0, 0.9, 2.3):
        ref, _ = quad(lambda t: math.exp(-t * t / (2 * 1.7**2)) * math.cos(omega * t),
                      -40.0, 40.0, epsabs=1e-12)
        assert switching_fourier(sw, omega) == pytest.approx(ref, abs=1e-10)


def test_switching_fourier_rejects_eternal():
    with pytest.raises(UnsupportedSwitching):
        switching_fourier(SwitchingSpec(kind=ETERNAL), 1.0)
