"""Vacuum two-point kernels for static trajectories.

The mode-sum definition of the positive-frequency correlator,

    G(dt, r) = 1/(16 pi^3) \\int d^3p / E_p  exp(i p.r - i E_p dt),

is evaluated here in closed position-space form (massless rational form,
massive modified-Bessel form) with the regulator attached to the time
argument, dt -> dt - i eps.  A direct numerical mode-sum evaluator is kept
alongside as the cross-check route, and the Fourier transform of the
Gaussian switching window lives here too since the correlation integrals
factorize through it mode by mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GAUSSIAN, SwitchingSpec


class RegulatorTooSmall(ValueError):
    pass


class UnsupportedSwitching(ValueError):
    pass


EPSILON_FLOOR = 1e-8


def bessel_k1(z):
    """Modified Bessel K_1 for complex argument with Re z >= 0.

    scipy.special.kv (AMOS), accurate to about 1e-15 relative against
    mpmath; the pole at z = 0 is rejected rather than returned as inf.
    """
    from scipy.special import kv
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("K_1 diverges at z = 0")
    return kv(1, z)


@dataclass(frozen=True)
class PositionKernel:
    """Closed-form position-space correlator with an i-eps regulator."""

    mass: float = 0.0
    c: float = 1.0
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.epsilon < EPSILON_FLOOR:
            raise RegulatorTooSmall(
                f"epsilon = {self.epsilon} below floor {EPSILON_FLOOR}"
            )


def wightman_position(kernel, dt, r):
    """Closed-form G(dt, r) for the kernel's mass and regulator.

    Uses the invariant w = sqrt((r/c)^2 - (dt - i eps)^2) with the
    principal branch; eps > 0 selects positive frequencies.  Massless:
    1/(4 pi^2 w^2) / c^3.  Massive: mu K_1(mu w) / (4 pi^2 w) / c^3 with
    mu = m c^2, which reduces to the massless form as mu -> 0.
    """
    if r < 0:
        raise ValueError(f"separation r must be >= 0, got {r}")
    if kernel.epsilon < EPSILON_FLOOR:
        raise RegulatorTooSmall(
            f"epsilon = {kernel.epsilon} below floor {EPSILON_FLOOR}"
        )
    c = kernel.c
    x = r / c
    w2 = x * x - (dt - 1j * kernel.epsilon) ** 2
    mu = kernel.mass * c**2
    if mu == 0.0:
        return 1.0 / (4.0 * np.pi**2 * w2) / c**3
    w = np.sqrt(w2)
    return mu * bessel_k1(mu * w) / (4.0 * np.pi**2 * w) / c**3


def wightman_mode_sum(kernel, dt, r, p_max=None, tol=1e-10):
    """Direct radial quadrature of the mode integral (oracle route).

    G = 1/(4 pi^2 c^3) \\int_0^inf dk k^2/E sinc(k r / c) e^{-i E (dt - i eps)}
    with k the energy-like variable k = p c.  The e^{-eps E} factor makes
    the tail integrable; p_max defaults to a multiple of 1/eps.
    """
    from scipy.integrate import quad
    eps = kernel.epsilon
    if eps < EPSILON_FLOOR:
        raise RegulatorTooSmall(f"epsilon = {eps} below floor {EPSILON_FLOOR}")
    c = kernel.c
    mu = kernel.mass * c**2
    x = r / c
    if p_max is None:
        p_max = 40.0 / eps

    def integrand(k, part):
        e = math.sqrt(k * k + mu * mu)
        if x > 0:
            ang = math.sin(k * x) / (k * x) if k > 0 else 1.0
        else:
            ang = 1.0
        val = (k * k / e) * ang * math.exp(-eps * e) * complex(
            math.cos(e * dt), -math.sin(e * dt)
        )
        return val.real if part == 0 else val.imag

    limit = 4000
    re, _ = quad(integrand, 0.0, p_max, args=(0,), epsabs=tol, epsrel=tol, limit=limit)
    im, _ = quad(integrand, 0.0, p_max, args=(1,), epsabs=tol, epsrel=tol, limit=limit)
    return (re + 1j * im) / (4.0 * np.pi**2 * c**3)


def switching_fourier(switching: SwitchingSpec, omega):
    """\\int chi(t) e^{i omega t} dt for the Gaussian window.

    chi(t) = exp(-t^2 / 2 sigma^2) gives sigma sqrt(2 pi) exp(-sigma^2
    omega^2 / 2): real, positive, even.  The eternal window has no finite
    transform; callers must branch before getting here.
    """
    if switching.kind != GAUSSIAN:
        raise UnsupportedSwitching(
            f"switching kind {switching.kind!r} has no finite Fourier transform"
        )
    s = switching.sigma
    return s * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (s * omega) ** 2)
