"""Two-qubit density matrices at second order in the couplings.

Basis ordering is (gg, ge, eg, ee).  The evolved matrix keeps the X shape:
nonzero entries only on the diagonal and anti-diagonal, labelled

        [ a1  0   0   a2 ]
        [ 0   b1  b2  0  ]
        [ 0   c1  c2  0  ]
        [ d1  0   0   d2 ]

with slot a1 carrying the doubly-excited weight gamma^2 after evolution
(the slot identification that makes the initial-matrix corners and the
evolved-element labels consistent at once).  The element formulas are
assembled here once; the closed-form measures read the entries back from
the matrix's slots (X_SLOTS).

In eternal mode the corrections are all proportional to delta(0); the
matrix then holds the *stripped* coefficients (delta(0) -> 1), as the
integral set's delta0_power records.  Downstream rate extraction and
closed-vs-numeric comparisons operate on exactly this stripped matrix.

A matrix carries its perturbative indicator, max |rho - rho_0|; its
Hermiticity and trace are gated by linalg's checks in the eigen-solves.

Every function broadcasts over a leading grid axis: given a stacked state,
pair and integral set (model.stack_points) the elements are arrays, the
matrix a (..., 4, 4) stack, and the indicator holds one value per matrix.
A single scenario is the 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .integrals import IntegralSet
from .model import DetectorPairConfig, InitialState

# matrix slots of a1, a2, b1, b2, c1, c2, d1, d2
X_SLOTS = ((0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3))
X_MASK = np.zeros((4, 4), dtype=bool)
X_MASK[tuple(zip(*X_SLOTS))] = True

PERTURBATIVE_WARN = 0.1
PERTURBATIVE_FAIL = 1.0


@dataclass(frozen=True)
class DensityMatrix4:
    matrix: np.ndarray
    perturbative_indicator: float   # max |m - rho_0|, per matrix


def _projector(state: InitialState):
    """alpha|gg> + gamma|ee> as 4x4 projectors.

    Corners alpha^2, alpha gamma, gamma alpha, gamma^2 with the ee weight
    gamma^2 in the a1 slot (top-left by the ordering note above).
    """
    a, g = state.alpha, state.gamma
    m = np.zeros(np.shape(a) + (4, 4), dtype=complex)
    m[..., 0, 0] = g * g
    m[..., 0, 3] = g * a
    m[..., 3, 0] = a * g
    m[..., 3, 3] = a * a
    return m


def initial_density(state: InitialState) -> DensityMatrix4:
    """Rank-one projector of the entangled start state."""
    m = _projector(state)
    return DensityMatrix4(m, 0.0)


def x_elements(state: InitialState, pair: DetectorPairConfig, ints: IntegralSet):
    """The eight X-entries a1..d2 from the second-order element formulas.

    Amplitudes are real by construction; the vacuum-fluctuation entries
    contribute only their real part (the principal-value imaginary part is
    out of scope and never reaches the entanglement measures).
    """
    a, g = state.alpha, state.gamma
    ca2 = np.square(pair.coupling_a)
    cb2 = np.square(pair.coupling_b)
    cab = pair.coupling_a * pair.coupling_b

    e = {k: v.coeff for k, v in ints.entries().items()}
    m_a = e["ReM_A"]
    m_b = e["ReM_B"]
    zeta = e["xi_AB"]
    y = e["Y_AB"]

    a1 = (g * g
          - g * g * (ca2 * e["P''_A"] + cb2 * e["P''_B"])
          - a * g * cab * (np.conj(zeta) + zeta))
    a2 = (g * a
          - a * a * cab * zeta
          - g * g * cab * np.conj(y)
          - a * g * (ca2 * m_a + cb2 * m_b))
    b1 = (a * a * ca2 * e["P_A"]
          + g * g * cb2 * e["P''_B"]
          + a * g * cab * (e["P'_AB"] + np.conj(e["P'_AB"])))
    b2 = (a * g * ca2 * e["Pbar'_A"]
          + a * a * cab * np.conj(e["P*_AB"])
          + g * g * cab * np.conj(e["X_AB"])
          + g * a * cb2 * e["Pbar_B"])
    c1 = (a * g * ca2 * e["Pbar_A"]
          + a * g * cb2 * e["Pbar'_B"]
          + g * g * cab * e["X_AB"]
          + a * a * cab * e["P*_AB"])
    c2 = (g * g * ca2 * e["P''_A"]
          + a * a * cb2 * e["P_B"]
          + g * a * cab * (e["Pbar'_AB"] + np.conj(e["Pbar'_AB"])))
    d1 = (a * g
          - a * g * (ca2 * np.conj(m_a) + cb2 * np.conj(m_b))
          - g * g * cab * y
          - a * a * cab * np.conj(zeta))
    d2 = (a * a
          - a * a * (ca2 * e["P_A"] + cb2 * e["P_B"])
          - a * g * cab * (y + np.conj(y)))
    return a1, a2, b1, b2, c1, c2, d1, d2


def evolved_density(state: InitialState, pair: DetectorPairConfig,
                    ints: IntegralSet) -> DensityMatrix4:
    """Assemble the later-time X-matrix from an integral set.

    The delta0_power of the integral set decides the mode, point by point:
    a power-1 set yields the stripped eternal matrix, a power-0 set the
    finite Gaussian-mode matrix.
    """
    elements = x_elements(state, pair, ints)
    m = np.zeros(np.broadcast(*elements).shape + (4, 4), dtype=complex)
    for (i, j), value in zip(X_SLOTS, elements):
        m[..., i, j] = value

    indicator = np.max(np.abs(m - _projector(state)), axis=(-2, -1))
    return DensityMatrix4(m, indicator)


def check_x_structure(rho):
    """Largest entry outside the diagonal/anti-diagonal X pattern, per matrix."""
    m = linalg.as_matrix4(rho.matrix if isinstance(rho, DensityMatrix4) else rho)
    return np.max(np.abs(m[..., ~X_MASK]), axis=-1)
