"""Negativity, concurrence, and their leakage rates.

Both routes read one evolved X-matrix rho: the numeric route puts it
through the 4x4 kernel (partial transpose + LAPACK eigensolver for
negativity, the spin-flip construction for concurrence), the closed forms
solve its 2x2 X-blocks by hand.  So the comparison checks the eigen-solves;
reports carry the worst closed-vs-numeric discrepancy so disagreement is a
loud diagnostic, not a silent drift.

Eternal-mode measures are distributional, so only initial values and
per-unit-time rates are reported there; Gaussian mode reports the finite
measures instead.

The measures, closed forms and analyze broadcast over a leading grid axis:
a stacked scenario and integral set (model.stack_points) go through the
(..., 4, 4) kernel in one pass, and analyze returns one report whose fields
are arrays over the points (model.unstack splits it).  A single scenario
is a batch of one and gets plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .density import (PERTURBATIVE_WARN, X_SLOTS, DensityMatrix4,
                      evolved_density, x_elements)
from .integrals import (IntegralSet, NotDistributional, QuadratureSettings,
                        eternal_integral_set, gaussian_integral_set)
from .model import ETERNAL, ValidatedScenario, stack_points, unstack


class BranchViolation(RuntimeError):
    pass


@dataclass(frozen=True, slots=True, kw_only=True)
class EntanglementReport:
    # after mode, the order of the JSON output's report keys
    mode: str
    initial_negativity: float
    initial_concurrence: float
    negativity_rate: float | None = None
    concurrence_rate: float | None = None
    negativity: float | None = None
    concurrence: float | None = None
    pt_eigenvalues_closed: tuple
    pt_eigenvalues_numeric: tuple
    wootters_closed: tuple
    wootters_numeric: tuple
    negative_pt_index: int
    shielded: bool
    agreement: float
    perturbative_indicator: float
    perturbative_ok: bool
    max_quad_error: float


def negativity_numeric(rho: DensityMatrix4):
    """PPT route: sum of |negative eigenvalues| of the partial transpose."""
    pt = linalg.partial_transpose_b(rho.matrix)
    lams = linalg.hermitian_eigenvalues(pt, tol=1e-8)
    neg = np.sum(np.where(lams < 0.0, np.abs(lams), 0.0), axis=-1)[()]
    return neg, lams


def concurrence_numeric(rho: DensityMatrix4):
    """Spin-flip route: max{0, l1' - l2' - l3' - l4'}."""
    lams = linalg.wootters_lambdas(rho.matrix, tol=1e-8)
    d = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    return np.where(d > 0.0, d, 0.0)[()], lams


def _two_by_two(tr_pair, cross):
    """Eigenvalue pair (s + t)/2 +- sqrt(((s-t)/2)^2 + cross)."""
    s, t = tr_pair
    half = 0.5 * (s + t)
    h = 0.5 * (s - t)
    disc = np.sqrt(h * h + cross)
    return half + disc, half - disc


def pt_eigenvalues_closed(rho: DensityMatrix4, same_sign):
    """Partial-transpose spectrum of the X-matrix rho from its 2x2 blocks.

    l_{1,2} = [(b1 + c2) +- sqrt((b1 - c2)^2 + 4 a2 d1)]/2 and the
    analogous (a1, d2, b2, c1) pair, read from rho's slots; shape (..., 4).
    same_sign (alpha gamma >= 0, per matrix) orders the outer pair as
    pt_eigenvalues_expanded does.  Returns the eigenvalues and the index of
    the negative one: 2 (minus branch) for same-sign amplitudes, else 1.
    """
    a1, a2, b1, b2, c1, c2, d1, d2 = (rho.matrix[..., i, j] for i, j in X_SLOTS)
    hi, lo = _two_by_two((b1, c2), a2 * d1)
    # label the outer pair so that l1 tracks the +(alpha gamma) bracket of
    # the expansion: for opposite-sign amplitudes the roles swap
    l1 = np.where(same_sign, hi, lo)
    l2 = np.where(same_sign, lo, hi)
    l3, l4 = _two_by_two((a1, d2), b2 * c1)
    exact = np.stack([l1.real, l2.real, l3.real, l4.real], axis=-1)
    return exact, np.where(same_sign, 2, 1)[()]


def wootters_closed_exact(rho: DensityMatrix4):
    """Exact lambda' quadruple of the X-matrix rho from its slots.

    l'_{1,2}^2 = [(|a2|^2 + |d1|^2 + 2 a1 d2) +- sqrt((|a2|^2 - |d1|^2)^2
    + 4 a1 d2 (|a2|^2 + |d1|^2 + 2 Re(a2 d1)))] / 2, same shape for the
    inner block with (b1, c2, b2, c1).  Descending order, shape (..., 4).
    """
    a1, a2, b1, b2, c1, c2, d1, d2 = (rho.matrix[..., i, j] for i, j in X_SLOTS)

    def block(p, q, u, v):
        # p, q diagonal (a1, d2), u, v anti-diagonal (a2, d1)
        su = np.square(np.hypot(u.real, u.imag))
        sv = np.square(np.hypot(v.real, v.imag))
        pq = (p * q).real
        tr = su + sv + 2.0 * pq
        disc = np.sqrt(np.maximum(np.square(su - sv)
                                  + 4.0 * pq * (su + sv + 2.0 * (u * v).real), 0.0))
        hi = np.maximum(0.5 * (tr + disc), 0.0)
        lo = np.maximum(0.5 * (tr - disc), 0.0)
        return np.sqrt(hi), np.sqrt(lo)

    lams = np.stack(block(a1, d2, a2, d1) + block(b1, c2, b2, c1), axis=-1)
    return np.sort(lams, axis=-1)[..., ::-1]


def pt_eigenvalues_expanded(state, pair, ints: IntegralSet):
    """The paper's second-order expansion of the outer partial-transpose pair.

    l_{1,2} = (b1 + c2)/2 +- [alpha gamma - Re(alpha^2 C_A C_B xi_AB
    + gamma^2 C_A C_B Y_AB + alpha gamma (C_A^2 Re M_A + C_B^2 Re M_B))],
    shape (..., 2), in the order of pt_eigenvalues_closed: the signed
    alpha gamma in the bracket makes the minus branch negative for
    same-sign amplitudes.  The inner pair has no displayed expansion
    (a1 - d2 is itself second order, so the cross term contributes at the
    same order).  The reference for the closed forms at small coupling;
    analyze does not compute it.
    """
    a, g = state.alpha, state.gamma
    _, _, b1, _, _, c2, _, _ = x_elements(state, pair, ints)
    ca2 = np.square(pair.coupling_a)
    cb2 = np.square(pair.coupling_b)
    cab = pair.coupling_a * pair.coupling_b
    e = {k: v.coeff for k, v in ints.entries().items()}
    half_sum = 0.5 * (b1 + c2).real
    bracket = a * g - (a * a * cab * e["xi_AB"]
                       + g * g * cab * e["Y_AB"]
                       + a * g * (ca2 * e["ReM_A"] + cb2 * e["ReM_B"])).real
    return np.stack([half_sum + bracket, half_sum - bracket], axis=-1)


def concurrence_closed(state, pair, ints: IntegralSet):
    """Second-order closed-form concurrence and lambda' list.

    Uses the branch |X_AB| <= sqrt(P_A'' P_B''); crossing it signals a bug
    in the integral evaluation and raises BranchViolation.
    """
    a, g = state.alpha, state.gamma
    ca2 = pair.coupling_a**2
    cb2 = pair.coupling_b**2
    cab = pair.coupling_a * pair.coupling_b
    e = {k: v.coeff for k, v in ints.entries().items()}
    pdd_a = float(e["P''_A"].real)
    pdd_b = float(e["P''_B"].real)
    m_a = float(e["ReM_A"].real)
    m_b = float(e["ReM_B"].real)
    x_abs = abs(e["X_AB"])
    geo = math.sqrt(max(pdd_a * pdd_b, 0.0))

    scale = max(geo, 1e-300)
    if x_abs > geo * (1.0 + 1e-9) + 1e-12 * scale:
        raise BranchViolation(
            f"|X_AB| = {x_abs:.6e} exceeds sqrt(P_A'' P_B'') = {geo:.6e}"
        )

    l1 = 2.0 * abs(g * a) * (1.0
                             - 0.5 * (ca2 * m_a + cb2 * m_b)
                             - 0.25 * (ca2 * pdd_a + cb2 * pdd_b))
    l2 = 0.0
    l3 = cab * g * g * (geo + x_abs)
    l4 = cab * g * g * (geo - x_abs)
    conc = max(0.0, l1 - l2 - l3 - l4)
    return conc, (l1, l2, l3, l4)


def leakage_rates(state, pair, ints: IntegralSet):
    """Per-unit-time degradation of negativity and concurrence.

    Only meaningful for distributional (eternal) integral sets; the
    stripped deficit coefficients are divided by 2 pi.  Generalized to
    unequal couplings through the unexpanded block eigenvalues, which
    reduces to the identical-coupling deficit when C_A = C_B.  Points at
    or below threshold (power 0, every entry zero) have zero rates.
    """
    power = ints.delta0_power
    nonzero = np.any([v.coeff != 0.0 for v in ints.entries().values()], axis=0)
    if np.any((power != 1) & nonzero):
        raise NotDistributional(
            "leakage rates need an eternal (delta0_power = 1) integral set"
        )
    a, g = state.alpha, state.gamma
    ca2 = np.square(pair.coupling_a)
    cb2 = np.square(pair.coupling_b)
    cab = pair.coupling_a * pair.coupling_b
    e = {k: v.coeff for k, v in ints.entries().items()}
    pdd_a = e["P''_A"].real
    pdd_b = e["P''_B"].real
    m_a = e["ReM_A"].real
    m_b = e["ReM_B"].real
    ag = abs(a * g)

    deficit_n = (ca2 * (ag * m_a + 0.5 * g * g * pdd_a)
                 + cb2 * (ag * m_b + 0.5 * g * g * pdd_b))
    deficit_c = (ag * (ca2 * (m_a + 0.5 * pdd_a) + cb2 * (m_b + 0.5 * pdd_b))
                 + 2.0 * cab * g * g * np.sqrt(np.maximum(pdd_a * pdd_b, 0.0)))
    return (np.where(power == 1, deficit_n / (2.0 * math.pi), 0.0)[()],
            np.where(power == 1, deficit_c / (2.0 * math.pi), 0.0)[()])


def analyze(scenario: ValidatedScenario,
            settings: QuadratureSettings | None = None,
            ints: IntegralSet | None = None) -> EntanglementReport:
    """Full pipeline: integrals, density, both measures.

    A single scenario runs as a batch of one and gives plain numbers; a
    stacked one (model.stack_points) needs its stacked integral set and
    gives arrays over the points.  Pass a precomputed integral set to skip
    the quadrature stage (the front end does this so the set can also be
    serialized)."""
    eternal = scenario.switching.kind == ETERNAL
    single = np.ndim(scenario.state.alpha) == 0
    if single:
        if ints is None:
            ints = (eternal_integral_set(scenario) if eternal
                    else gaussian_integral_set(scenario, settings))
        scenario, ints = stack_points([scenario]), stack_points([ints])
    state, pair = scenario.state, scenario.pair

    rho = evolved_density(state, pair, ints)
    neg_num, pt_num = negativity_numeric(rho)
    conc_num, w_num = concurrence_numeric(rho)

    ag = state.alpha * state.gamma
    pt_closed, negative_index = pt_eigenvalues_closed(rho, ag >= 0)
    w_closed = wootters_closed_exact(rho)

    agreement = np.maximum(
        np.max(np.abs(np.sort(pt_closed, axis=-1) - pt_num), axis=-1),
        np.max(np.abs(w_closed - w_num), axis=-1),
    )

    report = dict(
        mode=scenario.switching.kind,
        initial_negativity=abs(ag),
        initial_concurrence=2.0 * abs(ag),
        pt_eigenvalues_closed=pt_closed,
        pt_eigenvalues_numeric=pt_num,
        wootters_closed=w_closed,
        wootters_numeric=w_num,
        negative_pt_index=negative_index,
        shielded=(pair.coupling_b == 0.0),
        agreement=agreement,
        max_quad_error=ints.max_err,
        perturbative_indicator=rho.perturbative_indicator,
        perturbative_ok=rho.perturbative_indicator <= PERTURBATIVE_WARN,
    )
    if eternal:
        dn, dc = leakage_rates(state, pair, ints)
        report.update(negativity_rate=dn, concurrence_rate=dc)
    else:
        report.update(negativity=neg_num, concurrence=conc_num)
    report = EntanglementReport(**report)
    return next(unstack(report)) if single else report
