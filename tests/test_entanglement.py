import math

import numpy as np
import pytest

from udleak import density, entanglement, linalg
from udleak.density import evolved_density, initial_density
from udleak.entanglement import (BranchViolation, analyze, concurrence_closed,
                                 concurrence_numeric, leakage_rates,
                                 negativity_numeric, pt_eigenvalues_closed,
                                 pt_eigenvalues_expanded,
                                 wootters_closed_exact)
from udleak.integrals import (NotDistributional, eternal_integral_set,
                              gaussian_integral_set)
from udleak.model import (ETERNAL, GAUSSIAN, DetectorPairConfig, FieldSpec,
                          InitialState, SwitchingSpec, bell_state,
                          stack_points, validate_config)


def _scenario(de=1.0, mass=0.0, d=0.5, kind=ETERNAL, sigma=None, ca=0.1,
              cb=0.1, state=None):
    return validate_config(
        DetectorPairConfig(delta_e=de, coupling_a=ca, coupling_b=cb, distance=d),
        FieldSpec(mass=mass), state or bell_state(),
        SwitchingSpec(kind=kind, sigma=sigma))


def test_bell_initial_negativity():
    neg, lams = negativity_numeric(initial_density(bell_state()))
    assert neg == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(sorted(lams), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_bell_initial_concurrence():
    conc, _ = concurrence_numeric(initial_density(bell_state()))
    assert conc == pytest.approx(1.0, abs=1e-7)


def test_separable_state_has_no_entanglement():
    rho = initial_density(InitialState(alpha=1.0, gamma=0.0))
    assert negativity_numeric(rho)[0] == 0.0
    assert concurrence_numeric(rho)[0] == 0.0


def test_pt_closed_matches_numeric_small_coupling():
    for de, mass, d in ((1.0, 0.0, 0.5), (2.0, 1.0, 1.0), (1.5, 0.5, 0.0)):
        sc = _scenario(de=de, mass=mass, d=d, ca=0.01, cb=0.01)
        ints = eternal_integral_set(sc)
        rho = evolved_density(sc.state, sc.pair, ints)
        _, numeric = negativity_numeric(rho)
        closed, _ = pt_eigenvalues_closed(rho, sc.state.alpha * sc.state.gamma >= 0)
        assert np.max(np.abs(np.sort(np.array(closed))
                             - np.array(numeric))) < 1e-12
        # the expansion of the outer pair only drops O(C^4) pieces
        expanded = pt_eigenvalues_expanded(sc.state, sc.pair, ints)
        assert np.max(np.abs(expanded - closed[:2])) < 1e-7


def test_negative_eigenvalue_sign_rule():
    # same-sign amplitudes: minus branch (index 2); opposite sign: index 1
    for sign, index in ((+1, 2), (-1, 1)):
        sc = _scenario(state=bell_state(sign))
        ints = eternal_integral_set(sc)
        rho = evolved_density(sc.state, sc.pair, ints)
        closed, negative_index = pt_eigenvalues_closed(
            rho, sc.state.alpha * sc.state.gamma >= 0)
        assert negative_index == index
        assert closed[index - 1] < 0.0


def test_gamma_sign_flip_leaves_measures_invariant():
    outs = []
    for sign in (+1, -1):
        sc = _scenario(state=bell_state(sign))
        ints = eternal_integral_set(sc)
        rho = evolved_density(sc.state, sc.pair, ints)
        outs.append((negativity_numeric(rho)[0], concurrence_numeric(rho)[0]))
    assert outs[0][0] == pytest.approx(outs[1][0], abs=1e-14)
    assert outs[0][1] == pytest.approx(outs[1][1], abs=1e-10)


def test_wootters_closed_exact_matches_numeric():
    sc = _scenario(ca=0.01, cb=0.01, d=0.7)
    ints = eternal_integral_set(sc)
    rho = evolved_density(sc.state, sc.pair, ints)
    _, numeric = concurrence_numeric(rho)
    closed = wootters_closed_exact(rho)
    assert np.max(np.abs(np.array(closed) - np.array(numeric))) < 1e-8


def test_concurrence_closed_second_order_structure():
    sc = _scenario(de=1.0, mass=0.0, d=0.5)
    ints = eternal_integral_set(sc)
    conc, lams = concurrence_closed(sc.state, sc.pair, ints)
    # lambda'_2 = 0, lambda'_3,4 = C^2 gamma^2 (P'' +- |X|)
    assert lams[1] == 0.0
    x = abs(ints.entries()["X_AB"].coeff)
    assert lams[2] == pytest.approx(0.01 * 0.5 * (0.5 + x), abs=1e-15)
    assert lams[3] == pytest.approx(0.01 * 0.5 * (0.5 - x), abs=1e-15)
    assert conc < 1.0


def test_concurrence_deficit_coefficient_at_bell():
    # 1 - C = 0.01 in stripped units at C = 0.1, dE = 1, m = 0
    sc = _scenario(de=1.0, mass=0.0, d=0.0)
    ints = eternal_integral_set(sc)
    conc, _ = concurrence_closed(sc.state, sc.pair, ints)
    assert 1.0 - conc == pytest.approx(0.01, abs=1e-12)


def test_branch_violation_raised():
    import dataclasses

    sc = _scenario()
    ints = eternal_integral_set(sc)
    bad = dataclasses.replace(ints, x_ab=dataclasses.replace(
        ints.x_ab, coeff=10.0 + 0.0j))
    with pytest.raises(BranchViolation):
        concurrence_closed(sc.state, sc.pair, bad)


def test_leakage_rates_bell_point():
    sc = _scenario(de=1.0, mass=0.0, d=0.0)
    dn, dc = leakage_rates(sc.state, sc.pair, eternal_integral_set(sc))
    assert dn == pytest.approx(0.005 / (2 * math.pi), abs=1e-16)
    assert dc == pytest.approx(0.01 / (2 * math.pi), abs=1e-16)


def test_leakage_rates_distance_independent():
    rates = set()
    for d in (0.0, 0.5, 2.0):
        sc = _scenario(d=d)
        rates.add(leakage_rates(sc.state, sc.pair, eternal_integral_set(sc))[0])
    assert len(rates) == 1


def test_leakage_rates_zero_at_threshold():
    sc = _scenario(de=1.0, mass=1.0)
    dn, dc = leakage_rates(sc.state, sc.pair, eternal_integral_set(sc))
    assert dn == 0.0 and dc == 0.0


def test_leakage_rates_reject_gaussian():
    sc = _scenario(kind=GAUSSIAN, sigma=1.0)
    with pytest.raises(NotDistributional):
        leakage_rates(sc.state, sc.pair, gaussian_integral_set(sc))


def test_shielded_negativity_rate_halves():
    both = _scenario(cb=0.1)
    shielded = _scenario(cb=0.0)
    dn_both, _ = leakage_rates(both.state, both.pair,
                               eternal_integral_set(both))
    dn_half, _ = leakage_rates(shielded.state, shielded.pair,
                               eternal_integral_set(shielded))
    assert dn_half / dn_both == pytest.approx(0.5, abs=1e-12)


def test_shielded_concurrence_lambda_structure():
    # with C_B = 0 the lambda'_3,4 pair vanishes and the lambda'_1 deficit
    # halves relative to the symmetric case
    both = _scenario(cb=0.1, d=0.0)
    shielded = _scenario(cb=0.0, d=0.0)
    _, lb = concurrence_closed(both.state, both.pair,
                               eternal_integral_set(both))
    _, ls = concurrence_closed(shielded.state, shielded.pair,
                               eternal_integral_set(shielded))
    assert ls[2] == 0.0 and ls[3] == 0.0
    deficit_both = 2.0 * 0.5 - lb[0]
    deficit_shielded = 2.0 * 0.5 - ls[0]
    assert deficit_shielded / deficit_both == pytest.approx(0.5, abs=1e-12)


def test_analyze_eternal_report():
    rep = analyze(_scenario(de=1.0, mass=0.0, d=0.5))
    assert rep.mode == ETERNAL
    assert rep.negativity is None and rep.concurrence is None
    assert rep.negativity_rate == pytest.approx(0.005 / (2 * math.pi))
    assert rep.concurrence_rate == pytest.approx(0.01 / (2 * math.pi))
    assert rep.initial_negativity == pytest.approx(0.5)
    assert rep.initial_concurrence == pytest.approx(1.0)
    assert not rep.shielded
    assert rep.perturbative_ok


def test_analyze_gaussian_report():
    # massive: a massless point's entries are closed, with no quadrature error
    rep = analyze(_scenario(kind=GAUSSIAN, sigma=2.0, mass=0.4, d=0.5))
    assert rep.mode == GAUSSIAN
    assert rep.negativity_rate is None and rep.concurrence_rate is None
    assert 0.0 < rep.negativity < rep.initial_negativity
    assert 0.0 < rep.concurrence < rep.initial_concurrence
    assert rep.max_quad_error > 0.0


def test_analyze_flags_shielded():
    rep = analyze(_scenario(cb=0.0))
    assert rep.shielded


def test_stacked_eternal_analyze_makes_two_eigh_calls_and_one_svd(monkeypatch):
    # rho is diagonalized once, for its square root, and its partial
    # transpose once; the spin-flip singular values take one svd
    scenarios = [_scenario(de=1.0, mass=m, d=d, state=InitialState(alpha=a, gamma=g))
                 for m in (0.0, 0.4) for d in (0.5, 2.0) for a, g in ((0.6, 0.8), (1.0, 0.0))]
    grid = stack_points(scenarios)
    ints = stack_points([eternal_integral_set(sc) for sc in scenarios])
    calls = []
    for name in ("eigh", "svd", "eigvals", "eigvalsh", "eig"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    report = analyze(grid, ints=ints)
    assert sorted(calls) == ["eigh", "eigh", "svd"]
    assert report.agreement.shape == (len(scenarios),)


def test_stacked_analyze_builds_rho_once(monkeypatch):
    # the X entries are assembled once, into rho, which every measure reads;
    # the Hermiticity residual is taken once for rho and once for its
    # partial transpose, by the gates of their eigen-solves
    scenarios = [_scenario(de=1.0, mass=m, d=d) for m in (0.0, 0.4) for d in (0.5, 2.0)]
    grid = stack_points(scenarios)
    ints = stack_points([eternal_integral_set(sc) for sc in scenarios])
    calls = []
    for module, name in ((density, "x_elements"), (entanglement, "x_elements"),
                         (linalg, "hermiticity_residual")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    analyze(grid, ints=ints)
    assert sorted(calls) == ["hermiticity_residual"] * 2 + ["x_elements"]
