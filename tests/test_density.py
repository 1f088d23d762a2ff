import math

import numpy as np
import pytest

from udleak import linalg
from udleak.density import (PERTURBATIVE_WARN, DensityMatrix4,
                            check_x_structure, evolved_density,
                            initial_density, x_elements)
from udleak.integrals import eternal_integral_set, gaussian_integral_set
from udleak.model import (ETERNAL, GAUSSIAN, DetectorPairConfig, FieldSpec,
                          InitialState, SwitchingSpec, bell_state,
                          validate_config)


def _scenario(de=1.0, mass=0.0, d=0.5, kind=ETERNAL, sigma=None, ca=0.1,
              cb=0.1, state=None):
    return validate_config(
        DetectorPairConfig(delta_e=de, coupling_a=ca, coupling_b=cb, distance=d),
        FieldSpec(mass=mass), state or bell_state(),
        SwitchingSpec(kind=kind, sigma=sigma))


def _trace_residual(rho):
    tr = linalg.trace(rho.matrix)
    return abs(tr.real - 1.0) + abs(tr.imag)


def test_initial_density_bell():
    rho = initial_density(bell_state())
    m = rho.matrix
    assert m[0, 0] == pytest.approx(0.5)
    assert m[3, 3] == pytest.approx(0.5)
    assert m[0, 3] == pytest.approx(0.5)
    assert _trace_residual(rho) < 1e-15
    assert linalg.hermitian_eigenvalues(rho.matrix)[0] == pytest.approx(0.0, abs=1e-14)
    assert rho.perturbative_indicator == 0.0


def test_initial_density_pure_ground_pair():
    rho = initial_density(InitialState(alpha=1.0, gamma=0.0))
    diag = np.diag(rho.matrix).real
    assert np.count_nonzero(diag) == 1
    assert diag.sum() == pytest.approx(1.0)


def test_zero_coupling_reduces_to_initial():
    sc = _scenario(ca=0.0, cb=0.0)
    ints = eternal_integral_set(sc)
    rho = evolved_density(sc.state, sc.pair, ints)
    assert np.allclose(rho.matrix, initial_density(sc.state).matrix, atol=1e-16)
    assert rho.perturbative_indicator == 0.0


def test_eternal_bell_inner_diagonals():
    # b1 = gamma^2 C_B^2 P'' and c2 = gamma^2 C_A^2 P'' (stripped)
    sc = _scenario(de=1.0, mass=0.0)
    ints = eternal_integral_set(sc)
    rho = evolved_density(sc.state, sc.pair, ints)
    assert ints.delta0_power == 1
    assert rho.matrix[1, 1].real == pytest.approx(0.0025, abs=1e-15)
    assert rho.matrix[2, 2].real == pytest.approx(0.0025, abs=1e-15)


def test_eternal_trace_exactly_preserved():
    for de, mass in ((1.0, 0.0), (2.0, 1.0), (1.0, 0.99)):
        sc = _scenario(de=de, mass=mass)
        rho = evolved_density(sc.state, sc.pair, eternal_integral_set(sc))
        assert _trace_residual(rho) < 1e-14


def test_x_structure_everywhere():
    for kind, sigma in ((ETERNAL, None), (GAUSSIAN, 1.0)):
        sc = _scenario(kind=kind, sigma=sigma)
        ints = (eternal_integral_set(sc) if kind == ETERNAL
                else gaussian_integral_set(sc))
        rho = evolved_density(sc.state, sc.pair, ints)
        assert check_x_structure(rho) == 0.0
        assert linalg.hermiticity_residual(rho.matrix) < 1e-14


def test_gaussian_trace_to_quadrature_error():
    sc = _scenario(kind=GAUSSIAN, sigma=2.0, mass=0.5, d=0.7)
    rho = evolved_density(sc.state, sc.pair, gaussian_integral_set(sc))
    assert _trace_residual(rho) < 1e-9


def test_asymmetric_couplings_break_inner_symmetry():
    sc = _scenario(ca=0.1, cb=0.05)
    rho = evolved_density(sc.state, sc.pair, eternal_integral_set(sc))
    b1 = rho.matrix[1, 1].real
    c2 = rho.matrix[2, 2].real
    assert b1 == pytest.approx(0.5 * 0.0025 * 0.5, abs=1e-15)  # g^2 C_B^2 P''
    assert c2 == pytest.approx(0.5 * 0.01 * 0.5, abs=1e-15)    # g^2 C_A^2 P''
    assert b1 != c2


def test_shielded_detector_kills_cross_entries():
    sc = _scenario(cb=0.0)
    rho = evolved_density(sc.state, sc.pair, eternal_integral_set(sc))
    # inner anti-diagonal carries only C_A C_B terms in eternal mode
    assert rho.matrix[1, 2] == 0.0
    assert rho.matrix[2, 1] == 0.0


def test_perturbative_indicator_scales_with_coupling():
    weak = _scenario(ca=0.01, cb=0.01)
    strong = _scenario(ca=0.5, cb=0.5)
    ind_w = evolved_density(weak.state, weak.pair,
                            eternal_integral_set(weak)).perturbative_indicator
    ind_s = evolved_density(strong.state, strong.pair,
                            eternal_integral_set(strong)).perturbative_indicator
    assert ind_w <= PERTURBATIVE_WARN
    assert ind_s > ind_w
    assert ind_s == pytest.approx(ind_w * 2500.0, rel=1e-9)


def test_elements_match_matrix_slots():
    sc = _scenario(kind=GAUSSIAN, sigma=1.5, mass=0.3, d=0.4)
    ints = gaussian_integral_set(sc)
    a1, a2, b1, b2, c1, c2, d1, d2 = x_elements(sc.state, sc.pair, ints)
    m = evolved_density(sc.state, sc.pair, ints).matrix
    assert m[0, 0] == a1 and m[0, 3] == a2
    assert m[1, 1] == b1 and m[1, 2] == b2
    assert m[2, 1] == c1 and m[2, 2] == c2
    assert m[3, 0] == d1 and m[3, 3] == d2
    # Hermitian pairing of the anti-diagonal entries
    assert abs(d1 - np.conj(a2)) < 1e-16
    assert abs(c1 - np.conj(b2)) < 1e-16


def test_gamma_sign_flip_flips_corners_only():
    plus = _scenario(state=bell_state(+1))
    minus = _scenario(state=bell_state(-1))
    ints = eternal_integral_set(plus)
    mp = evolved_density(plus.state, plus.pair, ints).matrix
    mm = evolved_density(minus.state, minus.pair, ints).matrix
    assert np.allclose(np.diag(mp), np.diag(mm))
    assert mp[0, 3] == pytest.approx(-mm[0, 3])
