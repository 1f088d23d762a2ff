import numpy as np
import pytest

from udleak import linalg


def _random_hermitian(rng, scale=1.0):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return scale * 0.5 * (m + m.conj().T)


def _charpoly_roots(m):
    # independent quartic-solver route: roots of det(m - x I)
    coeffs = np.poly(np.asarray(m))
    roots = np.roots(coeffs)
    scale = max(np.max(np.abs(roots)), 1.0)
    assert np.max(np.abs(roots.imag)) < 1e-8 * scale
    return np.sort(roots.real)


def test_eigensystem_identity():
    vals, vecs = linalg.hermitian_eigensystem(np.eye(4))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.conj().T, np.eye(4))


def test_eigensystem_x_block_case():
    # a1 = d2 = 0.5, a2 = d1 = 0.5 -> spectrum (0, 0, 0, 1)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = 0.5
    vals = linalg.hermitian_eigenvalues(m)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_eigensystem_matches_characteristic_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = _random_hermitian(rng)
        vals, vecs = linalg.hermitian_eigensystem(m)
        assert np.max(np.abs(vals - _charpoly_roots(m))) < 1e-10
        # residual and orthonormality
        assert np.max(np.abs(m @ vecs - vecs * vals)) < 1e-12
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-12


def test_eigensystem_hard_scales():
    rng = np.random.default_rng(11)
    for scale in (1e-8, 1.0, 1e8):
        m = _random_hermitian(rng, scale)
        vals = linalg.hermitian_eigenvalues(m)
        assert np.max(np.abs(vals - _charpoly_roots(m))) < 1e-10 * scale


def test_non_hermitian_rejected():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(linalg.NotHermitian):
        linalg.hermitian_eigenvalues(m, tol=1e-10)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(3)
    m = _random_hermitian(rng)
    pt = linalg.partial_transpose_b(m)
    assert np.allclose(linalg.partial_transpose_b(pt), m)
    assert np.trace(pt) == pytest.approx(np.trace(m).real)
    assert linalg.hermiticity_residual(pt) < 1e-14


def test_partial_transpose_swaps_inner_and_corner():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 3] = 2.0
    m[1, 2] = 3.0
    pt = linalg.partial_transpose_b(m)
    assert pt[1, 2] == 2.0
    assert pt[0, 3] == 3.0


def test_spin_flip_of_maximally_mixed():
    prod = linalg.wootters_product(np.eye(4) / 4.0)
    assert np.allclose(prod, np.eye(4) / 16.0)


def test_wootters_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    lams = linalg.wootters_lambdas(bell)
    assert np.allclose(lams, [1.0, 0.0, 0.0, 0.0], atol=1e-7)


def test_wootters_product_diagonal_state():
    # diagonal rho: rho rho~ is diagonal with pairwise products
    diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    lams = linalg.wootters_lambdas(diag)
    expect = np.sort(np.sqrt([0.4 * 0.1, 0.3 * 0.2, 0.2 * 0.3, 0.1 * 0.4]))[::-1]
    assert np.allclose(lams, expect, atol=1e-8)


def test_wootters_matches_product_eigenvalues():
    # lambda'^2 must match eigenvalues of the non-Hermitian product rho rho~
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = np.outer(v, v.conj())
        rho = 0.7 * rho / np.trace(rho).real + 0.3 * np.eye(4) / 4.0
        rho = 0.5 * (rho + rho.conj().T)
        lams = linalg.wootters_lambdas(rho)
        prod_eigs = np.sort(np.linalg.eigvals(linalg.wootters_product(rho)).real)[::-1]
        assert np.max(np.abs(lams**2 - np.maximum(prod_eigs, 0.0))) < 1e-8


def test_wootters_phase_invariance():
    base = np.zeros((4, 4), dtype=complex)
    base[0, 0] = base[3, 3] = 0.45
    base[1, 1] = base[2, 2] = 0.05
    for phi in (0.0, 0.7, 2.4):
        m = base.copy()
        m[0, 3] = 0.4 * np.exp(1j * phi)
        m[3, 0] = np.conj(m[0, 3])
        lams = linalg.wootters_lambdas(m)
        ref = linalg.wootters_lambdas(base + np.diag([0, 0, 0, 0])
                                      + np.array([[0, 0, 0, 0.4],
                                                  [0, 0, 0, 0],
                                                  [0, 0, 0, 0],
                                                  [0.4, 0, 0, 0]]))
        assert np.max(np.abs(lams - ref)) < 1e-10


def test_wootters_rejects_unnormalized():
    with pytest.raises(linalg.NotNormalized):
        linalg.wootters_lambdas(np.eye(4, dtype=complex) * 0.5)


def test_failed_check_reports_the_worst_matrix():
    stack = np.stack([np.eye(4, dtype=complex) * 0.25] * 3)
    stack[1, 0, 0] += 2e-8
    stack[2, 0, 0] += 1e-6
    with pytest.raises(linalg.NotNormalized, match=r"is 1\.000e-06 away from 1"):
        linalg.wootters_lambdas(stack)
    # the worst breach is the second matrix's, measured against its own tol
    stack[0, 0, 1] = 1e-5
    stack[1, 0, 1] = 1e-3
    with pytest.raises(linalg.NotHermitian,
                       match=r"= 1\.000e-03 exceeds tol 1\.000e-10$"):
        linalg.hermitian_eigenvalues(stack, tol=np.array([1e-10, 1e-10, 1.0]))


def test_nan_matrix_fails_hermiticity_first():
    # a NaN entry gives a NaN residual, which no tolerance admits, and it is
    # reported ahead of a finite breach elsewhere in the stack
    stack = np.stack([np.eye(4, dtype=complex) * 0.25] * 3)
    stack[1, 0, 3] = np.nan
    stack[2, 0, 1] = 1e-3
    with pytest.raises(linalg.NotHermitian, match=r"= nan exceeds tol 1\.000e-10$"):
        linalg.hermitian_eigenvalues(stack)


def test_wootters_clamps_truncation_negatives():
    # tiny negative diagonal from a second-order truncation must not NaN
    m = np.diag([0.6, -1e-13, 0.0, 0.4]).astype(complex)
    m[0, 3] = m[3, 0] = 0.1
    lams = linalg.wootters_lambdas(m)
    assert np.all(np.isfinite(lams))
    assert np.all(lams >= 0.0)
