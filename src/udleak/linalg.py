"""4x4 complex matrix kernel.

Everything downstream works on 4x4 numpy arrays (row-major, complex).
Eigen-decompositions go through LAPACK (numpy.linalg.eigh), which shares no
code with the 2x2-block closed forms it is checked against; the same
eigenvectors give the matrix square roots needed in the spin-flip
(concurrence) construction.
"""

from __future__ import annotations

import numpy as np


class NotHermitian(ValueError):
    pass


class NotNormalized(ValueError):
    pass


# sigma_y (x) sigma_y as an anti-diagonal sign pattern
SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def as_matrix4(m):
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    return a


def hermiticity_residual(m):
    m = as_matrix4(m)
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eigensystem(m, tol=1e-10):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian 4x4 matrix.

    Rejects matrices whose anti-Hermitian part exceeds tol, symmetrizes
    away the allowed residual and diagonalizes with LAPACK.  Columns of the
    returned matrix are the eigenvectors.
    """
    m = as_matrix4(m)
    res = hermiticity_residual(m)
    if res > tol:
        raise NotHermitian(f"max |m - m^dagger| = {res:.3e} exceeds tol {tol:.3e}")
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def hermitian_eigenvalues(m, tol=1e-10):
    """Four real eigenvalues of a Hermitian 4x4 matrix, ascending."""
    vals, _ = hermitian_eigensystem(m, tol=tol)
    return vals


def partial_transpose_b(rho):
    """Transpose the second qubit: ((i,j),(k,l)) -> ((i,l),(k,j)).

    On an X-matrix this swaps the inner off-diagonal pair with the corner
    pair, is trace- and Hermiticity-preserving, and is an involution.
    """
    r = as_matrix4(rho).reshape(2, 2, 2, 2)
    return np.ascontiguousarray(r.transpose(0, 3, 2, 1).reshape(4, 4))


def spin_flip(rho):
    """rho_tilde = (sy x sy) rho* (sy x sy)."""
    rho = as_matrix4(rho)
    return SPIN_FLIP @ rho.conj() @ SPIN_FLIP


def wootters_product(rho):
    """rho . (sy x sy) . rho* . (sy x sy); eigenvalues are the lambda'^2."""
    rho = as_matrix4(rho)
    return rho @ spin_flip(rho)


def _psd_sqrt(m, clamp):
    vals, vecs = hermitian_eigensystem(m, tol=1e-8)
    vals = np.where(vals < clamp, np.maximum(vals, 0.0), vals)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def wootters_lambdas(rho, tol=1e-10):
    """Spin-flip eigenvalue list lambda'_1 >= ... >= lambda'_4.

    Computed from the Hermitian product sqrt(rho) rho_tilde sqrt(rho)
    rather than the non-Hermitian rho rho_tilde: numerically stable and it
    reuses the Hermitian eigensolver.  Tiny negative eigenvalues of rho (second
    order truncation artifacts) are clamped to zero before square roots,
    and eigenvalues of the product below 1e-13 of its trace are deflated
    to exact zero: the square root would otherwise amplify solver noise
    on exact-zero eigenvalues into O(1e-8) spurious lambda' values.
    """
    rho = as_matrix4(rho)
    res = hermiticity_residual(rho)
    if res > tol:
        raise NotHermitian(f"max |rho - rho^dagger| = {res:.3e} exceeds tol {tol:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise NotNormalized(f"trace(rho) = {tr!r}, expected 1 within 1e-8")

    clamp = 1e-12 * tr
    root = _psd_sqrt(rho, clamp)
    inner = root @ spin_flip(rho) @ root
    inner = 0.5 * (inner + inner.conj().T)
    vals = hermitian_eigenvalues(inner, tol=1e-8)
    floor = 1e-13 * max(np.trace(inner).real, 0.0)
    vals = np.where(vals < floor, 0.0, vals)
    return np.sqrt(vals)[::-1]
