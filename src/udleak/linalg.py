"""4x4 complex matrix kernel, batched over leading axes.

Everything downstream works on stacks of 4x4 numpy arrays, shape
(..., 4, 4) (row-major, complex): a single matrix is the 0-d case, a sweep
is one (N, 4, 4) stack.  Checks and tolerances apply to each matrix on its
own.  Eigen-decompositions go through LAPACK (numpy.linalg.eigh, one call
per stack), which shares no code with the 2x2-block closed forms it is
checked against.  A stack of density matrices costs 2 eigh calls (rho,
whose eigenvectors give its square root for the spin-flip (concurrence)
construction, and its partial transpose) and 1 svd (the spin-flip values).
A LAPACK routine that finds no decomposition (numpy's LinAlgError, e.g. on
entries near 1e298) raises NotConverged, a failed check like the others.
"""

from __future__ import annotations

import numpy as np


class MatrixCheckFailed(ValueError):
    """A check failed on a stack; the message gives the figures of the
    matrix that failed it worst."""


class NotHermitian(MatrixCheckFailed):
    pass


class NotNormalized(MatrixCheckFailed):
    pass


class NotConverged(MatrixCheckFailed):
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
    if a.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {a.shape}")
    return a


def dagger(m):
    return m.conj().swapaxes(-1, -2)


def trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def hermiticity_residual(m):
    """max |m - m^dagger| of each matrix."""
    m = as_matrix4(m)
    return np.max(np.abs(m - dagger(m)), axis=(-2, -1))


def hermitian_eigensystem(m, tol=1e-10):
    """Eigenvalues (ascending) and eigenvectors of Hermitian 4x4 matrices.

    Rejects the stack if any matrix's anti-Hermitian part exceeds tol
    (a scalar or one tolerance per matrix) or is not finite, with the
    figures of the worst matrix (NotHermitian), symmetrizes away the allowed
    residual and diagonalizes the whole stack with one LAPACK call.
    Columns of each returned matrix are the eigenvectors.
    """
    m = as_matrix4(m)
    _check_hermitian(m, tol)
    return _lapack("eigh", 0.5 * (m + dagger(m)))


def _lapack(name, m, **kwargs):
    """np.linalg.<name>(m, **kwargs), its LinAlgError raised as NotConverged."""
    try:
        return getattr(np.linalg, name)(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"LAPACK {name} failed: {exc}") from None


def _check_hermitian(m, tol):
    res, tol = np.broadcast_arrays(hermiticity_residual(m), tol)
    worst = np.argmax(res - tol)   # argmax picks a NaN first
    res, tol = res.flat[worst], tol.flat[worst]
    if not res <= tol:   # a non-finite entry gives a NaN or inf residual: fails
        raise NotHermitian(f"|m - m^dagger| = {res:.3e} exceeds tol {tol:.3e}")


def hermitian_eigenvalues(m, tol=1e-10):
    """Four real eigenvalues of each Hermitian 4x4 matrix, ascending."""
    vals, _ = hermitian_eigensystem(m, tol=tol)
    return vals


def partial_transpose_b(rho):
    """Transpose the second qubit: ((i,j),(k,l)) -> ((i,l),(k,j)).

    On an X-matrix this swaps the inner off-diagonal pair with the corner
    pair, is trace- and Hermiticity-preserving, and is an involution.
    """
    rho = as_matrix4(rho)
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(r.swapaxes(-3, -1).reshape(rho.shape))


def spin_flip(rho):
    """rho_tilde = (sy x sy) rho* (sy x sy)."""
    rho = as_matrix4(rho)
    return SPIN_FLIP @ rho.conj() @ SPIN_FLIP


def wootters_product(rho):
    """rho . (sy x sy) . rho* . (sy x sy); eigenvalues are the lambda'^2."""
    rho = as_matrix4(rho)
    return rho @ spin_flip(rho)


def wootters_lambdas(rho, tol=1e-10):
    """Spin-flip eigenvalue lists lambda'_1 >= ... >= lambda'_4, shape (..., 4).

    With R = sqrt(rho), R rho_tilde R = A A^dagger for A = R (sy x sy) R*,
    so the lambda' are the singular values of conj(A) = R* (sy x sy) R,
    taken directly: no square root of an eigenvalue amplifies solver noise
    near zero.  Tiny negative eigenvalues of rho (second order truncation
    artifacts) are clamped to zero in R.  NotHermitian (rho off by more
    than tol) is raised before NotNormalized.
    """
    rho = as_matrix4(rho)
    vals, vecs = hermitian_eigensystem(rho, tol=tol)
    off = np.max(abs(trace(rho).real - 1.0))
    if off > 1e-8:
        raise NotNormalized(f"trace(rho) is {off:.3e} away from 1, beyond 1e-8")

    root = (vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]) @ dagger(vecs)
    return _lapack("svd", root.conj() @ SPIN_FLIP @ root, compute_uv=False)
