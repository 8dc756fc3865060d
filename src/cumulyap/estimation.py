"""Drift estimation from steady-state cumulants and its asymptotic inference.

The drift enters the stacked off-diagonal cumulant system linearly and spans
the kernel for identifiable graphs, so the estimator is the right singular
vector of the empirical system for its smallest singular value, normalized
and signed to look like a stable drift. Perturbation of that singular vector
is linear in the perturbation of the matrix, which combined with the CLT for
empirical cumulants gives a plug-in asymptotic covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import _above_cutoff, _noise_free_rows, assemble_system
from .lyapunov import is_stable, lyapunov_operator_matrix
from .tensors import SymmetricTensor

__all__ = [
    "least_singular_vector",
    "DriftEstimate",
    "estimate_drift",
    "SingularVectorJacobian",
    "singular_vector_jacobian",
    "AsymptoticCovariance",
    "asymptotic_covariance",
]

SIGN_TIE_RTOL = 1e-12


class _Fit(NamedTuple):
    """What the estimator reads from one SVD of its coefficient system A:
    v, sigma_min and gap as least_singular_vector gives them, the rank as
    numerical_rank counts it, and the pseudoinverse of A without its least
    singular triplet (sigma_min, small but not zero on an empirical system,
    would dominate it)."""

    v: np.ndarray
    sigma_min: float
    gap: float
    rank: int
    pinv: np.ndarray


def _fit(A: np.ndarray) -> _Fit:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    s = np.concatenate([s, np.zeros(max(0, n - m))])
    rank = int(np.sum(_above_cutoff(s, A.shape)))
    kept = min(rank, n - 1)
    pinv = Vt[:kept].T @ (U[:, :kept].T / s[:kept, None])
    gap = float(s[-2] - s[-1]) if n >= 2 else float("inf")
    return _Fit(v=Vt[-1], sigma_min=float(s[-1]), gap=gap, rank=rank, pinv=pinv)


def least_singular_vector(A: np.ndarray):
    """Right singular vector for the smallest singular value of A.

    Returns (v, sigma_min, gap) with gap the distance from sigma_min to the
    next singular value; when A has fewer rows than columns the missing
    singular values count as zeros.
    """
    return _fit(A)[:3]


@dataclass
class DriftEstimate:
    """Scale-free drift estimate with the singular values behind it.

    `matrix` has unit Frobenius norm; `gap` separating the two smallest
    singular values of the system is the practical identifiability margin.
    """

    matrix: np.ndarray
    sigma_min: float
    gap: float
    stable: bool


def _sign_fix(M: np.ndarray) -> np.ndarray:
    """Resolve the sign so the estimate looks like a stable drift."""
    trace = float(np.trace(M))
    scale = float(np.abs(np.diag(M)).sum())
    if abs(trace) <= SIGN_TIE_RTOL * scale:
        j = int(np.argmax(np.abs(np.diag(M))))
        if M[j, j] > 0:
            return -M
        return M
    return -M if trace > 0 else M


def _estimate(cumulants: dict[int, SymmetricTensor]) -> tuple[DriftEstimate, _Fit]:
    """estimate_drift, together with the fit of the system it came from."""
    fit = _fit(assemble_system(cumulants))
    d = cumulants[sorted(cumulants)[0]].d
    M = _sign_fix(fit.v.reshape((d, d), order="F"))
    return DriftEstimate(M, fit.sigma_min, fit.gap, stable=is_stable(M)), fit


def estimate_drift(cumulants: dict[int, SymmetricTensor]) -> DriftEstimate:
    """Estimate the drift direction from cumulant tensors keyed by order.

    From samples, pass empirical_cumulants(samples, orders). Builds the
    stacked off-diagonal coefficient system over the tensors' orders and
    takes its least right singular vector, reshaped column by column into
    a matrix of unit Frobenius norm. The overall sign makes the trace
    negative; an exactly balanced trace falls back to making the largest
    diagonal entry negative. Stability of the estimate is reported, not
    enforced.
    """
    return _estimate(cumulants)[0]


@dataclass
class SingularVectorJacobian:
    """Derivative of the least singular vector v of a system A.

    Perturbing A by H moves v by apply(H) = -pinv @ H @ v, up to o(H), with
    pinv the pseudoinverse of A without its least singular triplet; when A
    has no exact kernel, up to terms of order sigma_min too.
    """

    pinv: np.ndarray
    direction: np.ndarray

    def apply(self, H: np.ndarray) -> np.ndarray:
        return -self.pinv @ (np.asarray(H, dtype=float) @ self.direction)


def singular_vector_jacobian(A: np.ndarray) -> SingularVectorJacobian:
    """Jacobian of the drift estimator at the system A, from one SVD of A;
    the pseudoinverse inverts only singular values above the rank cutoff."""
    fit = _fit(A)
    return SingularVectorJacobian(pinv=fit.pinv, direction=fit.v)


@dataclass
class AsymptoticCovariance:
    """Asymptotic covariance of the sqrt(n)-scaled drift estimator error.

    `matrix` is for the vectorized estimate (column by column); `total` is
    its trace, the limit of n times the expected squared Frobenius error.
    """

    matrix: np.ndarray
    total: float


def _covariance(drift, cumulants, omega, fit: _Fit) -> AsymptoticCovariance:
    """asymptotic_covariance, given the fit of assemble_system(cumulants)."""
    drift = np.asarray(drift, dtype=float)
    d = drift.shape[0]
    if fit.rank < d * d - 1:
        raise ValueError(
            "the cumulants do not identify the drift; the off-diagonal cumulant "
            f"system has rank {fit.rank}, below d*d - 1 = {d * d - 1}"
        )
    unit = drift / np.linalg.norm(drift)
    orders = sorted(cumulants)
    blocks = [lyapunov_operator_matrix(unit, k)[_noise_free_rows(d, k)] for k in orders]
    ends = np.cumsum([b.shape for b in blocks], axis=0)
    B = np.zeros(ends[-1])
    for b, (r, c) in zip(blocks, ends):
        B[r - b.shape[0] : r, c - b.shape[1] : c] = b
    n = B.shape[1]
    if np.shape(omega) != (n, n):
        raise ValueError(f"omega must be {n} x {n} for orders {orders}")
    J = -fit.pinv @ B
    cov = J @ np.asarray(omega, dtype=float) @ J.T
    return AsymptoticCovariance(matrix=cov, total=float(np.trace(cov)))


def asymptotic_covariance(
    drift: np.ndarray,
    cumulants: dict[int, SymmetricTensor],
    omega: np.ndarray,
) -> AsymptoticCovariance:
    """Delta-method covariance of the drift estimator.

    `drift` is the drift matrix the cumulants belong to (any scale),
    `cumulants` the tensors the estimator consumes, and `omega` the
    asymptotic covariance of the sqrt(n)-scaled stacked cumulant estimator,
    aligned with stacked_labels over the same orders. The estimator error is
    linear in the cumulant error: it is -pinv(A) B times that error, with A
    the cumulants' system, pinv as in singular_vector_jacobian, and B the
    noise-free rows (those of assemble_system) of the Lyapunov operator of
    the unit-norm drift. At the truth this is the asymptote; from samples
    and their estimate, its plug-in. Raises ValueError when the stacked
    off-diagonal system has rank below d*d - 1, as the cumulants then do not
    identify the drift and the expansion has no meaning.
    """
    return _covariance(drift, cumulants, omega, _fit(assemble_system(cumulants)))
