"""Dense complex linear-algebra helpers for the quantum and process backends.

All matrices are plain ``numpy.ndarray`` objects with ``complex`` dtype.
Tensor factors compose via ``numpy.kron`` in left-to-right order, so the
first factor is the most significant index block.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d array, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermiticity_deviation(m: np.ndarray) -> float:
    return float(np.abs(m - dagger(m)).max())


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2, a new array that is exactly hermitian."""
    return (m + dagger(m)) / 2


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the hermitian part of ``m``."""
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())

