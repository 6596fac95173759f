"""Dense complex linear-algebra helpers for the quantum and process backends.

All matrices are plain ``numpy.ndarray`` objects with ``complex`` dtype.
Tensor factors compose via ``numpy.kron`` in left-to-right order, so the
first factor is the most significant index block.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ValidationError

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

# Largest real or imaginary part, in magnitude, of an accepted density
# matrix, process matrix W or Kraus array: B = 1e150. Below it no check can
# overflow. Each sums at most n entries (|z| <= 1.5 B) or n products of two
# (<= 2e300), finite for n below 1e158 and 8.9e7: hermiticity, hermitian
# part and trace sum at most d entries, W's projection onto valid processes
# at most triples an entry per lab, and sum K^dag K sums fewer products than
# the lab's Kraus operators have entries (8.9e7 entries take half a
# gigabyte of JSON). LAPACK runs with numpy's overflow warnings off, and an
# accepted matrix is bounded by its trace or by completeness.
MAX_ENTRY = 1e150


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d array, got shape {a.shape}")
    return a


def check_entries(m: np.ndarray, kind: str) -> None:
    """Refuse a complex array with a NaN or infinite entry, then one with a
    real or imaginary part above :data:`MAX_ENTRY` in magnitude, raising
    :class:`ValidationError` that names ``kind``. An accepted array costs a max
    and a min reduction and no temporary."""
    parts = np.ascontiguousarray(m).view(float)
    worst = max(parts.max(), -parts.min())  # NaN when an entry is NaN
    if worst <= MAX_ENTRY:
        return
    if not np.isfinite(worst):
        raise ValidationError(f"{kind} has non-finite entries")
    raise ValidationError(f"{kind} entries must be at most {MAX_ENTRY:g} in magnitude")


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

