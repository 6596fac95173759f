"""Density matrices, instruments in Kraus form, and definite-order tables.

An instrument is a finite collection of completely positive "branches",
one per outcome, whose sum is trace preserving. Applying branch b to a
state rho gives the unnormalized post-measurement state; its trace is the
outcome probability. :func:`compose_table` chains three labs' Kraus stacks
in a temporal order and traces at the end: it builds the joint table of a
quantum scenario and of each term of a factored process matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import matrices as mx
from .errors import DimensionMismatch, NegativeMass, NotNormalized, ParameterOutOfRange
from .joint import DEFAULT_TOL, Event, JointDistribution, OutcomeSpace, validate_joint

DENSITY_TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-9

ORDERS = ("ABE", "AEB")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = mx.as_complex_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        if not mx.is_hermitian(m):
            raise DimensionMismatch(
                f"density matrix is not hermitian (deviation {mx.hermiticity_deviation(m):.3e})"
            )
        low = mx.min_eigenvalue(m)
        if low < -mx.PSD_TOL:
            raise NegativeMass(
                f"density matrix has eigenvalue {low:.3e} below -{mx.PSD_TOL}"
            )
        tr = complex(np.trace(m)).real
        if abs(tr - 1) > DENSITY_TRACE_TOL:
            raise NotNormalized(f"density matrix trace is {tr}, not 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise DimensionMismatch("cannot build a state from the zero vector")
        return cls(mx.projector(v / n))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed collection of CP maps summing to a trace-preserving map.

    ``branches[b]`` is the tuple of Kraus operators of branch b, each of
    shape (dim_out, dim_in). Construction refuses non-finite Kraus entries
    and checks trace preservation of the total map unless ``check=False``
    (used to build deliberately broken instruments for diagnostics).
    """

    branches: tuple[tuple[np.ndarray, ...], ...]
    check: bool = True

    def __post_init__(self):
        if not self.branches or any(not b for b in self.branches):
            raise DimensionMismatch("instrument needs at least one Kraus operator per branch")
        frozen = []
        d_out, d_in = mx.as_complex_matrix(self.branches[0][0]).shape
        for branch in self.branches:
            ops = []
            for k in branch:
                k = mx.as_complex_matrix(k, "kraus operator").copy()
                if k.shape != (d_out, d_in):
                    raise DimensionMismatch(
                        f"kraus operator shape {k.shape} != {(d_out, d_in)}"
                    )
                k.setflags(write=False)
                ops.append(k)
            frozen.append(tuple(ops))
        object.__setattr__(self, "branches", tuple(frozen))
        if not self.check:
            _refuse_non_finite(self)
            return
        dev = completeness_deviation(self)
        # NaN, from a non-finite Kraus entry, fails this test too
        if not dev <= COMPLETENESS_TOL:
            _refuse_non_finite(self)
            raise NotNormalized(
                f"instrument is not trace preserving: ||sum K^dag K - 1|| = {dev:.3e}"
            )

    @property
    def dim_in(self) -> int:
        return self.branches[0][0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.branches[0][0].shape[0]

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @classmethod
    def projective(cls, basis) -> "Instrument":
        """Projective instrument from an orthonormal basis (columns or list of kets)."""
        vecs = np.asarray(basis, dtype=complex)
        if vecs.ndim != 2:
            raise DimensionMismatch("basis must be a matrix of column vectors")
        return cls(tuple((mx.projector(vecs[:, c]),) for c in range(vecs.shape[1])))

    @classmethod
    def from_projectors(cls, projectors) -> "Instrument":
        """One branch per projector, with the projective update rule."""
        return cls(tuple((mx.as_complex_matrix(p),) for p in projectors))

    @classmethod
    def identity(cls, dim: int) -> "Instrument":
        return cls(((np.eye(dim, dtype=complex),),))


def _refuse_non_finite(instr: Instrument) -> None:
    """Raise naming the first Kraus operator with a NaN or infinite entry."""
    for b, branch in enumerate(instr.branches):
        for m, k in enumerate(branch):
            if not np.isfinite(k).all():
                raise NotNormalized(f"kraus operator {m} of branch {b} has non-finite entries")


def completeness_deviation(instr: Instrument) -> float:
    """Spectral norm of sum_b sum_m K^dag K - identity; NaN when a Kraus
    entry is not finite, which leaves a diagonal entry of the sum NaN or
    infinite."""
    d_in = instr.dim_in
    acc = np.zeros((d_in, d_in), dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite operator
        for branch in instr.branches:
            for k in branch:
                acc += mx.dagger(k) @ k
    if not np.isfinite(acc).all():
        return math.nan
    return float(np.abs(np.linalg.eigvalsh(acc - np.eye(d_in))).max())


def choi_stack(instr: Instrument) -> np.ndarray:
    """Choi matrices of all branches, shape (branches, d_in*d_out, d_in*d_out).

    Input factor first: with ``|phi+> = sum_x |x>|x>`` on two copies of the
    input space, branch b's Choi matrix is

        C_b = sum_m (id (x) K_m) |phi+><phi+| (id (x) K_m)^dag
            = sum_{x,y} |x><y| (x) M_b(|x><y|),

    and ``(id (x) K)|phi+>`` is the column-stacked ``K.T``. The outer
    products of all Kraus operators are taken at once and summed per branch.
    Each C_b is positive semidefinite by construction; the identity channel
    maps to the unnormalized maximally entangled projector.
    """
    kraus = np.stack([k for branch in instr.branches for k in branch])
    vecs = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    outer = vecs[:, :, None] * vecs[:, None, :].conj()
    starts = np.cumsum([0] + [len(branch) for branch in instr.branches[:-1]])
    return np.add.reduceat(outer, starts, axis=0)


def _sandwich(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """K rho K^dag; stacks of operators and of states broadcast."""
    return k @ rho @ k.conj().swapaxes(-1, -2)


def kraus_stack(instr: Instrument) -> tuple[np.ndarray, np.ndarray]:
    """The (branches, operators, d_out, d_in) array of an instrument's Kraus
    operators, zero padded to the longest branch, and each branch's count."""
    counts = np.array([len(branch) for branch in instr.branches])
    ops = np.zeros((len(counts), counts.max(), instr.dim_out, instr.dim_in), dtype=complex)
    for b, branch in enumerate(instr.branches):
        ops[b, : counts[b]] = branch
    return ops, counts


# Complex entries (1 MiB) in one block of post-measurement states: however
# many branches, a stage holds a few MiB and never every final state.
_STATE_BLOCK_ENTRIES = 2**16


def _branch_traces(states: np.ndarray, stacks: Sequence[tuple]) -> np.ndarray:
    """p[s, x, y, ...]: trace left on state s by branch x of the first Kraus
    stack, then y of the next, and so on; each entry has the bits of staging
    the labs one at a time, each branch's K rho K^dag terms added in Kraus
    order (padding skipped) and the last state traced with np.trace."""
    if not stacks:
        return np.trace(states, axis1=-2, axis2=-1).real
    (ops, counts), rest = stacks[0], stacks[1:]
    n, n_ops, d_out, d_in = ops.shape
    out = np.empty((len(states), *(len(c) for _, c in stacks)))
    block = max(1, _STATE_BLOCK_ENTRIES // (n * d_out * max(d_in, d_out)))
    for lo in range(0, len(states), block):
        chunk = states[lo : lo + block, None]
        post = _sandwich(ops[:, 0], chunk)
        for m in range(1, n_ops):
            np.add(post, _sandwich(ops[:, m], chunk), out=post, where=(counts > m)[:, None, None])
        part = out[lo : lo + block]
        part[...] = _branch_traces(post.reshape(-1, d_out, d_out), rest).reshape(part.shape)
    return out


def compose_table(rho: np.ndarray, stacks: Mapping[str, tuple], order: Sequence[str]) -> np.ndarray:
    """Raw table p(i, j, k) of ``rho`` fed to the labs in ``order``, each
    applying every branch of its :func:`kraus_stack` in ``stacks``."""
    staged = _branch_traces(rho[None], [stacks[lab] for lab in order])[0]
    return staged.transpose([order.index(lab) for lab in "ABE"])


@dataclass(frozen=True)
class QuantumScenario:
    """Initial state, three instruments, a temporal order, and the event.

    ``order`` is "ABE" (Alice, Bob, then the event measurement) or "AEB"
    (event measurement between Alice and Bob). The joint table axes are
    always reported as (i, j, k) regardless of temporal order.
    """

    state: DensityMatrix
    instr_a: Instrument
    instr_b: Instrument
    instr_e: Instrument
    order: str = "ABE"
    event: Event | None = None

    def __post_init__(self):
        if self.order not in ORDERS:
            raise DimensionMismatch(f"order must be one of {ORDERS}, got {self.order!r}")
        chain = self.instrument_chain()
        dim = self.state.dim
        for instr in chain:
            if instr.dim_in != dim:
                raise DimensionMismatch(
                    f"instrument expects input dim {instr.dim_in}, chain carries {dim}"
                )
            dim = instr.dim_out
        if self.event is None:
            object.__setattr__(
                self, "event", Event(self.space, frozenset(range(self.instr_e.n_branches)))
            )
        elif self.event.space.sizes != self.space.sizes:
            raise DimensionMismatch("event was built over a different outcome space")

    @property
    def space(self) -> OutcomeSpace:
        return OutcomeSpace(
            self.instr_a.n_branches, self.instr_b.n_branches, self.instr_e.n_branches
        )

    def instrument_chain(self) -> tuple[Instrument, ...]:
        by_name = {"A": self.instr_a, "B": self.instr_b, "E": self.instr_e}
        return tuple(by_name[c] for c in self.order)


def sequential_joint(scenario: QuantumScenario, tol: float = DEFAULT_TOL) -> JointDistribution:
    """Joint table p(i, j, k) from composing the three instruments in order.

    p(i, j, k) is the trace of the selected branches applied to the state
    in the scenario's temporal order; the output axes are always (i, j, k).
    """
    s = scenario
    stacks = {lab: kraus_stack(i) for lab, i in zip("ABE", (s.instr_a, s.instr_b, s.instr_e))}
    return validate_joint(compose_table(s.state.matrix, stacks, s.order), s.space, tol)


def _block_basis(theta: float, phi: float) -> np.ndarray:
    """Four-level basis rotated by theta in the {0,1} block and phi in {2,3}."""
    c_t, s_t = np.cos(theta), np.sin(theta)
    c_p, s_p = np.cos(phi), np.sin(phi)
    b = np.zeros((4, 4), dtype=complex)
    b[:, 0] = (c_t, s_t, 0, 0)
    b[:, 1] = (-s_t, c_t, 0, 0)
    b[:, 2] = (0, 0, c_p, s_p)
    b[:, 3] = (0, 0, -s_p, c_p)
    return b


def _check_block_params(q: float, r: float) -> None:
    if not 0 < q < 0.5:
        raise ParameterOutOfRange(f"q must satisfy 0 < q < 1/2, got {q}")
    if not 0 < r < 1 - 2 * q:
        raise ParameterOutOfRange(f"r must satisfy 0 < r < 1 - 2q = {1 - 2 * q}, got {r}")


def block_rotation_scenario(
    theta: float, phi: float, q: float, r: float, state: DensityMatrix | None = None
) -> QuantumScenario:
    """Four-level worked example with block-rotated bases and a binary event.

    Alice measures the computational basis {|a_i>}. Bob measures the basis
    obtained by rotating the {a_0, a_1} block by theta and the {a_2, a_3}
    block by phi. The event measurement is the binary projective instrument
    onto e_0 = sqrt(q) b_0 + sqrt(q) b_1 + sqrt(r) b_2 + sqrt(1-2q-r) b_3
    and its complement, with the event being outcome k = 0. Requires
    0 < q < 1/2 and 0 < r < 1 - 2q. Order is Alice, Bob, then the event.
    """
    _check_block_params(q, r)
    if state is None:
        state = DensityMatrix.maximally_mixed(4)
    if state.dim != 4:
        raise DimensionMismatch(f"this scenario is four dimensional, state has dim {state.dim}")
    basis_b = _block_basis(theta, phi)
    weights = np.sqrt([q, q, r, 1 - 2 * q - r])
    e0 = basis_b @ weights.astype(complex)
    p0 = mx.projector(e0)
    instr_a = Instrument.projective(np.eye(4, dtype=complex))
    instr_b = Instrument.projective(basis_b)
    instr_e = Instrument.from_projectors([p0, np.eye(4, dtype=complex) - p0])
    space = OutcomeSpace(4, 4, 2)
    return QuantumScenario(
        state, instr_a, instr_b, instr_e, order="ABE",
        event=Event(space, frozenset({0})),
    )


def closed_form_posteriors(
    theta: float, phi: float, q: float, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form posterior vectors (q_A, q_B) for the block-rotation example.

    q_A = (q, q, c_phi^2 r + s_phi^2 (1-2q-r), s_phi^2 r + c_phi^2 (1-2q-r))
    q_B = (q, q, r, 1-2q-r)

    q_B carries no angle dependence. These serve as the independent oracle
    for the full instrument pipeline.
    """
    _check_block_params(q, r)
    c2 = np.cos(phi) ** 2
    s2 = np.sin(phi) ** 2
    rest = 1 - 2 * q - r
    q_a = np.array([q, q, c2 * r + s2 * rest, s2 * r + c2 * rest])
    q_b = np.array([q, q, r, rest])
    return q_a, q_b


@dataclass(frozen=True)
class InstrumentDiagnostics:
    """Per-branch Choi positivity and total trace preservation report."""

    branch_min_choi_eigenvalues: tuple[float, ...]
    completeness_deviation: float
    passes: bool


def validate_instrument(instr: Instrument, tol: float = COMPLETENESS_TOL) -> InstrumentDiagnostics:
    """Diagnose an instrument: branch Choi spectra and trace preservation."""
    eigs = tuple(float(e) for e in np.linalg.eigvalsh(choi_stack(instr))[:, 0])
    dev = completeness_deviation(instr)
    passes = dev <= tol and all(e >= -max(tol, mx.PSD_TOL) for e in eigs)
    return InstrumentDiagnostics(eigs, dev, passes)
