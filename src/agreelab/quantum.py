"""Density matrices, instruments in Kraus form, and definite-order tables.

An instrument is a finite collection of completely positive "branches",
one per outcome, whose sum is trace preserving; it holds its Kraus
operators in one zero-padded array. Applying branch b to a state rho gives
the unnormalized post-measurement state; its trace is the outcome
probability. A :class:`WiringTerm` is one definite-order circuit: it
checks its wire chain against the labs' dims, and its table method runs the
state through three labs' Kraus arrays in a temporal order and traces at
the end. A quantum scenario is one term of weight 1, and a factored process
matrix a weighted sum of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matrices as mx
from .errors import (
    DimensionMismatch,
    NegativeMass,
    NotNormalized,
    ParameterOutOfRange,
    ValidationError,
)
from .joint import DEFAULT_TOL, Event, JointDistribution, OutcomeSpace, validate_joint

DENSITY_TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-9

LABS = ("A", "B", "E")
ORDERS = ("ABE", "AEB")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = mx.as_complex_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        mx.check_entries(m, "density matrix")
        deviation = mx.hermiticity_deviation(m)
        if deviation > mx.HERMITICITY_TOL:
            raise DimensionMismatch(f"density matrix is not hermitian (deviation {deviation:.3e})")
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

    ``kraus`` is the read-only (branches, operators, dim_out, dim_in) array
    of the Kraus operators, zero padded to the longest branch, and
    ``counts[b]`` is the number of operators of branch b. ``branches[b]`` is
    the tuple of branch b's operators, read-only views into ``kraus``.
    Construction refuses non-finite Kraus entries and entries above
    :data:`matrices.MAX_ENTRY`, and checks trace preservation of the total
    map unless ``check=False`` (used to build deliberately broken
    instruments for diagnostics).
    """

    branches: tuple[tuple[np.ndarray, ...], ...]
    check: bool = True
    kraus: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.branches or any(not b for b in self.branches):
            raise DimensionMismatch("instrument needs at least one Kraus operator per branch")
        counts = [len(b) for b in self.branches]
        shape = mx.as_complex_matrix(self.branches[0][0], "kraus operator").shape
        pad = (np.zeros(shape),) * max(counts)
        try:
            kraus = np.array([(*b, *pad[n:]) for b, n in zip(self.branches, counts)], dtype=complex)
        except ValueError:  # an operator of another shape
            raise DimensionMismatch(f"kraus operators must all have shape {shape}") from None
        try:
            mx.check_entries(kraus, "kraus operator")
        except ValidationError:
            bad = ~np.isfinite(kraus).all(axis=(2, 3))
            if not bad.any():
                raise
            b, m = np.argwhere(bad)[0]
            raise NotNormalized(
                f"kraus operator {m} of branch {b} has non-finite entries"
            ) from None
        kraus.setflags(write=False)
        views = tuple(tuple(kraus[b, :n]) for b, n in enumerate(counts))
        counts = np.array(counts)
        counts.setflags(write=False)
        object.__setattr__(self, "branches", views)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "counts", counts)
        if self.check:
            dev = completeness_deviation(self)
            if dev > COMPLETENESS_TOL:
                raise NotNormalized(
                    f"instrument is not trace preserving: ||sum K^dag K - 1|| = {dev:.3e}"
                )

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[3]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[2]

    @property
    def n_branches(self) -> int:
        return len(self.counts)

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


def completeness_deviation(instr: Instrument) -> float:
    """Spectral norm of sum_b sum_m K^dag K - identity. The sum is G^dag G
    for G, all Kraus operators stacked as rows; the padding adds zero rows."""
    g = instr.kraus.reshape(-1, instr.dim_in)
    return float(np.abs(np.linalg.eigvalsh(g.conj().T @ g - np.eye(instr.dim_in))).max())


def choi_stack(instr: Instrument) -> np.ndarray:
    """Choi matrices of all branches, shape (branches, d_in*d_out, d_in*d_out).

    Input factor first: with ``|phi+> = sum_x |x>|x>`` on two copies of the
    input space, branch b's Choi matrix is

        C_b = sum_m (id (x) K_m) |phi+><phi+| (id (x) K_m)^dag
            = sum_{x,y} |x><y| (x) M_b(|x><y|),

    and ``(id (x) K)|phi+>`` is the column-stacked ``K.T``. The outer
    products of all Kraus operators, padding left out, are taken at once and
    summed per branch. Each C_b is positive semidefinite by construction;
    the identity channel maps to the unnormalized maximally entangled
    projector.
    """
    counts = instr.counts
    kraus = instr.kraus[np.arange(instr.kraus.shape[1]) < counts[:, None]]
    vecs = kraus.transpose(0, 2, 1).reshape(len(kraus), -1)
    outer = vecs[:, :, None] * vecs[:, None, :].conj()
    return np.add.reduceat(outer, np.cumsum(counts) - counts, axis=0)


def _sandwich(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """K rho K^dag; stacks of operators and of states broadcast."""
    return k @ rho @ k.conj().swapaxes(-1, -2)


# Complex entries (1 MiB) in one block of post-measurement states: however
# many branches, a stage holds a few MiB and never every final state.
_STATE_BLOCK_ENTRIES = 2**16


def _branch_traces(states: np.ndarray, instrs: Sequence[Instrument]) -> np.ndarray:
    """p[s, x, y, ...]: trace left on state s by branch x of the first
    instrument, then y of the next, and so on; each entry has the bits of
    staging the labs one at a time, each branch's K rho K^dag terms added in
    Kraus order (padding skipped) and the last state traced with np.trace."""
    if not instrs:
        return np.trace(states, axis1=-2, axis2=-1).real
    first, rest = instrs[0], instrs[1:]
    ops, counts = first.kraus, first.counts
    n, n_ops, d_out, d_in = ops.shape
    out = np.empty((len(states), *(instr.n_branches for instr in instrs)))
    block = max(1, _STATE_BLOCK_ENTRIES // (n * d_out * max(d_in, d_out)))
    for lo in range(0, len(states), block):
        chunk = states[lo : lo + block, None]
        post = _sandwich(ops[:, 0], chunk)
        for m in range(1, n_ops):
            np.add(post, _sandwich(ops[:, m], chunk), out=post, where=(counts > m)[:, None, None])
        part = out[lo : lo + block]
        part[...] = _branch_traces(post.reshape(-1, d_out, d_out), rest).reshape(part.shape)
    return out


@dataclass(frozen=True)
class WiringTerm:
    """One definite-order circuit, weighted: a quantum scenario, or one term
    of a factored process matrix.

    ``state`` enters the first lab of ``order``; identity channels wire each
    lab's output to the next lab's input; the last output is discarded. The
    term's W is ``weight * (rho^T (x) |I>><<I| (x) |I>><<I| (x) 1)`` over
    (first input, first output and second input, second output and third
    input, third output), positive by construction for a nonnegative weight.
    Lab dims and instruments are given in A, B, E order.
    """

    weight: float
    state: DensityMatrix
    order: tuple[str, str, str]

    def check(self, lab_dims: Sequence[tuple[int, int]]) -> float:
        """Refuse an order or a wire chain that does not fit ``lab_dims``, the
        (input, output) dims of each lab; return the term's share
        ``weight * tr(rho)`` of tr W / prod d_out."""
        if sorted(self.order) != sorted(LABS):
            raise DimensionMismatch(f"order must be a permutation of {LABS}, got {self.order}")
        by_lab = dict(zip(LABS, lab_dims))
        first, second, third = self.order
        if by_lab[first][0] != self.state.dim:
            raise DimensionMismatch(
                f"state dim {self.state.dim} != input dim {by_lab[first][0]} of first lab {first}"
            )
        for x, y in ((first, second), (second, third)):
            if by_lab[x][1] != by_lab[y][0]:
                raise DimensionMismatch(
                    f"output dim of lab {x} ({by_lab[x][1]}) != input dim of lab {y} "
                    f"({by_lab[y][0]})"
                )
        return self.weight * complex(np.trace(self.state.matrix)).real

    def table(self, instrs: Sequence[Instrument]) -> np.ndarray:
        """Weighted raw table p(i, j, k) of the state fed to the labs in
        ``order``, each applying every branch of its instrument; the bits of
        the staged table times the weight."""
        by_lab = dict(zip(LABS, instrs))
        staged = _branch_traces(self.state.matrix[None], [by_lab[lab] for lab in self.order])[0]
        return self.weight * staged.transpose([self.order.index(lab) for lab in LABS])

    def dense(self, lab_dims: Sequence[tuple[int, int]]) -> np.ndarray:
        """Dense W, axes in the canonical (A_in, ..., E_out) order.

        W is one outer product: rho^T on the first input, an identity from
        each output to the next input on either matrix side
        (|I>><<I|[(x, y), (x', y')] = d(x, y) d(x', y')), and an identity on
        the last output. Lowercase letters index rows and uppercase ones
        columns; each lab's (in, out) letter pair is placed in canonical lab
        order.
        """
        pairs = dict(zip(self.order, ("ab", "cd", "ef")))
        rows = "".join(pairs[lab] for lab in LABS)
        by_lab = dict(zip(LABS, lab_dims))
        id1, id2, id3 = (np.eye(by_lab[lab][1]) for lab in self.order)
        spec = f"aA,bc,BC,de,DE,fF->{rows}{rows.upper()}"
        w = np.einsum(spec, self.weight * self.state.matrix.T, id1, id1, id2, id2, id3, order="C")
        d = math.prod(d for pair in lab_dims for d in pair)
        return w.reshape(d, d)


@dataclass(frozen=True)
class QuantumScenario:
    """Initial state, three instruments, a temporal order, and the event.

    ``order`` is "ABE" (Alice, Bob, then the event measurement) or "AEB"
    (event measurement between Alice and Bob). The joint table axes are
    always reported as (i, j, k) regardless of temporal order. The circuit
    is a :class:`WiringTerm` of weight 1.
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
        dims = [(i.dim_in, i.dim_out) for i in (self.instr_a, self.instr_b, self.instr_e)]
        WiringTerm(1.0, self.state, tuple(self.order)).check(dims)
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
    The weight-1 term keeps every bit of the staged table, -0.0 included.
    """
    s = scenario
    raw = WiringTerm(1.0, s.state, tuple(s.order)).table((s.instr_a, s.instr_b, s.instr_e))
    return validate_joint(raw, s.space, tol)


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
