"""Process-matrix evaluation of joint outcome probabilities.

Three labs A, B, E each receive a system, apply one branch of their
instrument, and send the system out. A process matrix W assigns a joint
probability to the observed branches without presupposing a causal order:

    p(i, j, k) = tr[(C_Ai (x) C_Bj (x) C_Ek) W],

where C_X is the Choi operator of the branch. Definite-order circuits,
classical mixtures of orders, and causally indefinite processes all fit
this rule, which is the contract for an explicit W.

Conventions, fixed once and used everywhere:

* Choi operators put the input factor first:
  ``C = (id (x) M)(|phi+><phi+|)`` on ``H_in (x) H_out`` with the
  unnormalized ``|phi+> = sum_x |x>|x>``; :func:`agreelab.quantum.choi_stack`
  builds all branches of an instrument at once.
* W acts on the six-factor space ordered
  ``(A_in, A_out, B_in, B_out, E_in, E_out)``.
* A valid W is hermitian, positive semidefinite, has trace equal to the
  product of the lab output dimensions, and satisfies the linear condition
  ``W = L_V(W)`` of Araujo et al. (NJP 17:102001, 2015), which rules out
  causal loops that the first three checks let through.

This ordering is part of the scenario file contract; a mismatched
convention is the dominant failure mode when importing external W
matrices. :func:`validate_process` reports all four checks, and an
explicit ``ProcessMatrix`` applies them at construction, raising
:class:`ValidationError` that names the first failing check.

Construction first tries a certificate that needs no eigendecomposition:
the hermiticity and trace checks, one Cholesky factorization of
H + (PSD_TOL/2)·1 with H = (W + W†)/2, and the L_V check. The shift is half
the bound, which leaves PSD_TOL/2 of margin against the factorization's
round-off, so a certified W is valid. A W whose smallest eigenvalue lies in
(−PSD_TOL, −PSD_TOL/2] fails the certificate yet is valid; it, and every W
that fails another check, goes on to the eigenvalues of
:func:`validate_process`, which decide and word the verdict exactly as
before. :func:`validate_process` and :class:`ProcessDiagnostics` always
compute the eigenvalues, so their figures stay exact.

A :class:`ProcessMatrix` is held in one of two forms. Constructed
processes (:func:`embed_definite_order`, :func:`mix_processes`) are
factored: a convex sum of :class:`agreelab.quantum.WiringTerm` terms, each
a definite-order circuit of a state, identity wires and a discarded last
output, the same object as a quantum scenario. A term checks its wire
chain, builds its weighted table from the labs' Kraus arrays, and builds
its dense W on request. :func:`process_joint` sums the terms' tables, so
neither the d^12-entry W nor a Choi operator is built. An explicit W, such
as the quantum switch read from a file, is dense and contracted against
the labs' Choi stacks in one einsum. A dense W above
:data:`DENSE_W_BUDGET_BYTES` is refused with :class:`ValidationError`
before it is allocated: materializing a factored process's ``matrix``, or
reading an explicit W whose declared lab dims imply one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import matrices as mx
from .errors import BadWeights, DimensionMismatch, NotNormalized, ValidationError
from .joint import DEFAULT_TOL, JointDistribution, OutcomeSpace, as_index, validate_joint
from .quantum import LABS, DensityMatrix, Instrument, WiringTerm, choi_stack

PROCESS_TRACE_TOL = 1e-8

# Largest max|W - L_V(W)| accepted as a valid process. L_V is a projector
# and fixes every valid W exactly, so the deviation of a valid W is float
# round-off (below 1e-16 on the shipped fixtures).
VALIDITY_TOL = 1e-7

# Largest imaginary part accepted in a raw joint table. A valid W with
# valid instruments gives a real table up to round-off; a larger imaginary
# part means W is not a process for these instruments.
JOINT_IMAG_TOL = 1e-8

# Largest dense W, in bytes, that the package builds or reads from a file:
# every wire at dimension 4, a 4^6 x 4^6 complex matrix (256 MiB). Lab
# dimension 5 would take 3.9 GB.
DENSE_W_BUDGET_BYTES = 2**28

LabDims = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def _normalize_lab_dims(lab_dims) -> LabDims:
    if isinstance(lab_dims, Mapping):
        try:
            dims = tuple(lab_dims[lab] for lab in LABS)
        except KeyError as e:
            raise DimensionMismatch(f"lab_dims missing lab {e.args[0]!r}") from None
    else:
        dims = tuple(lab_dims)
    if len(dims) != 3:
        raise DimensionMismatch(f"expected dims for the three labs {LABS}")
    out = []
    for lab, pair in zip(LABS, dims):
        try:
            d_in, d_out = (as_index(d, f"lab {lab} dims") for d in pair)
        except (TypeError, ValueError):
            raise DimensionMismatch(
                f"lab {lab} dims must be a pair of integers, got {pair!r}"
            ) from None
        if d_in < 1 or d_out < 1:
            raise DimensionMismatch(f"lab {lab} dims must be positive, got {pair}")
        out.append((d_in, d_out))
    return tuple(out)


@dataclass(frozen=True, init=False, eq=False)
class ProcessMatrix:
    """Positive operator assigning probabilities to local instrument outcomes.

    ``lab_dims`` lists (input, output) dimensions per lab in A, B, E order.
    A process matrix is held in one of two forms:

    * dense: ``ProcessMatrix(matrix, lab_dims)`` keeps an explicit W and
      checks it as :func:`validate_process` does, raising
      :class:`ValidationError` that names the first failing check. A W
      that passes the Cholesky certificate (see the module docstring) is
      accepted without its eigenvalues; any other W gets the full
      diagnostics, so the verdict and the message are those of the
      eigenvalues. ``validate=False`` skips these checks (diagnostic
      probing of broken candidates). ``terms`` is empty.
    * factored: :func:`embed_definite_order` and :func:`mix_processes` keep
      ``terms``, a convex sum of :class:`WiringTerm` circuits whose
      hermiticity and positivity hold factor-wise. Each term's wire chain
      and the trace ``sum_t weight_t tr(rho_t) * prod d_out`` are checked
      (the weights by :func:`mix_processes`), and W itself is never stored.

    ``matrix`` is the dense W; for a factored process it is built on each
    request, and refused above :data:`DENSE_W_BUDGET_BYTES`.
    """

    lab_dims: LabDims
    terms: tuple[WiringTerm, ...]
    _dense: np.ndarray | None = field(repr=False)

    def __init__(self, matrix: np.ndarray, lab_dims, validate: bool = True):
        self._set(_normalize_lab_dims(lab_dims), (), None)
        m = _as_process_matrix(matrix, self.lab_dims)
        if validate and not _certified(m, self.lab_dims):
            failure = _diagnose(m, self.lab_dims).failure
            if failure is not None:
                raise ValidationError(f"process matrix {failure}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "_dense", m)

    @classmethod
    def _factored(cls, terms: Sequence[WiringTerm], lab_dims: LabDims) -> ProcessMatrix:
        """A factored W; the weights are checked by the caller."""
        w = cls.__new__(cls)
        w._set(lab_dims, tuple(terms), None)
        tr = sum(t.check(lab_dims) for t in terms) * w.output_dim_product
        if abs(tr - w.output_dim_product) > PROCESS_TRACE_TOL:
            raise ValidationError(
                f"process matrix trace {tr} != product of output dims {w.output_dim_product}"
            )
        return w

    def _set(self, lab_dims: LabDims, terms: tuple[WiringTerm, ...], dense) -> None:
        object.__setattr__(self, "lab_dims", lab_dims)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_dense", dense)

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        check_dense_budget(self.lab_dims)
        w = self.terms[0].dense(self.lab_dims)
        for t in self.terms[1:]:
            w += t.dense(self.lab_dims)
        w.setflags(write=False)
        return w

    @property
    def total_dim(self) -> int:
        return math.prod(d for pair in self.lab_dims for d in pair)

    @property
    def output_dim_product(self) -> int:
        return int(np.prod([pair[1] for pair in self.lab_dims]))


def _as_process_matrix(matrix, lab_dims: LabDims) -> np.ndarray:
    m = mx.as_complex_matrix(matrix, "process matrix")
    d = math.prod(d for pair in lab_dims for d in pair)
    if m.shape != (d, d):
        raise DimensionMismatch(
            f"process matrix shape {m.shape} != ({d}, {d}) for lab dims {lab_dims}"
        )
    mx.check_entries(m, "process matrix")
    return m


def check_dense_budget(lab_dims: LabDims) -> None:
    """Refuse a dense W over ``lab_dims`` larger than DENSE_W_BUDGET_BYTES,
    before anything of that size is allocated."""
    d = math.prod(d for pair in lab_dims for d in pair)
    nbytes = d * d * np.dtype(complex).itemsize
    if nbytes > DENSE_W_BUDGET_BYTES:
        raise ValidationError(
            f"a dense process matrix over {tuple(lab_dims)} takes {nbytes / 2**20:.0f} MiB, "
            f"above the {DENSE_W_BUDGET_BYTES / 2**20:.0f} MiB budget",
            "lab_dims",
        )


def _dense_table(matrix: np.ndarray, instrs: Sequence[Instrument]) -> np.ndarray:
    """Table of an explicit W against the labs' Choi stacks, real parts kept."""
    ca, cb, ce = (choi_stack(instr) for instr in instrs)
    wt = matrix.reshape((ca.shape[1], cb.shape[1], ce.shape[1]) * 2)
    # p[ijk] = sum C_A[i,a,a'] C_B[j,b,b'] C_E[k,c,c'] W[(a'b'c'),(abc)]
    raw = np.einsum("iaA,jbB,kcC,ABCabc->ijk", ca, cb, ce, wt, optimize=True)
    worst_imag = float(np.abs(raw.imag).max())
    if worst_imag > JOINT_IMAG_TOL:
        raise NotNormalized(
            f"joint table has imaginary parts up to {worst_imag:.3e}; "
            "W is not a valid process for these instruments"
        )
    return raw.real


def process_joint(
    w: ProcessMatrix,
    instr_a: Instrument,
    instr_b: Instrument,
    instr_e: Instrument,
    tol: float = DEFAULT_TOL,
) -> JointDistribution:
    """Joint outcome table tr[(C_Ai (x) C_Bj (x) C_Ek) W] over all branches.

    A factored W is summed over its terms, each a definite-order circuit
    composed from the labs' Kraus operators; an explicit W is contracted
    against their Choi stacks in one pass, and a table whose imaginary part
    exceeds :data:`JOINT_IMAG_TOL` is refused. Raises :class:`NotNormalized`
    when the table does not sum to one, which signals a W that is not a
    valid process for these instrument dimensions.
    """
    instrs = (instr_a, instr_b, instr_e)
    dims = tuple((instr.dim_in, instr.dim_out) for instr in instrs)
    if dims != w.lab_dims:
        raise DimensionMismatch(f"instruments have dims {dims}, process expects {w.lab_dims}")
    if w.terms:
        raw = sum(t.table(instrs) for t in w.terms)
    else:
        raw = _dense_table(w.matrix, instrs)
    return validate_joint(raw, OutcomeSpace(*(instr.n_branches for instr in instrs)), tol)


def embed_definite_order(
    state: DensityMatrix,
    order: Sequence[str] = LABS,
    lab_dims=None,
) -> ProcessMatrix:
    """Process matrix of a definite-order circuit, in factored form.

    The state enters the first lab in ``order``; identity channels wire each
    lab's output to the next lab's input; the last output is discarded. The
    resulting W is positive by construction and its trace is the product of
    the lab output dimensions. ``process_joint`` on this W reproduces the
    sequential composition of the same instruments.
    """
    if lab_dims is None:
        d = state.dim
        dims = ((d, d), (d, d), (d, d))
    else:
        dims = _normalize_lab_dims(lab_dims)
    return ProcessMatrix._factored((WiringTerm(1.0, state, tuple(order)),), dims)


def mix_processes(ws: Sequence[ProcessMatrix], weights: Sequence[float]) -> ProcessMatrix:
    """Convex combination of process matrices with identical lab dimensions.

    Factored components give a factored mixture holding all their terms,
    reweighted; a dense component makes the mixture dense.
    """
    if not ws:
        raise DimensionMismatch("need at least one process matrix")
    if len(ws) != len(weights):
        raise BadWeights(f"{len(ws)} processes but {len(weights)} weights")
    weights = [float(x) for x in weights]
    if any(x < 0 for x in weights):
        raise BadWeights(f"weights must be nonnegative, got {weights}")
    if abs(sum(weights) - 1) > DEFAULT_TOL:
        raise BadWeights(f"weights sum to {sum(weights)}, not 1")
    dims = ws[0].lab_dims
    for w in ws[1:]:
        if w.lab_dims != dims:
            raise DimensionMismatch(
                f"lab dims differ across components: {w.lab_dims} vs {dims}"
            )
    if all(w.terms for w in ws):
        terms = [replace(t, weight=x * t.weight) for x, w in zip(weights, ws) for t in w.terms]
        return ProcessMatrix._factored(terms, dims)
    return ProcessMatrix(sum(x * w.matrix for x, w in zip(weights, ws)), dims)


@dataclass(frozen=True)
class ProcessDiagnostics:
    """Consistency report for a candidate process matrix.

    ``validity_deviation`` is ``max|W - L_V(W)|``; it is zero for a W that
    gives normalized probabilities to every choice of local instruments,
    and nonzero for one that, like a causal loop, does not.
    """

    hermiticity_deviation: float
    min_eigenvalue: float
    trace_deviation: float
    validity_deviation: float

    @property
    def failure(self) -> str | None:
        """The first failing check, described, or None when W is valid."""
        if self.hermiticity_deviation > mx.HERMITICITY_TOL:
            return f"is not hermitian (deviation {self.hermiticity_deviation:.3e})"
        if self.trace_deviation > PROCESS_TRACE_TOL:
            return f"trace is off the product of output dims by {self.trace_deviation:.3e}"
        if self.min_eigenvalue < -mx.PSD_TOL:
            return f"has eigenvalue {self.min_eigenvalue:.3e} below -{mx.PSD_TOL}"
        if self.validity_deviation > VALIDITY_TOL:
            return (
                f"violates W = L_V(W): max|W - L_V(W)| = {self.validity_deviation:.3e} "
                f"above {VALIDITY_TOL}"
            )
        return None

    @property
    def passes(self) -> bool:
        return self.failure is None


def _validity_deviation(m: np.ndarray, lab_dims: LabDims) -> float:
    """max|W - L_V(W)| for the projector onto valid processes (Araujo et al.,
    "Witnessing causal nonseparability", NJP 17:102001 (2015)):

        L_V(W) = W - prod_X (1 - (X_out) + (X_in X_out)) W + (all) W,

    where (S) traces out the factors S and puts back the normalized identity.

    The product is applied lab by lab, in place, to one working copy of W;
    the caller's matrix is never written. View the copy as (pre, in, out,
    post) on each matrix side. (X_out) W is the trace over out, divided by
    d_out, on every block diagonal in out, and (X_in X_out) W the trace over
    in and out, divided by d_in d_out, on every block diagonal in both; both
    are zero elsewhere. So each lab subtracts the first and adds the second
    on those blocks alone. Both traces are taken before the update, and each
    is smaller than W by the square of the dimension it traces out.
    """
    total = m.shape[0]
    t = m.copy()
    pre = 1
    for d_in, d_out in lab_dims:
        post = total // (pre * d_in * d_out)
        t8 = t.reshape(pre, d_in, d_out, post, pre, d_in, d_out, post)
        # new arrays, never views of t: with d_out = 1 the one out-block is
        # all of t, which the updates below change
        tr_out = sum(t8[:, :, k, :, :, :, k, :] for k in range(d_out)) / d_out
        tr_all = sum(tr_out[:, i, :, :, i, :] for i in range(d_in)) / d_in
        for k in range(d_out):
            t8[:, :, k, :, :, :, k, :] -= tr_out
            for i in range(d_in):
                t8[:, i, k, :, :, i, k, :] += tr_all
        pre *= d_in * d_out
    # W - L_V(W) = prod_X(...) W - (all) W
    t.reshape(-1)[:: total + 1] -= np.trace(m) / total
    return float(np.abs(t).max())


def validate_process(matrix: np.ndarray, lab_dims) -> ProcessDiagnostics:
    """Diagnose a candidate W: hermiticity, positivity, trace, and the exact
    linear validity condition W = L_V(W).

    A W passing all four gives normalized, nonnegative joint tables for
    every choice of local instruments, which is what the downstream
    machinery needs. Hermitian, positive, correctly normalized matrices
    that fail only the last check exist: a causal loop is one. A W with a
    non-finite entry, or a real or imaginary part above
    :data:`matrices.MAX_ENTRY` in magnitude, raises :class:`ValidationError`
    instead.
    """
    dims = _normalize_lab_dims(lab_dims)
    return _diagnose(_as_process_matrix(matrix, dims), dims)


def _certified(m: np.ndarray, dims: LabDims) -> bool:
    """True when ``m`` passes all four checks of :func:`validate_process`,
    shown without an eigendecomposition.

    Positivity is certified by one Cholesky factorization of
    H + (PSD_TOL/2)·1, where H = (W + W†)/2 is the matrix whose smallest
    eigenvalue :func:`validate_process` reports. The factorization exists
    only when that eigenvalue is above −PSD_TOL/2, up to its round-off: it
    is backward stable, so the error is a small multiple of eps·‖H‖, which
    is at most 1.5e-14 for a positive W within the dense budget (its norm
    is at most its trace, at most 64). That is far inside the margin of
    PSD_TOL/2 = 5e-11, so a certified W has its smallest eigenvalue inside
    the −PSD_TOL bound. False says only that the certificate failed: it
    may be one of the three other checks, or an eigenvalue in
    (−PSD_TOL, −PSD_TOL/2], which is valid. The caller then runs
    :func:`_diagnose`, whose eigenvalues decide.
    """
    if mx.hermiticity_deviation(m) > mx.HERMITICITY_TOL:
        return False
    if _trace_deviation(m, dims) > PROCESS_TRACE_TOL:
        return False
    shifted = mx.hermitian_part(m)
    shifted.flat[:: m.shape[0] + 1] += mx.PSD_TOL / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return _validity_deviation(m, dims) <= VALIDITY_TOL


def _diagnose(m: np.ndarray, dims: LabDims) -> ProcessDiagnostics:
    """:func:`validate_process` on a matrix already checked by
    :func:`_as_process_matrix` against normalized ``dims``."""
    return ProcessDiagnostics(
        mx.hermiticity_deviation(m),
        mx.min_eigenvalue(m),
        _trace_deviation(m, dims),
        _validity_deviation(m, dims),
    )


def _trace_deviation(m: np.ndarray, dims: LabDims) -> float:
    """|tr W - prod d_out|."""
    return abs(complex(np.trace(m)).real - math.prod(d_out for _, d_out in dims))
