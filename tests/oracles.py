"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles, sharing only
the quaternion matrix types with the package, so that agreement between the
two code paths is meaningful evidence rather than a tautology. Scalar
quaternion arithmetic lives here, not in the package: the package works on
matrices in complex-pair form throughout, and the scalar type is the
entry-by-entry oracle for that form.
"""

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from qvnn.errors import InputError
from qvnn.lkf import LyapunovTrace, window_quad
from qvnn.lmi import (
    DIAG_NAMES,
    GENERAL_NAMES,
    HERMITIAN_NAMES,
    DecisionVars,
    assemble_blocks,
    constraint_rows,
    omega_terms,
    sum_terms,
)
from qvnn.lowering import AffineLmi, StandardSdp
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import (
    HermitianQuatMatrix,
    QuatMatrix,
    hermitian_eigvals,
    mat_vec,
    qv_embed,
)
from qvnn.simulate import (
    _EDGE_SLACK,
    DEFAULT_DIVERGENCE_LIMIT,
    Trajectory,
    activation,
    find_equilibrium,
)

# Allowed relative imaginary residue when collapsing a Hermitian form to a real.
QUADFORM_IMAG_TOL = 1e-10
# Eigenvalues within this relative band of zero make a matrix "degenerate".
DEFINITENESS_TOL = 1e-10


# ---------------------------------------------------------------------------
# Scalar quaternion arithmetic.
#
# A quaternion q = w + x i + y j + z k is stored as four floats. The product
# follows the Hamilton rules
#
#     i^2 = j^2 = k^2 = ijk = -1,
#     ij = -ji = k,   jk = -kj = i,   ik = -ki = j (hence ki = -j),
#
# which makes multiplication noncommutative. Every quaternion also splits into
# an ordered pair of complex numbers, q = (w + x i) + (y + z i) j; that pairing
# is the bridge to the complex-pair matrices of the package.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def from_pair(c1: complex, c2: complex) -> "Quaternion":
        """Recompose from the complex pair (w + x i, y + z i)."""
        return Quaternion(c1.real, c1.imag, c2.real, c2.imag)

    @staticmethod
    def from_real(value: float) -> "Quaternion":
        return Quaternion(float(value), 0.0, 0.0, 0.0)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y + a.y * b.w - a.x * b.z + a.z * b.x,
            a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def modulus(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def decompose(self) -> tuple[complex, complex]:
        """Split into the complex pair (w + x i, y + z i); recompose is bit-exact."""
        return complex(self.w, self.x), complex(self.y, self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def is_close(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (abs(self.w - other.w) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol and abs(self.z - other.z) <= tol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def entry(m: QuatMatrix, r: int, c: int) -> Quaternion:
    return Quaternion.from_pair(complex(m.a1[r, c]), complex(m.a2[r, c]))


def from_entries(entries) -> QuatMatrix:
    """Build from a nested sequence of Quaternion scalars."""
    rows, cols = len(entries), len(entries[0])
    comp = np.empty((4, rows, cols))
    for r in range(rows):
        if len(entries[r]) != cols:
            raise InputError("ragged entry rows")
        for c in range(cols):
            comp[:, r, c] = entries[r][c].components()
    return QuatMatrix(comp[0] + 1j * comp[1], comp[2] + 1j * comp[3])


def quat_zeros(rows: int, cols: int | None = None) -> QuatMatrix:
    """The rows x cols zero quaternion matrix (square by default)."""
    cols = rows if cols is None else cols
    return QuatMatrix(np.zeros((rows, cols), dtype=np.complex128),
                      np.zeros((rows, cols), dtype=np.complex128))


def qv_conj_dot(u: np.ndarray, v: np.ndarray) -> Quaternion:
    """u* v = sum_i conj(u_i) v_i as a quaternion scalar."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.shape[0] != 2:
        raise InputError("pair-form vectors of equal length required")
    # conj(u_i) v_i expanded through (u1 + u2 j)* (v1 + v2 j)
    c1 = np.sum(np.conj(u[0]) * v[0] + u[1] * np.conj(v[1]))
    c2 = np.sum(np.conj(u[0]) * v[1] - u[1] * np.conj(v[0]))
    return Quaternion.from_pair(complex(c1), complex(c2))


def qv_modulus(v: np.ndarray) -> np.ndarray:
    """Entrywise quaternion modulus of a pair-form vector."""
    v = np.asarray(v, dtype=np.complex128)
    return np.sqrt(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)


def quadform(h: HermitianQuatMatrix, v: np.ndarray) -> float:
    """Real value of the Hermitian form v* H v.

    Evaluated in quaternion arithmetic; the i/j/k residue must vanish to
    QUADFORM_IMAG_TOL relative to the form's magnitude.
    """
    s = qv_conj_dot(v, mat_vec(h, v))
    resid = max(abs(s.x), abs(s.y), abs(s.z))
    if resid > QUADFORM_IMAG_TOL * max(1.0, abs(s.w)):
        raise InputError(f"quadratic form has non-real residue {resid:.3e}")
    return s.w


def quat_identity(n: int) -> QuatMatrix:
    """The n x n identity quaternion matrix."""
    return QuatMatrix.from_real(np.eye(n))


def random_quat_matrix(rng: np.random.Generator, rows: int, cols: int | None = None,
                       scale: float = 1.0) -> QuatMatrix:
    cols = rows if cols is None else cols
    comps = rng.standard_normal((4, rows, cols)) * scale
    return QuatMatrix(comps[0] + 1j * comps[1], comps[2] + 1j * comps[3])


def random_hermitian(rng: np.random.Generator, n: int,
                     scale: float = 1.0) -> HermitianQuatMatrix:
    """(G + G*) / 2 for a random G: Hermitian, of either sign."""
    g = random_quat_matrix(rng, n, n, scale)
    s = g + g.H
    return HermitianQuatMatrix(s.a1 * 0.5, s.a2 * 0.5)


def random_hermitian_pd(rng: np.random.Generator, n: int,
                        floor: float = 0.1) -> HermitianQuatMatrix:
    """G G* + floor I for a random G: positive definite."""
    g = random_quat_matrix(rng, n, n)
    p = g @ g.H + quat_identity(n) * floor
    return HermitianQuatMatrix(p.a1, p.a2)


@dataclass(frozen=True)
class DefinitenessReport:
    kind: str  # positive_definite | negative_definite | indefinite | semidefinite_degenerate
    min_eig: float
    max_eig: float


def definiteness(h: HermitianQuatMatrix) -> DefinitenessReport:
    """Classify a Hermitian quaternion matrix through the complex embedding."""
    eigs = hermitian_eigvals(h)
    lo, hi = float(eigs[0]), float(eigs[-1])
    tol = DEFINITENESS_TOL * max(1.0, abs(lo), abs(hi))
    if lo > tol:
        kind = "positive_definite"
    elif hi < -tol:
        kind = "negative_definite"
    elif lo < -tol and hi > tol:
        kind = "indefinite"
    else:
        kind = "semidefinite_degenerate"
    return DefinitenessReport(kind, lo, hi)


def spectral_norm(m: QuatMatrix) -> float:
    """Largest singular value, computed on the complex embedding."""
    if m.a1.size == 0:
        return 0.0
    return float(np.linalg.norm(m.complex_embed(), 2))


def hermitian_sqrt(h: HermitianQuatMatrix) -> HermitianQuatMatrix:
    """Principal square root of a positive semidefinite Hermitian quaternion matrix.

    Computed on the complex embedding; the unique PSD root of the embedding is
    itself the embedding of a quaternion matrix, so the pair can be read back
    off the blocks.
    """
    n = h.rows
    emb = h.complex_embed()
    w, v = np.linalg.eigh(emb)
    scale = max(1.0, float(abs(w[-1])))
    if w[0] < -1e-10 * scale:
        raise InputError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    a1 = (root[:n, :n] + root[n:, n:].conj()) / 2.0
    a2 = -(root[:n, n:] - root[n:, :n].conj()) / 2.0
    out = HermitianQuatMatrix(a1, a2)
    if np.max(np.abs(out.complex_embed() - root)) > 1e-8 * scale:
        raise InputError("square root does not round-trip through the embedding")
    return out


def brute_product(p: QuatMatrix, q: QuatMatrix) -> QuatMatrix:
    """Matrix product computed entry by entry with scalar quaternion arithmetic."""
    rows, inner = p.shape
    inner2, cols = q.shape
    assert inner == inner2
    out = [[Quaternion(0.0, 0.0, 0.0, 0.0) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            acc = Quaternion(0.0, 0.0, 0.0, 0.0)
            for k in range(inner):
                acc = acc + entry(p, r, k) * entry(q, k, c)
            out[r][c] = acc
    return from_entries(out)


def scalar_product_formula(q: Quaternion, p: Quaternion) -> Quaternion:
    """Componentwise Hamilton product, written out term by term."""
    q0, q1, q2, q3 = q.components()
    p0, p1, p2, p3 = p.components()
    return Quaternion(
        q0 * p0 - q1 * p1 - q2 * p2 - q3 * p3,
        q0 * p1 + q1 * p0 + q2 * p3 - q3 * p2,
        q0 * p2 - q1 * p3 + q2 * p0 + q3 * p1,
        q0 * p3 + q1 * p2 - q2 * p1 + q3 * p0,
    )


# ---------------------------------------------------------------------------
# Second, derivation-order assembly of the big stability block matrix.
#
# The packaged assembler transcribes the finished 27-block table. The builder
# below instead accumulates, term group by term group, the quadratic form in
# the augmented vector
#   eta = (x(t), x'(t), x(t-delta), x(t-d1(t)), x(t-d(t)), x(t-d1), x(t-d),
#          f(x(t)), f(x(t-d1(t))), f(x(t-d(t))), int_{t-delta}^t x)
# exactly as the functional derivative bound is derived: the leakage-energy
# derivative, the two integral-majorized terms, the window terms, the two
# convex-combination bounds, the three sector inequalities, and the
# free-weighting identity. Agreement of the two paths is asserted entrywise.
# ---------------------------------------------------------------------------


class _Grid:
    """An 11 x 11 grid of n x n quaternion blocks with additive placement."""

    def __init__(self, n: int):
        self.n = n
        self.cells: dict[tuple[int, int], QuatMatrix] = {}

    def acc(self, i: int, j: int, m: QuatMatrix) -> None:
        key = (i, j)
        self.cells[key] = self.cells[key] + m if key in self.cells else m

    def add(self, i: int, j: int, m: QuatMatrix) -> None:
        # one sesquilinear term eta_i^* M eta_j plus its conjugate transpose
        self.acc(i, j, m)
        if i != j:
            self.acc(j, i, m.H)

    def to_matrix(self) -> HermitianQuatMatrix:
        dim = 11 * self.n
        a1 = np.zeros((dim, dim), dtype=np.complex128)
        a2 = np.zeros((dim, dim), dtype=np.complex128)
        for (i, j), blk in self.cells.items():
            r = slice((i - 1) * self.n, i * self.n)
            c = slice((j - 1) * self.n, j * self.n)
            a1[r, c] += blk.a1
            a2[r, c] += blk.a2
        return HermitianQuatMatrix(a1, a2)


def constraint_matrix(con) -> HermitianQuatMatrix:
    """The whole matrix of a ``lmi.QuatConstraint``: its upper blocks placed
    and mirrored."""
    n = next(iter(con.blocks.values())).rows
    return assemble_blocks(con.num_blocks, n, con.blocks)


def assemble_omega(model: NetworkModel, dv: DecisionVars) -> HermitianQuatMatrix:
    """The packaged Omega: its table of terms, summed and assembled."""
    return assemble_blocks(11, model.n, sum_terms(omega_terms(model), dv))


def derivation_omega(model: NetworkModel, dv: DecisionVars) -> HermitianQuatMatrix:
    n = model.n
    c = QuatMatrix.from_real(np.diag(model.c_diag))
    a, b = model.a_mat, model.b_mat
    delta, d1, d2 = model.delta, model.d1_bound, model.d2_bound
    mu1, mu = model.mu1, model.mu
    g = model.gamma_diag
    p1, p2, p3 = dv.p1, dv.p2, dv.p3
    q1, q2, q3, q4, q5, q6 = dv.q1, dv.q2, dv.q3, dv.q4, dv.q5, dv.q6
    r1, r2, u, s1, s2 = dv.r1, dv.r2, dv.u, dv.s1, dv.s2

    def sector(m):
        return QuatMatrix.from_real(np.diag(g * m * g))

    def diag(m):
        return QuatMatrix.from_real(np.diag(m))

    grid = _Grid(n)

    # leakage-energy derivative: cross terms of (x - C int x)^* P1 (x - C int x)
    grid.add(1, 1, -(p1 @ c) - (c @ p1))
    grid.add(1, 8, p1 @ a)
    grid.add(1, 10, p1 @ b)
    grid.add(1, 11, c @ p1 @ c)
    grid.add(8, 11, -(a.H @ p1 @ c))
    grid.add(10, 11, -(b.H @ p1 @ c))

    # running leakage windows, the double integral majorized by its average
    grid.add(1, 1, p2 + (delta * delta) * p3)
    grid.add(3, 3, -p2)
    grid.add(11, 11, -p3)

    # four sliding windows over the two delay channels
    grid.add(1, 1, q1 + q3 + q5 + q6)
    grid.add(4, 4, -(1.0 - mu1) * q1)
    grid.add(5, 5, -(1.0 - mu) * q3)
    grid.add(6, 6, -q5)
    grid.add(7, 7, -q6)
    grid.add(8, 8, q2 + q4)
    grid.add(9, 9, -(1.0 - mu1) * q2)
    grid.add(10, 10, -(1.0 - mu) * q4)

    # derivative-energy instantaneous term
    grid.add(2, 2, (d1 * d1) * r1 + (d2 * d2) * r2)

    # convex-combination bound on the inner derivative window,
    # quadratic in (x(t), x(t-d1), x(t-d1(t)))
    m15 = [
        [-r1, u.H, r1 - u.H],
        [u, -r1, r1 - u],
        [r1 - u, r1 - u.H, -(2.0 * r1) + u + u.H],
    ]
    for p_idx, i in enumerate((1, 6, 4)):
        for q_idx, j in enumerate((1, 6, 4)):
            grid.acc(i, j, m15[p_idx][q_idx])

    # Jensen on the outer window [t-d, t-d1], which needs no bound on d(t):
    # d2 int x'^* R2 x' >= e^* R2 e with e = x(t-d1) - x(t-d), so the grid
    # gets -e^* R2 e, quadratic in (x(t-d1), x(t-d))
    grid.add(6, 6, -r2)
    grid.add(7, 7, -r2)
    grid.add(6, 7, r2)

    # activation sector inequalities at the three tap points
    grid.add(1, 1, sector(dv.m1))
    grid.add(8, 8, -diag(dv.m1))
    grid.add(4, 4, sector(dv.m2))
    grid.add(9, 9, -diag(dv.m2))
    grid.add(5, 5, sector(dv.m3))
    grid.add(10, 10, -diag(dv.m3))

    # free-weighting identity built from the dynamics residual
    grid.add(2, 2, -(s1 + s1.H))
    grid.add(2, 3, -(s1.H @ c) - s2)
    grid.add(2, 8, s1.H @ a)
    grid.add(2, 10, s1.H @ b)
    grid.add(3, 3, -(c @ s2) - (s2.H @ c))
    grid.add(3, 8, s2.H @ a)
    grid.add(3, 10, s2.H @ b)

    return grid.to_matrix()


def random_model(rng: np.random.Generator, n: int) -> NetworkModel:
    """A structurally valid network with no stability pretensions."""
    d1 = float(rng.uniform(0.2, 1.0))
    d2 = float(rng.uniform(0.05, 0.5))
    return NetworkModel(
        n=n,
        c_diag=rng.uniform(0.5, 4.0, size=n),
        a_mat=random_quat_matrix(rng, n, n, scale=1.5),
        b_mat=random_quat_matrix(rng, n, n, scale=1.5),
        delta=float(rng.uniform(0.02, 0.6)),
        d1_bound=d1,
        d2_bound=d2,
        mu1=float(rng.uniform(0.0, 0.45)),
        mu2=float(rng.uniform(0.0, 0.45)),
        gamma_diag=rng.uniform(0.1, 2.0, size=n),
        delay1=DelaySpec(offset=d1),
        delay2=DelaySpec(offset=d2),
    )


def shrunk_random_model(n, scale, seed):
    """``random_model`` with A and B times scale and delta = 0.03."""
    model = random_model(np.random.default_rng(1000 * n + seed), n)

    def shrink(q):
        return QuatMatrix(scale * q.a1, scale * q.a2)

    return dataclasses.replace(model, a_mat=shrink(model.a_mat),
                               b_mat=shrink(model.b_mat), delta=0.03)


def random_decision_vars(rng: np.random.Generator, n: int) -> DecisionVars:
    """Unconstrained random variables; assembly is affine so signs are free."""
    herms = {name: random_hermitian(rng, n) for name in HERMITIAN_NAMES}
    gens = {name: random_quat_matrix(rng, n, n) for name in GENERAL_NAMES}
    return DecisionVars(
        m1=rng.normal(size=n), m2=rng.normal(size=n), m3=rng.normal(size=n),
        **herms, **gens)


# ---------------------------------------------------------------------------
# The flat-vector layout seen from outside: ``DecisionVars.from_vector``
# defines it, and everything below is derived from its unit images.
# ---------------------------------------------------------------------------


def real_parts(dv: DecisionVars) -> np.ndarray:
    """Every real number stored in ``dv``, on the last axis (batch axes kept):
    the diagonals, then re/im of a1 and of a2 of every matrix."""
    batch = dv.m1.shape[:-1]
    parts = [getattr(dv, name) for name in DIAG_NAMES]
    for name in HERMITIAN_NAMES + GENERAL_NAMES:
        m = getattr(dv, name)
        parts += [m.a1.real, m.a1.imag, m.a2.real, m.a2.imag]
    return np.concatenate([p.reshape(batch + (-1,)) for p in parts], axis=-1)


def part_labels(n: int) -> list:
    """(matrix, component, row, col) of every entry of ``real_parts``."""
    labels = [(name, "diag", i, i) for name in DIAG_NAMES for i in range(n)]
    for name in HERMITIAN_NAMES + GENERAL_NAMES:
        for comp in ("a1.re", "a1.im", "a2.re", "a2.im"):
            labels += [(name, comp, i, j) for i in range(n) for j in range(n)]
    return labels


def unit_images(n: int) -> np.ndarray:
    """(num_scalars, len(real_parts)): the real parts driven by each scalar."""
    return real_parts(DecisionVars.from_vector(
        np.eye(DecisionVars.num_scalars(n)), n))


def to_vector(dv: DecisionVars) -> np.ndarray:
    """The flat vector of ``dv``, the inverse of ``from_vector`` on valid
    variables. The unit images are orthogonal, so each scalar is the
    projection of ``dv`` on its image; the entries are 0 and +-1, so the
    projection is exact."""
    units = unit_images(dv.n)
    return real_parts(dv) @ units.T / np.sum(units ** 2, axis=1)


def scaled(dv: DecisionVars, factor: float) -> DecisionVars:
    return DecisionVars.from_vector(factor * to_vector(dv), dv.n)


# ---------------------------------------------------------------------------
# A dense Schur complement over the full complex coefficient stacks, and a
# projection-based feasibility search over the full real (num_vars, 2d, 2d)
# stacks, as references for the structured solver.
# ---------------------------------------------------------------------------


def affine_lmi(name: str, coeffs: np.ndarray) -> AffineLmi:
    """The constraint sum_i x_i chi(C_i) > 0 from the dense stack of complex
    C_i, (num_vars, d, d): chi(C + 0 j) = diag(C, conj(C)) has side 2 d, and
    its top d rows [C, 0] are stored."""
    num, d = len(coeffs), coeffs.shape[1]
    tops = np.concatenate([coeffs, np.zeros_like(coeffs)], axis=2)
    var, entry = np.nonzero(tops.reshape(num, -1))
    return AffineLmi(name, 2 * d, var, entry, tops.reshape(num, -1)[var, entry])


def coeff_stack(lmi: AffineLmi, num_vars: int) -> np.ndarray:
    """The dense complex (num_vars, d, d) stack of A_i of one constraint: the
    stored rows p < N = d / 2, and below them A[N + p, N + q] = conj(A[p, q])
    and A[N + p, q] = -conj(A[p, N + q])."""
    d, half = lmi.dim, lmi.dim // 2
    a = np.zeros((num_vars, d * d), dtype=complex)
    a[lmi.var, lmi.entry] = lmi.value
    a = a.reshape(num_vars, d, d)
    top = a[:, :half]
    a[:, half:] = np.concatenate([-top[:, :, half:], top[:, :, :half]],
                                 axis=2).conj()
    return a


def lmi_value(lmi: AffineLmi, x: np.ndarray) -> np.ndarray:
    """The complex Hermitian matrix sum_i x_i A_i of one lowered constraint."""
    x = np.asarray(x, dtype=float)
    return np.tensordot(x, coeff_stack(lmi, len(x)), axes=1)


def real_coeffs(sdp: StandardSdp) -> list[np.ndarray]:
    """The dense real (num_vars, 2d, 2d) coefficient stack of every
    constraint, each complex A_i as its real image [[Re, -Im], [Im, Re]]."""
    stacks = []
    for lmi in sdp.lmis:
        a = coeff_stack(lmi, sdp.num_vars)
        stacks.append(np.block([[a.real, -a.imag], [a.imag, a.real]]))
    return stacks


def dense_schur(sdp: StandardSdp, ws: list[np.ndarray],
                weight: float = 0.0) -> np.ndarray:
    """The Schur complement Re tr(W B_i W B_j) of ``qvnn.sdp``, summed over
    the constraints, at one positive definite W per constraint, plus
    weight c_i c_j for the trace cone, c_i = sum_k tr B_ki for i < m and
    c_m = 0, and 1 on the diagonal of a variable in no constraint.

    B_i is the complex coefficient of x_i for i < m and -I, that of the
    margin t, for i = m. Every block forms W B_i for all variables, active
    or not.
    """
    m = sdp.num_vars
    schur = np.zeros((m + 1, m + 1))
    c, used = np.zeros(m + 1), np.zeros(m + 1, dtype=bool)
    for lmi, w in zip(sdp.lmis, ws):
        a = coeff_stack(lmi, m)
        c[:m] += np.trace(a, axis1=1, axis2=2).real
        used[:m] |= np.any(a != 0.0, axis=(1, 2))
        b = np.concatenate([a, -np.eye(lmi.dim)[None]], axis=0)
        wb = np.matmul(w[None], b)                    # W B_i, batched
        # tr(W B_i W B_j) = sum over p, q of (W B_i)[p, q] (W B_j)[q, p]
        schur += (wb.reshape(m + 1, -1)
                  @ wb.transpose(0, 2, 1).reshape(m + 1, -1).T).real
    idle = np.flatnonzero(~used[:m])
    schur[idle, idle] = 1.0
    return schur + weight * np.outer(c, c)


@dataclass
class ProjectionResult:
    found: bool
    x: np.ndarray
    margin: float
    iterations: int


def alternating_projection_oracle(sdp: StandardSdp, target_margin: float,
                                  max_iters: int = 400,
                                  seed: int = 0) -> ProjectionResult:
    """Second-opinion feasibility search by alternating projections.

    Alternates between the eigenvalue clip of every constraint block onto
    {S : S >= target_margin I} and the least-squares preimage in x. Declares
    success only when the raw constraint margin reaches half the target, so a
    positive answer always survives independent re-verification at that level.
    """
    import scipy.linalg

    if target_margin <= 0:
        raise InputError("target margin must be positive")
    coeffs = real_coeffs(sdp)
    m = sdp.num_vars
    if m == 0:
        # with no variables every constraint is the zero matrix
        return ProjectionResult(False, np.zeros(0), 0.0, 0)
    em = np.concatenate([a.reshape(m, -1) for a in coeffs], axis=1)   # (m, D)
    gram = em @ em.T
    # tiny ridge: zero-coefficient variables would otherwise make gram singular
    gram += 1e-12 * max(1.0, float(np.trace(gram)) / m) * np.eye(m)
    factor = scipy.linalg.cho_factor(gram, check_finite=False)
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(m)
    margin = -np.inf
    for it in range(1, max_iters + 1):
        projected = []
        for a in coeffs:
            w, v = np.linalg.eigh(np.tensordot(x, a, axes=1))
            projected.append((v * np.maximum(w, target_margin)) @ v.T)
        y = np.concatenate([p.ravel() for p in projected])
        x = scipy.linalg.cho_solve(factor, em @ y, check_finite=False)
        margin = min(float(np.linalg.eigvalsh(
            np.tensordot(x, a, axes=1))[0]) for a in coeffs)
        if margin >= 0.5 * target_margin:
            return ProjectionResult(True, x, margin, it)
    return ProjectionResult(False, x, margin, max_iters)


# ---------------------------------------------------------------------------
# Exact positive definiteness. Every float is a dyadic rational, so the
# floats of a certificate, and every sum and product of them, are exact as
# Fractions, with nothing left to round (Peyrl & Parrilo, Theor. Comput.
# Sci. 409, 2008, round a certificate to such numbers first). A symmetric
# matrix of dyadic rationals times its largest denominator is a matrix of
# integers, whose leading principal minors fraction-free elimination forms
# in Python integers (Bareiss, Math. Comp. 22, 1968), and Sylvester's
# criterion decides its definiteness with no rounding at all, independently
# of the Rump shift.
# ---------------------------------------------------------------------------


def bareiss_positive_definite(re, im) -> bool:
    """Whether the Hermitian matrix re + i im of Gaussian integers is
    positive definite. Fraction-free elimination works in any integral
    domain: after step k the pivot is the leading principal minor of order
    k + 1, real for a Hermitian matrix, and every division is exact. The
    steps keep the matrix Hermitian, so only its upper triangle is updated,
    with a_ik = conj(a_ki)."""
    re, im = [list(row) for row in re], [list(row) for row in im]
    prev = 1
    for k, (top_re, top_im) in enumerate(zip(re, im)):
        pivot = top_re[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(re)):
            row_re, row_im = re[i], im[i]
            ar, ai = top_re[i], -top_im[i]
            for j in range(i, len(re)):
                tr, ti = top_re[j], top_im[j]
                row_re[j] = (row_re[j] * pivot - ar * tr + ai * ti) // prev
                row_im[j] = (row_im[j] * pivot - ar * ti - ai * tr) // prev
        prev = pivot
    return True


def exact_positive_definite(re, im, floor=0.0) -> bool:
    """Whether the Hermitian matrix re + i im of dyadic rationals (Fractions,
    ints or floats) less ``floor`` I is positive definite, exactly."""
    parts = [[[Fraction(v) for v in row] for row in part] for part in (re, im)]
    for k, row in enumerate(parts[0]):
        row[k] -= Fraction(floor)
    scale = max(f.denominator for part in parts for row in part for f in row)
    assert scale & (scale - 1) == 0, "not a matrix of dyadic rationals"
    return bareiss_positive_definite(*([[int(f * scale) for f in row]
                                        for row in part] for part in parts))


def exact_lmi_image(lmi: AffineLmi, x: np.ndarray, t: float) -> tuple:
    """(Re, Im) of sum_i x_i A_i - t I of one lowered constraint, in exact
    arithmetic from its floats: the stored rows p < N, and below them
    A[N + p, N + q] = conj(A[p, q]) and A[N + p, q] = -conj(A[p, N + q])."""
    d, half = lmi.dim, lmi.dim // 2
    re = [[Fraction(0)] * d for _ in range(d)]
    im = [[Fraction(0)] * d for _ in range(d)]
    for v, e, a in zip(lmi.var, lmi.entry, lmi.value):
        p, q = divmod(int(e), d)
        xr, ar, ai = Fraction(float(x[v])), Fraction(a.real), Fraction(a.imag)
        below, sign = (q + half, 1) if q < half else (q - half, -1)
        re[p][q] += xr * ar
        im[p][q] += xr * ai
        re[half + p][below] += sign * xr * ar
        im[half + p][below] -= sign * xr * ai
    for k in range(d):
        re[k][k] -= Fraction(t)
    return re, im


def _exact_operand(x) -> np.ndarray:
    """The real image [[Re chi, -Im chi], [Im chi, Re chi]] of an operand's
    complex image chi, as Fractions: a real diagonal's vector four times on
    a diagonal."""
    if isinstance(x, np.ndarray):
        return np.diag(np.array([Fraction(float(v)) for v in np.tile(x, 4)],
                                dtype=object))
    chi = x.complex_embed()
    real = np.block([[chi.real, -chi.imag], [chi.imag, chi.real]])
    return np.vectorize(Fraction, otypes=[object])(real)


def exact_constraints(model: NetworkModel, dv: DecisionVars) -> dict:
    """(Re, Im) of the complex image of every constraint of the criterion at
    dv, up to a symmetric permutation, in exact arithmetic from the floats
    of its table and of dv. Block (i, j) sums its rows' kappa L X R over the
    operands' real images, which multiply as the matrices do; the lower
    blocks are their transposes and the diagonal blocks their symmetric
    part, as ``assemble_blocks`` takes them. The complex image of each
    block is then the first 2 n columns of its real image."""
    side, half = 4 * dv.n, 2 * dv.n
    out = {}
    for name, size, rows in constraint_rows(model):
        mat = np.zeros((size * side, size * side), dtype=object)
        for (i, j), kappa, left, var, right in rows:
            x = _exact_operand(getattr(dv, var.rstrip("*")))
            x = x.T if var.endswith("*") else x
            if left is not None:
                x = _exact_operand(left) @ x
            if right is not None:
                x = x @ _exact_operand(right)
            r, c = (slice((k - 1) * side, k * side) for k in (i, j))
            mat[r, c] += Fraction(kappa) * x
            if i != j:
                mat[c, r] += Fraction(kappa) * x.T
        mat = (mat + mat.T) * Fraction(1, 2)
        top = np.add.outer(side * np.arange(size), np.arange(half)).ravel()
        out[name] = (mat[np.ix_(top, top)].tolist(),
                     mat[np.ix_(top + half, top)].tolist())
    return out


# ---------------------------------------------------------------------------
# The scalar functional evaluator that ``lkf_trace`` replaced with window
# sums for every sample at once: one ``grid_quad`` call per window and
# sample, with scipy's composite Simpson on the whole cells.
# ---------------------------------------------------------------------------

_LKF_EDGE = 1e-9


def grid_quad(times: np.ndarray, values: np.ndarray, a: float, b: float,
              weight=None):
    """Integrate uniformly sampled values over [a, b] inside the grid span.

    ``values`` may be real or complex with any trailing shape; integration is
    along axis 0. Whole cells use composite Simpson; fractional end cells use
    the trapezoid rule on linearly interpolated endpoint values. ``weight``,
    if given, maps grid times to a factor on the integrand; only the nodes
    that the rule reads are weighted.
    """
    if b < a:
        raise InputError("integration bounds are reversed")
    step = times[1] - times[0]
    lo, hi = times[0], times[-1]
    if (a < lo - _LKF_EDGE * max(1.0, abs(lo))
            or b > hi + _LKF_EDGE * max(1.0, abs(hi))):
        raise InputError(f"window [{a:.6g}, {b:.6g}] is outside the sampled "
                         f"span [{lo:.6g}, {hi:.6g}]")
    pa = (a - lo) / step
    pb = (b - lo) / step
    last = len(times) - 1

    def at(rows):
        vals = values[rows]
        return vals if weight is None else vals * weight(times[rows])

    def interp(pos: float):
        cell = min(max(int(np.floor(pos)), 0), last - 1)
        frac = pos - cell
        return (1.0 - frac) * at(cell) + frac * at(cell + 1)

    i0 = int(np.ceil(pa - 1e-9))
    i1 = int(np.floor(pb + 1e-9))
    i0 = min(max(i0, 0), last)
    i1 = min(max(i1, 0), last)
    if i1 <= i0:
        return (b - a) * (interp(pa) + interp(pb)) / 2.0
    from scipy.integrate import simpson

    core = simpson(at(slice(i0, i1 + 1)), dx=step, axis=0)
    wa = (i0 - pa) * step
    if wa > _LKF_EDGE * step:
        core = core + wa * (interp(pa) + at(i0)) / 2.0
    wb = (pb - i1) * step
    if wb > _LKF_EDGE * step:
        core = core + wb * (at(i1) + interp(pb)) / 2.0
    return core


@dataclass
class LkfSample:
    t: float
    v1: float
    v2: float
    v3: float
    v4: float

    @property
    def total(self) -> float:
        return self.v1 + self.v2 + self.v3 + self.v4


def _grid_forms(matrix: HermitianQuatMatrix, states: np.ndarray) -> np.ndarray:
    chi = matrix.complex_embed()
    emb = qv_embed(states)
    return np.einsum("ni,ij,nj->n", np.conj(emb), chi, emb).real


class LkfEvaluator:
    """Precomputes pointwise quadratic forms over one trajectory's grid,
    for the trajectory's own model. Forms over one window are integrated in
    one ``grid_quad`` call: summed where they share a weight, as columns
    where they do not."""

    def __init__(self, traj: Trajectory, dv: DecisionVars):
        model = traj.model
        self.traj = traj
        self.model = model
        self.dv = dv
        # the grid reaches back over the lookback window, where x is the
        # start; Simpson panels that straddle t = 0 read these nodes too
        step = traj.step
        self.grid = traj.times
        back = max(int(np.ceil(model.lookback() / step - _LKF_EDGE)), 1)
        self.times = np.concatenate([-back * step + step * np.arange(back),
                                     self.grid])
        states = np.concatenate([[traj.values[0]] * back, traj.values])
        base = activation(traj.rest, model.gamma_diag)
        f_states = (activation((states + traj.rest[None])
                               .reshape(-1, model.n), model.gamma_diag)
                    .reshape(states.shape) - base[None])
        self.states = states
        x = {name: _grid_forms(getattr(dv, name), states)
             for name in ("p2", "p3", "q1", "q3", "q5", "q6")}
        f = {name: _grid_forms(getattr(dv, name), f_states)
             for name in ("q2", "q4")}
        r1, self.r2 = (_grid_forms(getattr(dv, name), traj.derivs)
                       for name in ("r1", "r2"))
        self.p23 = np.stack([x["p2"], x["p3"]], axis=1)
        self.q12, self.q34 = x["q1"] + f["q2"], x["q3"] + f["q4"]
        self.q5, self.q6 = x["q5"], x["q6"]
        self.r12 = np.stack([r1, self.r2], axis=1)
        self.p1_chi = dv.p1.complex_embed()

    def _deriv_quad(self, values, a: float, b: float, weight=None):
        """Integral of derivative forms over [a, b]; xdot is 0 before t=0."""
        a = max(a, 0.0)
        if b <= a:
            return 0.0
        return np.sum(grid_quad(self.grid, values, a, b, weight))

    def __call__(self, node: int) -> LkfSample:
        """The functional at grid node ``node`` of the trajectory."""
        model = self.model
        t = float(self.grid[node])
        delta = model.delta
        d1b, d2b, db = model.d1_bound, model.d2_bound, model.d_bound
        d1t = model.delay1(t)
        dt = d1t + model.delay2(t)

        x_t = self.traj.values[node]
        ix = grid_quad(self.times, self.states, t - delta, t)
        v_vec = x_t - model.c_diag[None, :] * ix
        emb = qv_embed(v_vec)
        v1 = float((np.conj(emb) @ self.p1_chi @ emb).real)

        # P2, and P3 weighted by delta (s - (t - delta))
        v2 = float(np.sum(grid_quad(
            self.times, self.p23, t - delta, t,
            weight=lambda s: np.stack([np.ones_like(s),
                                       delta * (s - (t - delta))], axis=-1))))

        v3 = float(grid_quad(self.times, self.q12, t - d1t, t))
        v3 += float(grid_quad(self.times, self.q34, t - dt, t))
        v3 += float(grid_quad(self.times, self.q5, t - d1b, t))
        v3 += float(grid_quad(self.times, self.q6, t - db, t))

        # R1 weighted by d1 (s - (t - d1)) and R2 by d2^2 over [t - d1, t],
        # and R2 by d2 (s - (t - d)) over [t - d, t - d1]
        v4 = float(self._deriv_quad(
            self.r12, t - d1b, t,
            weight=lambda s: np.stack([d1b * (s - (t - d1b)),
                                       np.full_like(s, d2b * d2b)], axis=-1)))
        if d2b > 0:
            v4 += d2b * float(self._deriv_quad(self.r2, t - db, t - d1b,
                                               weight=lambda s: s - (t - db)))
        return LkfSample(t=t, v1=v1, v2=v2, v3=v3, v4=v4)


def serial_lkf_trace(traj, dv: DecisionVars, stride: int) -> LyapunovTrace:
    """The functional at every ``stride``-th grid node, one sample at a time."""
    ev = LkfEvaluator(traj, dv)
    samples = [ev(node) for node in range(0, len(traj.times), stride)]
    return LyapunovTrace(traj.times[::stride],
                         *(np.array([getattr(s, part) for s in samples])
                           for part in ("v1", "v2", "v3", "v4")))


# ---------------------------------------------------------------------------
# The two lemmas the criterion rests on, checked on random instances: the
# quaternion Jensen inequality
#
#     (int omega)^* M (int omega)  <=  (b - a) * int omega^* M omega,
#
# and the reciprocally convex bound
#
#     min_{alpha in (0,1)} [ (1/alpha) xi* W1* P W1 xi
#                            + (1/(1-alpha)) xi* W2* P W2 xi ]
#         >=  (W1 xi, W2 xi)^* [[P, X], [X*, P]] (W1 xi, W2 xi),
#
# valid whenever the coupled block matrix is positive semidefinite. Both
# oracles return gap = LHS-bound minus RHS (nonnegative up to float noise
# when the hypotheses hold). The Jensen gap evaluates both sides with the
# same Simpson weights (``lkf.window_quad`` over the path's whole span, the
# rule of ``scipy.integrate.simpson``; every weight is positive), which makes
# the discrete gap itself a Cauchy-Schwarz expression in the weighted
# samples: nonnegativity then holds for the computed numbers, not just in
# the continuum limit.
# ---------------------------------------------------------------------------

PSD_CHECK_TOL = 1e-10
ALPHA_GRID_STEP = 1e-3


@dataclass
class VectorPath:
    """Piecewise-linear quaternion n-vector path sampled on a uniform grid."""

    a: float
    b: float
    samples: np.ndarray       # (num_samples, 2, n) complex pairs

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.b <= self.a:
            raise InputError("path interval must have b > a")
        if self.samples.ndim != 3 or self.samples.shape[1] != 2:
            raise InputError("path samples must be shaped (num_samples, 2, n)")
        if len(self.samples) < 2:
            raise InputError("a path needs at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise InputError("path samples must be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[2]


def jensen_gap(path: VectorPath, m: HermitianQuatMatrix) -> float:
    """RHS - LHS of the integral inequality, by shared-weight Simpson sums."""
    if m.rows != path.n:
        raise InputError("matrix dimension does not match the path")
    if definiteness(m).kind != "positive_definite":
        raise InputError("the weight matrix must be positive definite")
    emb = qv_embed(path.samples)
    chi = m.complex_embed()
    pointwise = np.einsum("si,ij,sj->s", np.conj(emb), chi, emb)
    resid = float(np.max(np.abs(pointwise.imag)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(pointwise.real)))):
        raise InputError(f"quadratic form has imaginary residue {resid:.3e}")
    times = np.linspace(path.a, path.b, len(path.samples))
    rhs = (path.b - path.a) * float(window_quad(times, pointwise.real,
                                                path.a, path.b)[0])
    integral = window_quad(times, emb, path.a, path.b)[0]
    lhs_c = np.conj(integral) @ chi @ integral
    return rhs - float(lhs_c.real)


def random_path(n: int, seed: int, num_samples: int = 101) -> VectorPath:
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-2.0, 1.0))
    b = a + float(rng.uniform(0.2, 3.0))
    parts = rng.uniform(-1.0, 1.0, size=(num_samples, 4, n))
    samples = np.stack([parts[:, 0] + 1j * parts[:, 1],
                        parts[:, 2] + 1j * parts[:, 3]], axis=1)
    return VectorPath(a=a, b=b, samples=samples)


@dataclass
class RcInstance:
    """One reciprocally-convex-inequality instance with PSD coupling."""

    xi: np.ndarray            # (2, m) quaternion vector pair
    w1: QuatMatrix            # n x m
    w2: QuatMatrix            # n x m
    p: HermitianQuatMatrix    # n x n, positive definite
    x_coupling: QuatMatrix    # n x n
    _coupling_eig: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        n = self.p.rows
        if self.w1.shape != self.w2.shape or self.w1.rows != n:
            raise InputError("W factors must both be n x m")
        if self.x_coupling.shape != (n, n):
            raise InputError("coupling must be n x n")
        if self.xi.shape != (2, self.w1.cols):
            raise InputError("xi must be a (2, m) pair")
        block = _coupling_block(self.p, self.x_coupling)
        eigs = hermitian_eigvals(block)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        self._coupling_eig = float(eigs[0])
        if self._coupling_eig < -PSD_CHECK_TOL * scale:
            raise InputError("coupling block matrix is not positive "
                             f"semidefinite (min eig {self._coupling_eig:.3e})")

    def alpha_grid(self) -> np.ndarray:
        return np.arange(ALPHA_GRID_STEP, 1.0 - ALPHA_GRID_STEP / 2.0,
                         ALPHA_GRID_STEP)


def _coupling_block(p: HermitianQuatMatrix, x: QuatMatrix) -> HermitianQuatMatrix:
    """[[P, X], [X*, P]]."""
    return assemble_blocks(2, p.rows, {(1, 1): p, (1, 2): x, (2, 2): p})


def _form(p_chi: np.ndarray, vec_pair: np.ndarray) -> float:
    emb = qv_embed(vec_pair)
    val = np.conj(emb) @ p_chi @ emb
    return float(val.real)


def rc_gap(inst: RcInstance) -> float:
    """min over the alpha grid of the split form, minus the coupled form."""
    y1 = mat_vec(inst.w1, inst.xi)
    y2 = mat_vec(inst.w2, inst.xi)
    p_chi = inst.p.complex_embed()
    q1 = _form(p_chi, y1)
    q2 = _form(p_chi, y2)
    alphas = inst.alpha_grid()
    lhs = float(np.min(q1 / alphas + q2 / (1.0 - alphas)))
    block_chi = _coupling_block(inst.p, inst.x_coupling).complex_embed()
    stacked = qv_embed(np.concatenate([y1, y2], axis=1))
    rhs = float((np.conj(stacked) @ block_chi @ stacked).real)
    return lhs - rhs


def random_rc_instance(n: int, m: int, seed: int,
                       equality_case: bool = False) -> RcInstance:
    """Schur-sampled instance: X = P^{1/2} K P^{1/2} with ||K|| <= 1 keeps the
    coupling block positive semidefinite by construction."""
    rng = np.random.default_rng(seed)
    p = random_hermitian_pd(rng, n, floor=0.3)
    if equality_case:
        w1 = random_quat_matrix(rng, n, m)
        w2 = w1
        x = QuatMatrix(p.a1.copy(), p.a2.copy())
    else:
        w1 = random_quat_matrix(rng, n, m)
        w2 = random_quat_matrix(rng, n, m)
        k = random_quat_matrix(rng, n, n)
        norm = spectral_norm(k)
        shrink = float(rng.uniform(0.1, 0.999))
        k = QuatMatrix(k.a1 * (shrink / norm), k.a2 * (shrink / norm))
        root = hermitian_sqrt(p)
        x = root @ k @ root
    parts = rng.uniform(-1.0, 1.0, size=(4, m))
    xi = np.stack([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    return RcInstance(xi=xi, w1=w1, w2=w2, p=p, x_coupling=x)


def xi_convexity_violation(inst: RcInstance) -> float:
    """Most negative second difference of Xi(alpha) on the grid (>= 0 ideal)."""
    p_chi = inst.p.complex_embed()
    q1 = _form(p_chi, mat_vec(inst.w1, inst.xi))
    q2 = _form(p_chi, mat_vec(inst.w2, inst.xi))
    vals = q1 / inst.alpha_grid() + q2 / (1.0 - inst.alpha_grid())
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return float(np.min(second))


# ---------------------------------------------------------------------------
# The per-member integration loop that ``qvnn.simulate.integrate`` replaced:
# one history at a time, the delay lookups evaluated by closures at every
# right-hand side, the constant history stored as nodes of its own. The
# batched loop must reproduce it per member.
# ---------------------------------------------------------------------------


class _HistoryBuffer:
    """Uniform-grid cubic Hermite interpolant over one time interval."""

    def __init__(self, t0: float, step: float, values: np.ndarray,
                 derivs: np.ndarray):
        self.t0 = float(t0)
        self.step = float(step)
        self.values = values
        self.derivs = derivs

    def __call__(self, u: float) -> np.ndarray:
        offset = (u - self.t0) / self.step
        last = len(self.values) - 1
        if offset < -_EDGE_SLACK or offset > last + _EDGE_SLACK:
            raise InputError(f"lookup at t={u:.6g} is outside the stored "
                             f"interval")
        if last == 0:
            return self.values[0]
        cell = min(max(int(math.floor(offset)), 0), last - 1)
        tau = offset - cell
        h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
        h10 = tau * (1.0 - tau) ** 2
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return (h00 * self.values[cell] + h01 * self.values[cell + 1]
                + self.step * (h10 * self.derivs[cell]
                               + h11 * self.derivs[cell + 1]))


class DivergenceError(RuntimeError):
    """The serial loop's state passed the divergence limit at ``time``."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def _rhs_factory(model: NetworkModel, rest):
    """The right-hand side of the deviation from ``rest``, where the input
    cancels; with ``rest`` None, that of the original coordinates."""
    c = model.c_diag[None, :]
    a_mat = model.a_mat
    b_mat = model.b_mat
    gains = model.gamma_diag
    u_ext = 0.0
    if rest is None:
        if model.external_input is not None:
            u_ext = model.external_input
        act = lambda pair: activation(pair, gains)
    else:
        base = activation(rest, gains)

        def act(pair):
            return activation(pair + rest, gains) - base

    def rhs(t: float, state: np.ndarray, lookup) -> np.ndarray:
        x_leak = lookup(t - model.delta)
        x_d = lookup(t - model.delay1(t) - model.delay2(t))
        return (-c * x_leak
                + mat_vec(a_mat, act(state))
                + mat_vec(b_mat, act(x_d))
                + u_ext)
    return rhs


def serial_integrate(model: NetworkModel, start, horizon: float, step: float,
                     divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT,
                     original: bool = False) -> Trajectory:
    """Integrate the delayed dynamics from a constant (2, n) initial state.

    Like ``integrate``, a driven network is integrated in the deviation from
    its rest point. ``original`` integrates x itself, input included, as the
    reference that a deviation run plus the rest point must reproduce; its
    trajectory's rest is then the origin.

    Raises DivergenceError (carrying the offending time) if the state norm
    passes ``divergence_limit`` or stops being finite.
    """
    if step <= 0 or horizon <= 0:
        raise InputError("horizon and step must be positive")
    start = np.asarray(start, dtype=complex)
    if start.shape != (2, model.n):
        raise InputError("the start must be a (2, n) state pair")
    lookback = model.lookback()
    hist_steps = max(int(math.ceil(lookback / step - _EDGE_SLACK)), 1)
    hist_values = np.array([start] * (hist_steps + 1))
    hist_seg = _HistoryBuffer(-hist_steps * step, step, hist_values,
                              np.zeros_like(hist_values))

    steps = int(math.ceil(horizon / step - _EDGE_SLACK))
    values = np.zeros((steps + 1, 2, model.n), dtype=complex)
    derivs = np.zeros_like(values)
    values[0] = hist_values[-1]
    driven = model.external_input is not None and np.any(model.external_input)
    rest = find_equilibrium(model) if driven and not original else None
    rhs = _rhs_factory(model, rest)

    committed = 0  # index of the last committed node

    def make_lookup(stage_t: float, stage_y: np.ndarray):
        t_end = committed * step

        def lookup(u: float) -> np.ndarray:
            if u < 0.0:
                return hist_seg(u)
            if u <= t_end + _EDGE_SLACK:
                return _HistoryBuffer(0.0, step, values[:committed + 1],
                                      derivs[:committed + 1])(u)
            if abs(u - stage_t) <= _EDGE_SLACK:
                return stage_y
            # argument inside the uncommitted step: linear blend
            w = (u - t_end) / (stage_t - t_end)
            return (1.0 - w) * values[committed] + w * stage_y
        return lookup

    def eval_rhs(stage_t: float, stage_y: np.ndarray) -> np.ndarray:
        return rhs(stage_t, stage_y, make_lookup(stage_t, stage_y))

    derivs[0] = eval_rhs(0.0, values[0])
    for k in range(steps):
        t = k * step
        y = values[k]
        k1 = derivs[k]
        k2 = eval_rhs(t + step / 2.0, y + (step / 2.0) * k1)
        k3 = eval_rhs(t + step / 2.0, y + (step / 2.0) * k2)
        k4 = eval_rhs(t + step, y + step * k3)
        y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (k + 1) * step
        if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > divergence_limit:
            raise DivergenceError(
                f"state norm exceeded {divergence_limit:g} at t={t_next:.6g}",
                time=t_next)
        values[k + 1] = y_next
        # the new node's derivative is its final stage: like the others, it
        # reads only nodes 0..k, and takes y_next as its stage state
        derivs[k + 1] = eval_rhs(t_next, y_next)
        committed = k + 1

    return Trajectory(model=model, step=step, values=values, derivs=derivs,
                      rest=np.zeros_like(start) if rest is None else rest)


# ---------------------------------------------------------------------------
# The row-by-row CSV writers that ``qvnn simulate`` and ``qvnn certify
# --diagnostics`` replaced with block writes. The files must stay
# byte-identical.
# ---------------------------------------------------------------------------


def write_trajectory_csv_rows(path: Path, traj) -> None:
    n = traj.values.shape[2]
    header = ["time"]
    for j in range(n):
        header += [f"n{j+1}_{c}" for c in ("w", "x", "y", "z")]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, val in zip(traj.times, traj.values):
            row = [f"{t:.6f}"]
            for j in range(n):
                row += [f"{val[0, j].real:.9e}", f"{val[0, j].imag:.9e}",
                        f"{val[1, j].real:.9e}", f"{val[1, j].imag:.9e}"]
            writer.writerow(row)


def write_diagnostics_csv_rows(path: Path, trace) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "t", "bound", "gap", "primal_residual",
                         "primal_step", "dual_step", "min_eig"])
        for rec in trace:
            writer.writerow([rec.iteration, f"{rec.t:.12e}", f"{rec.bound:.12e}",
                             f"{rec.gap:.6e}", f"{rec.primal_residual:.6e}",
                             f"{rec.primal_step:.6e}", f"{rec.dual_step:.6e}",
                             f"{rec.min_eig:.12e}"])


def write_summary_csv_rows(path: Path, entries) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "status", "final_sup", "peak",
                         "time_to_threshold", "envelope_bounded"])
        for entry in entries:
            writer.writerow([entry["seed"], entry["status"],
                             entry.get("final_sup", ""),
                             entry.get("peak", ""),
                             entry.get("time_to_threshold", ""),
                             entry.get("envelope_bounded", "")])


def write_lkf_csv_rows(path: Path, trace) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "v1", "v2", "v3", "v4", "v_total"])
        for i, t in enumerate(trace.times):
            writer.writerow([f"{t:.6f}", f"{trace.v1[i]:.9e}",
                             f"{trace.v2[i]:.9e}", f"{trace.v3[i]:.9e}",
                             f"{trace.v4[i]:.9e}", f"{trace.total[i]:.9e}"])
