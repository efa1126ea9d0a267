"""Assembly of the delay-dependent stability criterion as quaternion LMIs.

The criterion is feasibility of three strict matrix inequalities in 18
quaternion decision matrices: two positivity couplings

    [[R1, U], [U*, R1]] > 0,      [[R2, V], [V*, R2]] > 0,

and an 11 x 11 block matrix Omega < 0, listed as -Omega > 0 so that every
constraint reads "> 0". Its rows/columns correspond to the augmented state

    (x(t), x'(t), x(t - delta), x(t - d1(t)), x(t - d(t)), x(t - d1),
     x(t - d), f(x(t)), f(x(t - d1(t))), f(x(t - d(t))), int_{t-delta}^t x).

M1, M2, M3 are positive diagonal; P1..P3, Q1..Q6, R1, R2 are Hermitian
positive definite; U, V, S1, S2 are unconstrained. All constraints are
homogeneous (zero constant term), so certificates scale freely.

Only the upper block triangle is authored below; the lower one is the mirror.
Unlisted blocks are identically zero. Everything here is linear in the
decision variables and works on stacks of variable sets (leading batch axes
of every matrix), which the lowering pass exploits to read off all
coefficient matrices from one evaluation at every unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .model import NetworkModel
from .qmatrix import (
    HermitianQuatMatrix,
    QuatMatrix,
    hermitian_eigvals,
    hermitian_part,
    qmat_from_json,
    qmat_to_json,
    real_diag,
)

DIAG_NAMES = ("m1", "m2", "m3")
HERMITIAN_NAMES = ("p1", "p2", "p3", "q1", "q2", "q3", "q4", "q5", "q6", "r1", "r2")
GENERAL_NAMES = ("u", "v", "s1", "s2")

# (row, col) of every authored upper-triangle block of Omega, 1-based.
OMEGA_UPPER_INDICES = (
    (1, 1), (1, 4), (1, 6), (1, 8), (1, 10), (1, 11),
    (2, 2), (2, 3), (2, 8), (2, 10),
    (3, 3), (3, 8), (3, 10),
    (4, 4), (4, 6),
    (5, 5), (5, 6), (5, 7),
    (6, 6), (6, 7),
    (7, 7),
    (8, 8), (8, 11),
    (9, 9),
    (10, 10), (10, 11),
    (11, 11),
)


@dataclass
class DecisionVars:
    """One full set of decision matrices for a network of size n, or a stack
    of sets when the arrays carry leading batch axes."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    p1: HermitianQuatMatrix
    p2: HermitianQuatMatrix
    p3: HermitianQuatMatrix
    q1: HermitianQuatMatrix
    q2: HermitianQuatMatrix
    q3: HermitianQuatMatrix
    q4: HermitianQuatMatrix
    q5: HermitianQuatMatrix
    q6: HermitianQuatMatrix
    r1: HermitianQuatMatrix
    r2: HermitianQuatMatrix
    u: QuatMatrix
    v: QuatMatrix
    s1: QuatMatrix
    s2: QuatMatrix

    @property
    def n(self) -> int:
        return self.m1.shape[-1]

    # ---- flat real vector form ---------------------------------------------

    @staticmethod
    def num_scalars(n: int) -> int:
        # 3n diagonal entries, 11 Hermitian matrices (n^2 + n(n-1) reals each),
        # 4 unconstrained matrices (4 n^2 reals each).
        return 3 * n + 11 * (2 * n * n - n) + 16 * n * n

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "DecisionVars":
        """The variables whose flat real vector is the last axis of ``vec``.

        This is the one definition of the flat layout: per name, in the order
        of DIAG_NAMES, HERMITIAN_NAMES and GENERAL_NAMES, a diagonal gives
        its n entries; a Hermitian matrix its real a1 diagonal, then
        (re, im) of a1 and of a2 above the diagonal, row by row (the lower
        triangle is the mirror); a general matrix the real and imaginary
        parts of a1 and of a2, each row-major. Leading axes of ``vec``
        become batch axes of every matrix.
        """
        vec = np.asarray(vec, dtype=float)
        if vec.shape[-1:] != (cls.num_scalars(n),):
            raise ShapeError(f"expected {cls.num_scalars(n)} scalars, got {vec.shape}")
        batch = vec.shape[:-1]
        rows, cols = np.triu_indices(n, 1)
        diag = np.arange(n)
        pos = 0

        def take(k):
            nonlocal pos
            pos += k
            return vec[..., pos - k:pos]

        def take_upper():
            return np.ascontiguousarray(take(2 * rows.size)).view(np.complex128)

        diags = {name: take(n).copy() for name in DIAG_NAMES}
        herms = {}
        for name in HERMITIAN_NAMES:
            a1 = np.zeros(batch + (n, n), dtype=np.complex128)
            a2 = np.zeros_like(a1)
            a1[..., diag, diag] = take(n)
            upper = take_upper()
            a1[..., rows, cols], a1[..., cols, rows] = upper, upper.conj()
            upper = take_upper()
            a2[..., rows, cols], a2[..., cols, rows] = upper, -upper
            herms[name] = HermitianQuatMatrix(a1, a2)
        gens = {}
        for name in GENERAL_NAMES:
            a1 = (take(n * n) + 1j * take(n * n)).reshape(batch + (n, n))
            a2 = (take(n * n) + 1j * take(n * n)).reshape(batch + (n, n))
            gens[name] = QuatMatrix(a1, a2)
        return cls(**diags, **herms, **gens)

    # ---- JSON certificate payload --------------------------------------------

    def to_json(self) -> dict:
        doc = {name: [float(v) for v in getattr(self, name)] for name in DIAG_NAMES}
        for name in HERMITIAN_NAMES + GENERAL_NAMES:
            doc[name] = qmat_to_json(getattr(self, name))
        return doc

    @classmethod
    def from_json(cls, doc: dict, n: int) -> "DecisionVars":
        """The variables of a certificate payload, refused unless every
        diagonal has n entries and every matrix is n x n."""
        try:
            diags = {name: np.asarray([float(v) for v in doc[name]])
                     for name in DIAG_NAMES}
            mats = {name: qmat_from_json(doc[name])
                    for name in HERMITIAN_NAMES + GENERAL_NAMES}
        except KeyError as exc:
            raise InputError(f"certificate is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate field: {exc}") from None
        for name, value in {**diags, **mats}.items():
            expected = (n,) if name in DIAG_NAMES else (n, n)
            if value.shape != expected:
                raise InputError(f"certificate field {name} has shape "
                                 f"{value.shape}, expected {expected}")
        herms = {name: HermitianQuatMatrix(mats[name].a1, mats[name].a2)
                 for name in HERMITIAN_NAMES}
        return cls(**diags, **herms, **{name: mats[name] for name in GENERAL_NAMES})


# ---- block assembly --------------------------------------------------------------


def assemble_blocks(num_blocks: int, n: int,
                    upper: dict[tuple[int, int], QuatMatrix]) -> HermitianQuatMatrix:
    """Place upper-triangle blocks (1-based indices) and mirror them exactly."""
    dim = num_blocks * n
    a1 = np.zeros((dim, dim), dtype=np.complex128)
    a2 = np.zeros((dim, dim), dtype=np.complex128)
    for (bi, bj), blk in upper.items():
        if not (1 <= bi <= bj <= num_blocks):
            raise ShapeError(f"block index ({bi},{bj}) outside upper triangle")
        if blk.shape != (n, n):
            raise ShapeError(f"block ({bi},{bj}) has shape {blk.shape}")
        r = slice((bi - 1) * n, bi * n)
        c = slice((bj - 1) * n, bj * n)
        if bi == bj:
            a1[r, c], a2[r, c] = hermitian_part(blk.a1, blk.a2)
        else:
            a1[r, c] = blk.a1
            a2[r, c] = blk.a2
            a1[c, r] = blk.a1.conj().T
            a2[c, r] = -blk.a2.T
    return HermitianQuatMatrix(a1, a2)


def omega_upper_blocks(model: NetworkModel,
                       dv: DecisionVars) -> dict[tuple[int, int], QuatMatrix]:
    """The 27 authored blocks of Omega, keyed by 1-based (row, col)."""
    c = model.c_diag
    g = model.gamma_diag
    a, b = model.a_mat, model.b_mat
    delta, d1, d2 = model.delta, model.d1_bound, model.d2_bound
    mu1, mu = model.mu1, model.mu
    p1, p2, p3 = dv.p1, dv.p2, dv.p3
    q1, q2, q3, q4, q5, q6 = dv.q1, dv.q2, dv.q3, dv.q4, dv.q5, dv.q6
    r1, r2, u, v, s1, s2 = dv.r1, dv.r2, dv.u, dv.v, dv.s1, dv.s2

    s1h, s2h = s1.H, s2.H
    blocks = {
        (1, 1): (-p1.scale_cols(c) - p1.scale_rows(c) + p2 + (delta * delta) * p3
                 + q1 + q3 + q5 + q6 - r1 + real_diag(g * dv.m1 * g)),
        (1, 4): r1 - u.H,
        (1, 6): u.H,
        (1, 8): p1 @ a,
        (1, 10): p1 @ b,
        (1, 11): p1.scale_rows(c).scale_cols(c),
        (2, 2): (d1 * d1) * r1 + (d2 * d2) * r2 - s1 - s1h,
        (2, 3): -s1h.scale_cols(c) - s2,
        (2, 8): s1h @ a,
        (2, 10): s1h @ b,
        (3, 3): -p2 - s2.scale_rows(c) - s2h.scale_cols(c),
        (3, 8): s2h @ a,
        (3, 10): s2h @ b,
        (4, 4): (-(1.0 - mu1) * q1 - r1 - r1.H + u + u.H
                 + real_diag(g * dv.m2 * g)),
        (4, 6): r1 - u.H,
        (5, 5): (-(1.0 - mu) * q3 - r2 - r2.H + v + v.H
                 + real_diag(g * dv.m3 * g)),
        (5, 6): r2.H - v,
        (5, 7): r2 - v.H,
        (6, 6): -q5 - r1 - r2,
        (6, 7): v.H,
        (7, 7): -q6 - r2,
        (8, 8): q2 + q4 - real_diag(dv.m1),
        (8, 11): -(a.H @ p1).scale_cols(c),
        (9, 9): -(1.0 - mu1) * q2 - real_diag(dv.m2),
        (10, 10): -(1.0 - mu) * q4 - real_diag(dv.m3),
        (10, 11): -(b.H @ p1).scale_cols(c),
        (11, 11): -p3,
    }
    assert tuple(sorted(blocks)) == tuple(sorted(OMEGA_UPPER_INDICES))
    return blocks


@dataclass(frozen=True)
class QuatConstraint:
    """One constraint of the criterion, matrix > 0, as its authored upper
    blocks.

    ``blocks`` maps 1-based (row, col) in the upper block triangle of a
    ``num_blocks`` x ``num_blocks`` grid to an n x n block; unlisted blocks
    are zero and the lower triangle is the mirror.
    """

    name: str
    num_blocks: int
    blocks: dict[tuple[int, int], QuatMatrix]

    @property
    def matrix(self) -> HermitianQuatMatrix:
        n = next(iter(self.blocks.values())).rows
        return assemble_blocks(self.num_blocks, n, self.blocks)


def quat_constraints(model: NetworkModel, dv: DecisionVars) -> list[QuatConstraint]:
    """Every constraint of the criterion, each "> 0", evaluated at the given
    variables. Omega is listed as -Omega."""
    neg_omega = omega_upper_blocks(model, dv)
    for blk in neg_omega.values():
        # every block is a fresh array, and negation is exact; in place, so
        # a stack of variable sets is never held twice
        np.negative(blk.a1, out=blk.a1)
        np.negative(blk.a2, out=blk.a2)
    cons = [
        QuatConstraint("coupling_r1_u", 2,
                       {(1, 1): dv.r1, (1, 2): dv.u, (2, 2): dv.r1}),
        QuatConstraint("coupling_r2_v", 2,
                       {(1, 1): dv.r2, (1, 2): dv.v, (2, 2): dv.r2}),
        QuatConstraint("omega", 11, neg_omega),
    ]
    for name in HERMITIAN_NAMES:
        cons.append(QuatConstraint(f"{name}_pd", 1,
                                   {(1, 1): getattr(dv, name)}))
    for name in DIAG_NAMES:
        cons.append(QuatConstraint(
            f"{name}_pos", 1,
            {(1, 1): real_diag(getattr(dv, name))}))
    return cons


@dataclass(frozen=True)
class ConstraintScore:
    name: str
    margin: float      # smallest eigenvalue: the distance to violation


@dataclass(frozen=True)
class CertificateReport:
    valid: bool
    required_margin: float
    worst_margin: float
    scores: tuple[ConstraintScore, ...]


def verify_certificate(model: NetworkModel, dv: DecisionVars,
                       margin: float) -> CertificateReport:
    """Independent quaternion-level check that dv satisfies every strict LMI.

    Eigenvalues come from the complex embedding of each assembled constraint;
    the certificate is valid iff every strictness margin reaches ``margin``.
    """
    scores = [ConstraintScore(con.name, float(hermitian_eigvals(con.matrix)[0]))
              for con in quat_constraints(model, dv)]
    worst = min(s.margin for s in scores)
    return CertificateReport(valid=bool(worst >= margin), required_margin=margin,
                             worst_margin=worst, scores=tuple(scores))
