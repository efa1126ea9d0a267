"""Assembly of the delay-dependent stability criterion as quaternion LMIs.

The criterion is feasibility of three strict matrix inequalities in 18
quaternion decision matrices: two positivity couplings

    [[R1, U], [U*, R1]] > 0,      [[R2, V], [V*, R2]] > 0,

and an 11 x 11 block matrix Omega < 0, listed as -Omega > 0 so that every
constraint reads "> 0". Its rows/columns correspond to the augmented state

    (x(t), x'(t), x(t - delta), x(t - d1(t)), x(t - d(t)), x(t - d1),
     x(t - d), f(x(t)), f(x(t - d1(t))), f(x(t - d(t))), int_{t-delta}^t x).

M1, M2, M3 are positive diagonal; P1..P3, Q1..Q6, R1, R2 are Hermitian
positive definite; U, V, S1, S2 are unconstrained. R1 and P3 get no
constraint of their own: R1 is the (1, 1) block of the first coupling, -P3
the (11, 11) block of Omega, and by Cauchy interlacing a principal block is
at least as definite as its matrix. All constraints are homogeneous (zero
constant term), so certificates scale freely.

Each constraint is stated once, as a table of terms kappa * L X R in its
upper block triangle (the lower one is the mirror, unlisted blocks are
zero), and ``sum_terms`` evaluates it on a set of variables or a stack of
them (leading batch axes of every matrix). A matrix held as None adds
nothing, so the lowering reads each decision matrix's coefficients alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import NetworkModel
from .qmatrix import (
    SUBNORMAL,
    HermitianQuatMatrix,
    QuatMatrix,
    gamma_k,
    hermitian_part,
    json_numbers,
    proved_positive_definite,
    qmat_from_json,
    qmat_to_json,
    real_diag,
)

DIAG_NAMES = ("m1", "m2", "m3")
HERMITIAN_NAMES = ("p1", "p2", "p3", "q1", "q2", "q3", "q4", "q5", "q6", "r1", "r2")
GENERAL_NAMES = ("u", "v", "s1", "s2")
LAYOUT = DIAG_NAMES + HERMITIAN_NAMES + GENERAL_NAMES


@dataclass
class DecisionVars:
    """The decision matrices of a network of size n, stacked when the arrays
    carry leading batch axes; a matrix held as None adds no term."""

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
    def size(name: str, n: int) -> int:
        """The scalars of one matrix: n per diagonal, n^2 + n(n-1) per
        Hermitian matrix and 4 n^2 per unconstrained matrix."""
        if name in DIAG_NAMES:
            return n
        return 2 * n * n - n if name in HERMITIAN_NAMES else 4 * n * n

    @classmethod
    def num_scalars(cls, n: int) -> int:
        return sum(cls.size(name, n) for name in LAYOUT)

    @staticmethod
    def read(name: str, vec: np.ndarray, n: int) -> np.ndarray | QuatMatrix:
        """The matrix ``name`` whose scalars are the last axis of ``vec``, as
        the flat layout stores them: a diagonal its n entries; a Hermitian
        matrix its real a1 diagonal, then (re, im) of a1 and of a2 above the
        diagonal, row by row; a general matrix the real and imaginary parts
        of a1 and of a2, each row-major. Leading axes become batch axes, so
        the identity of side ``size(name, n)`` gives the unit images."""
        if name in DIAG_NAMES:
            return vec.copy()
        batch = vec.shape[:-1]
        if name in GENERAL_NAMES:
            part = vec.reshape(batch + (4, n, n))
            return QuatMatrix(part[..., 0, :, :] + 1j * part[..., 1, :, :],
                              part[..., 2, :, :] + 1j * part[..., 3, :, :])
        rows, cols = np.triu_indices(n, 1)
        upper = np.ascontiguousarray(vec[..., n:]).view(np.complex128)
        upper1, upper2 = upper[..., :rows.size], upper[..., rows.size:]
        a1 = np.zeros(batch + (n, n), dtype=np.complex128)
        a2 = np.zeros_like(a1)
        a1[..., range(n), range(n)] = vec[..., :n]
        a1[..., rows, cols], a1[..., cols, rows] = upper1, upper1.conj()
        a2[..., rows, cols], a2[..., cols, rows] = upper2, -upper2
        return HermitianQuatMatrix(a1, a2)

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "DecisionVars":
        """The variables whose flat real vector is the last axis of ``vec``:
        each matrix in the order of LAYOUT, as ``read`` lays it out."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape[-1:] != (cls.num_scalars(n),):
            raise InputError(f"expected {cls.num_scalars(n)} scalars, got {vec.shape}")
        ends = np.cumsum([cls.size(name, n) for name in LAYOUT])
        parts = np.split(vec, ends[:-1], axis=-1)
        return cls(**{name: cls.read(name, part, n)
                      for name, part in zip(LAYOUT, parts)})

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
        if not isinstance(doc, dict):
            raise InputError("certificate variables must be a JSON object")
        diags = {name: json_numbers(doc.get(name), (n,), f"certificate field {name}")
                 for name in DIAG_NAMES}
        mats = {name: qmat_from_json(doc.get(name), f"certificate field {name}")
                for name in HERMITIAN_NAMES + GENERAL_NAMES}
        for name, value in mats.items():
            if value.shape != (n, n):
                raise InputError(f"certificate field {name} has shape "
                                 f"{value.shape}, expected {(n, n)}")
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
            raise InputError(f"block index ({bi},{bj}) outside upper triangle")
        if blk.shape != (n, n):
            raise InputError(f"block ({bi},{bj}) has shape {blk.shape}")
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


def omega_terms(model: NetworkModel) -> list[tuple]:
    """The 55 terms of Omega's 25 authored blocks, each a row
    (block, scale, left, variable, right) read as scale * left X right, X
    the named decision matrix, or its adjoint for a trailing "*". An
    operand is None (I below) for the identity, a real diagonal as its
    vector, or a QuatMatrix; a block sums its rows in the order listed."""
    c, g, a, b = model.c_diag, model.gamma_diag, model.a_mat, model.b_mat
    delta, d1, d2 = model.delta, model.d1_bound, model.d2_bound
    mu1, mu = model.mu1, model.mu
    I = None
    blocks = {
        (1, 1): [(-1.0, I, "p1", c), (-1.0, c, "p1", I), (1.0, I, "p2", I),
                 (delta * delta, I, "p3", I), (1.0, I, "q1", I), (1.0, I, "q3", I),
                 (1.0, I, "q5", I), (1.0, I, "q6", I), (-1.0, I, "r1", I),
                 (1.0, g, "m1", g)],
        (1, 4): [(1.0, I, "r1", I), (-1.0, I, "u*", I)],
        (1, 6): [(1.0, I, "u*", I)],
        (1, 8): [(1.0, I, "p1", a)],
        (1, 10): [(1.0, I, "p1", b)],
        (1, 11): [(1.0, c, "p1", c)],
        (2, 2): [(d1 * d1, I, "r1", I), (d2 * d2, I, "r2", I), (-1.0, I, "s1", I),
                 (-1.0, I, "s1*", I)],
        (2, 3): [(-1.0, I, "s1*", c), (-1.0, I, "s2", I)],
        (2, 8): [(1.0, I, "s1*", a)],
        (2, 10): [(1.0, I, "s1*", b)],
        (3, 3): [(-1.0, I, "p2", I), (-1.0, c, "s2", I), (-1.0, I, "s2*", c)],
        (3, 8): [(1.0, I, "s2*", a)],
        (3, 10): [(1.0, I, "s2*", b)],
        (4, 4): [(-(1.0 - mu1), I, "q1", I), (-1.0, I, "r1", I), (-1.0, I, "r1*", I),
                 (1.0, I, "u", I), (1.0, I, "u*", I), (1.0, g, "m2", g)],
        (4, 6): [(1.0, I, "r1", I), (-1.0, I, "u*", I)],
        (5, 5): [(-(1.0 - mu), I, "q3", I), (1.0, g, "m3", g)],
        (6, 6): [(-1.0, I, "q5", I), (-1.0, I, "r1", I), (-1.0, I, "r2", I)],
        (6, 7): [(1.0, I, "r2", I)],
        (7, 7): [(-1.0, I, "q6", I), (-1.0, I, "r2", I)],
        (8, 8): [(1.0, I, "q2", I), (1.0, I, "q4", I), (-1.0, I, "m1", I)],
        (8, 11): [(-1.0, a.H, "p1", c)],
        (9, 9): [(-(1.0 - mu1), I, "q2", I), (-1.0, I, "m2", I)],
        (10, 10): [(-(1.0 - mu), I, "q4", I), (-1.0, I, "m3", I)],
        (10, 11): [(-1.0, b.H, "p1", c)],
        (11, 11): [(-1.0, I, "p3", I)],
    }
    return [(key, *term) for key, terms in blocks.items() for term in terms]


def sum_terms(rows: list[tuple], dv: DecisionVars) -> dict[tuple[int, int], QuatMatrix]:
    """Each block of ``rows`` summed at ``dv``, skipping every term whose
    matrix ``dv`` holds as None; a block with no term left is absent."""
    blocks = {}
    for key, scale, left, var, right in rows:
        x = getattr(dv, var.rstrip("*"))
        if x is None:
            continue
        x = real_diag(x) if var in DIAG_NAMES else x.H if var.endswith("*") else x
        if left is not None:
            x = x.scale_rows(left) if isinstance(left, np.ndarray) else left @ x
        if right is not None:
            x = x.scale_cols(right) if isinstance(right, np.ndarray) else x @ right
        # both exact, as the product would be
        if scale != 1.0:
            x = -x if scale == -1.0 else scale * x
        blocks[key] = blocks[key] + x if key in blocks else x
    return blocks


@dataclass(frozen=True)
class QuatConstraint:
    """One constraint of the criterion, matrix > 0: ``blocks`` maps 1-based
    (row, col) in the upper block triangle of a ``num_blocks`` x
    ``num_blocks`` grid to an n x n block; unlisted blocks are zero and the
    lower triangle is the mirror."""

    name: str
    num_blocks: int
    blocks: dict[tuple[int, int], QuatMatrix]


def constraint_rows(model: NetworkModel) -> list[tuple[str, int, list[tuple]]]:
    """Every constraint of the criterion, each "> 0", as (name, number of
    blocks, rows). Omega is listed as -Omega, each row's scale negated."""
    def rows(*terms):
        return [(key, 1.0, None, var, None) for key, var in terms]

    tables = [
        ("coupling_r1_u", 2, rows(((1, 1), "r1"), ((1, 2), "u"), ((2, 2), "r1"))),
        ("coupling_r2_v", 2, rows(((1, 1), "r2"), ((1, 2), "v"), ((2, 2), "r2"))),
        ("omega", 11, [(key, -scale, *rest)
                       for key, scale, *rest in omega_terms(model)]),
    ]
    # R1 and P3 are principal blocks of coupling_r1_u and of -Omega
    tables += [(f"{name}_pd", 1, rows(((1, 1), name))) for name in HERMITIAN_NAMES
               if name not in ("r1", "p3")]
    tables += [(f"{name}_pos", 1, rows(((1, 1), name))) for name in DIAG_NAMES]
    return tables


def quat_constraints(model: NetworkModel, dv: DecisionVars) -> list[QuatConstraint]:
    """Every constraint of the criterion summed from its rows at the given
    variables."""
    return [QuatConstraint(name, size, sum_terms(rows, dv))
            for name, size, rows in constraint_rows(model)]


@dataclass(frozen=True)
class CertificateReport:
    valid: bool
    worst_margin: float
    # the smallest eigenvalue of each constraint: its distance to violation
    scores: dict[str, float]


def _magnitude(x, lift: float):
    """An operand's entrywise magnitudes, those of its complex image, in the
    form ``sum_terms`` reads: a real QuatMatrix of twice the side with no j
    part, a real diagonal as its vector twice, None as is; each raised by
    ``lift``."""
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return np.tile(np.abs(x), 2) + lift
    image = np.abs(x.complex_embed()) + lift
    return QuatMatrix(image, np.zeros_like(image))


def verify_certificate(model: NetworkModel, dv: DecisionVars,
                       margin: float) -> CertificateReport:
    """Independent quaternion-level proof that every eigenvalue of every
    constraint at dv exceeds ``margin``.

    Every constraint is linear in the variables, so they are divided by the
    power of two at their largest entry, which is exact, and no assembly
    leaves the float range. Each constraint is summed from its rows, and
    once more with every operand replaced by its magnitudes: the chained
    complex products and sums of a row err entrywise by at most gamma times
    that table, and the complex image of the error by at most its largest
    row sum in spectral norm. The constraint holds when its complex image
    is proved by ``proved_positive_definite`` above margin plus that bound,
    so "valid" is a statement about the stored matrices. Its score, for the
    record, is its smallest eigenvalue. A constraint with an entry that is
    not finite scores NaN and is not proved, and neither is the certificate.
    """
    n = dv.n
    parts = {name: getattr(dv, name) for name in LAYOUT}
    largest = max(float(np.max(np.abs(p))) if isinstance(p, np.ndarray)
                  else p.max_abs() for p in parts.values())
    # 2^(e - 1) <= largest < 2^e; any power of two for 0, inf or nan
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    units = {name: p * (1.0 / scale) for name, p in parts.items()}
    unit = DecisionVars(**units)
    # twice for complex moduli, twice for the chained products, which also
    # covers the rounding of a scale such as delta^2 or 1 - mu; an entry that
    # the scaling rounds into the subnormals moves by at most the smallest
    # subnormal, which lifting every magnitude covers, and the last term
    # covers underflow inside the assembly
    chain = 4 * n + 32
    g = 4.0 * gamma_k(chain)
    lift = SUBNORMAL / g
    mags = DecisionVars(**{name: _magnitude(p, lift) for name, p in units.items()})
    tables = constraint_rows(model)
    # each model operand's magnitudes once, by identity: the rows share them
    operands = {id(x): x for _, _, rows in tables
                for _, _, left, _, right in rows for x in (left, right)}
    images = {key: _magnitude(x, lift) for key, x in operands.items()}
    scores, valid = {}, True
    for name, size, rows in tables:
        image = assemble_blocks(size, n, sum_terms(rows, unit)).complex_embed()
        table = sum_terms([(key, abs(kappa), images[id(left)], var, images[id(right)])
                           for key, kappa, left, var, right in rows], mags)
        # block (i, j) reaches block rows i and j; counting both for a
        # diagonal block covers its symmetrization
        sums = np.zeros((size, 2 * n))
        for (i, j), blk in table.items():
            sums[i - 1] += blk.a1.real.sum(axis=1)
            sums[j - 1] += blk.a1.real.sum(axis=0)
        finite = bool(np.isfinite(image).all())
        scores[name] = (float(np.linalg.eigvalsh(image)[0]) * scale if finite
                        else np.nan)
        valid = valid and finite and proved_positive_definite(
            image, margin / scale + g * float(sums.max())
            + 4 * size * n * chain * SUBNORMAL)
    worst = float(np.min(list(scores.values())))
    return CertificateReport(valid=bool(valid), worst_margin=worst, scores=scores)
