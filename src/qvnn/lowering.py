"""Lowering quaternion LMIs to the paper's complex LMIs (CVLMIs).

Every constraint of the criterion is linear in the flat decision vector, so
its coefficients are read off exactly from its authored blocks at unit
vectors, all evaluated by one batched call of ``quat_constraints``. A
constraint of N quaternion rows (``num_blocks`` blocks of side n) becomes
its complex image chi, a Hermitian matrix of side 2N that is definite
exactly when the quaternion matrix is. chi acts entry by entry, so it is
applied per block and the full quaternion matrix is never formed: a nonzero
block B at block row b, column b' enters as

    chi(B) = [[B1, -B2], [conj(B2), conj(B1)]],

whose local row c n + r (c = 0, 1) is the global row c N + (b - 1) n + r,
and off the diagonal also as its conjugate transpose at (b', b). Diagonal
blocks are symmetrized first, exactly as ``assemble_blocks`` does. Each
constraint's coefficients are stored as three numpy arrays of its nonzero
entries: the variable, the flat index of the entry in the row-major
Hermitian matrix and the complex value, sorted by variable and then by
entry. Every coefficient is finite and the criterion is homogeneous
(``build_sdp`` refuses it otherwise), so a lowered constraint is
sum_i x_i A_i with no constant term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .lmi import DecisionVars, QuatConstraint, quat_constraints
from .model import NetworkModel
from .qmatrix import QuatMatrix, hermitian_part


@dataclass
class AffineLmi:
    """Complex Hermitian constraint  sum_i x_i A_i > 0  of side ``dim``.
    A_var[e] holds value[e] at the row-major flat index entry[e] and is zero
    elsewhere; the entries are sorted by variable, then by entry, and each
    (variable, entry) pair is stored once."""

    name: str
    dim: int
    var: np.ndarray      # (nnz,) intp
    entry: np.ndarray    # (nnz,) intp, row * dim + column
    value: np.ndarray    # (nnz,) complex


@dataclass
class StandardSdp:
    """max-margin feasibility data: find x with every LMI > 0."""

    num_vars: int
    lmis: list[AffineLmi]

    def __post_init__(self):
        for lmi in self.lmis:
            size = lmi.dim * lmi.dim
            key = lmi.var * size + lmi.entry
            if not (lmi.var.shape == lmi.entry.shape == lmi.value.shape
                    and np.all((lmi.var >= 0) & (lmi.var < self.num_vars))
                    and np.all((lmi.entry >= 0) & (lmi.entry < size))
                    and np.all(np.diff(key) > 0)):
                raise ShapeError(f"constraint {lmi.name} stores entries out of "
                                 f"range or order for {self.num_vars} "
                                 f"variables of side {lmi.dim}")


def _lower(con: QuatConstraint, n: int) -> AffineLmi:
    """One constraint's complex form from its blocks at the unit vectors: batch
    row i + 1 of every block is its value at unit vector i, and the
    variables where a block is zero are dropped."""
    rows = con.num_blocks * n
    d = 2 * rows
    hot = {k: np.flatnonzero(blk.a1[1:].any(axis=(1, 2)) | blk.a2[1:].any(axis=(1, 2)))
           for k, blk in con.blocks.items()}
    var = np.concatenate(list(hot.values()))
    key = np.concatenate([np.tile(k, (h.size, 1)) for k, h in hot.items()])
    a1 = np.concatenate([con.blocks[k].a1[h + 1] for k, h in hot.items()])
    a2 = np.concatenate([con.blocks[k].a2[h + 1] for k, h in hot.items()])
    diag = key[:, 0] == key[:, 1]
    a1[diag], a2[diag] = hermitian_part(a1[diag], a2[diag])
    images = QuatMatrix(a1, a2).complex_embed()
    k, p, q = np.nonzero(images)
    # global index of each block's local rows c n + r, per block row
    local = (np.arange(2)[:, None] * rows + np.arange(n)).ravel()
    at_row = (key[k, 0] - 1) * n + local[p]
    at_col = (key[k, 1] - 1) * n + local[q]
    vals = images[k, p, q]
    off = ~diag[k]                         # mirrored as conjugate transposes
    keys = np.concatenate([var[k] * d * d + at_row * d + at_col,
                           var[k][off] * d * d + at_col[off] * d + at_row[off]])
    order = np.argsort(keys)
    return AffineLmi(con.name, d, *np.divmod(keys[order], d * d),
                     np.concatenate([vals, vals[off].conj()])[order])


def build_sdp(model: NetworkModel) -> StandardSdp:
    """Model -> complex standard-form SDP from one batched evaluation of the
    criterion: batch row 0 is the zero vector, rows 1.. the unit vectors."""
    n = model.n
    num = DecisionVars.num_scalars(n)
    # a product past the float range is reported below, by constraint
    with np.errstate(over="ignore", invalid="ignore"):
        cons = quat_constraints(model, DecisionVars.from_vector(
            np.vstack([np.zeros(num), np.eye(num)]), n))
    for con in cons:
        blocks = con.blocks.values()
        if not all(np.isfinite(blk.a1).all() and np.isfinite(blk.a2).all()
                   for blk in blocks):
            raise InputError(f"constraint {con.name} has coefficients that are "
                             "not finite: a model number is too large")
        if any(blk.a1[0].any() or blk.a2[0].any() for blk in blocks):
            raise InputError(f"constraint {con.name} is not homogeneous")
    return StandardSdp(num_vars=num, lmis=[_lower(con, n) for con in cons])
