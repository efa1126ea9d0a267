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
constraint's coefficients are stored as one complex CSR matrix with a row
per variable and a column per entry of the row-major Hermitian matrix; only
nonzero entries are kept. The criterion is homogeneous (``build_sdp``
refuses it otherwise), so a lowered constraint is sum_i x_i A_i with no
constant term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import InputError, ShapeError
from .lmi import DecisionVars, QuatConstraint, quat_constraints
from .model import NetworkModel
from .qmatrix import QuatMatrix, hermitian_part


@dataclass
class AffineLmi:
    """Complex Hermitian constraint  sum_i x_i A_i > 0  of side ``dim``.
    Row i of ``coeffs`` is A_i flattened row-major."""

    name: str
    dim: int
    coeffs: scipy.sparse.csr_array    # (num_vars, dim * dim)


@dataclass
class StandardSdp:
    """max-margin feasibility data: find x with every LMI > 0."""

    num_vars: int
    lmis: list[AffineLmi]

    def __post_init__(self):
        for lmi in self.lmis:
            if lmi.coeffs.shape != (self.num_vars, lmi.dim * lmi.dim):
                raise ShapeError(f"constraint {lmi.name} has coefficients of "
                                 f"shape {lmi.coeffs.shape}, expected "
                                 f"{(self.num_vars, lmi.dim * lmi.dim)}")


def _lower(con: QuatConstraint, n: int, num_vars: int) -> AffineLmi:
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
    coeffs = scipy.sparse.csr_array(
        (np.concatenate([vals, vals[off].conj()]),
         (np.concatenate([var[k], var[k][off]]),
          np.concatenate([at_row * d + at_col, at_col[off] * d + at_row[off]]))),
        shape=(num_vars, d * d))
    return AffineLmi(con.name, d, coeffs)


def build_sdp(model: NetworkModel) -> StandardSdp:
    """Model -> complex standard-form SDP from one batched evaluation of the
    criterion: batch row 0 is the zero vector, rows 1.. the unit vectors."""
    n = model.n
    num = DecisionVars.num_scalars(n)
    cons = quat_constraints(model, DecisionVars.from_vector(
        np.vstack([np.zeros(num), np.eye(num)]), n))
    for con in cons:
        if any(blk.a1[0].any() or blk.a2[0].any() for blk in con.blocks.values()):
            raise InputError(f"constraint {con.name} is not homogeneous")
    return StandardSdp(num_vars=num, lmis=[_lower(con, n, num) for con in cons])
