"""Lowering quaternion LMIs to the paper's complex LMIs (CVLMIs).

Every term of the criterion holds one decision matrix, so its coefficients
are read off exactly by one call of ``quat_constraints`` per decision
matrix, holding that matrix alone at its unit images (at most 4 n^2 of
them); a constraint's pieces are joined in variable order. A
constraint of N quaternion rows (``num_blocks`` blocks of side n) becomes
its complex image chi, a Hermitian matrix of side 2N that is definite
exactly when the quaternion matrix is. chi acts entry by entry, so it is
applied per block and the full quaternion matrix is never formed: a nonzero
block B at block row b, column b' enters as

    chi(B) = [[B1, -B2], [conj(B2), conj(B1)]],

fixed by its top rows [B1, -B2], and only the rows p < N are stored: local
row r and column c n + r' (c = 0, 1) are the global row (b - 1) n + r and
column c N + (b' - 1) n + r'. Off the diagonal B also enters at (b', b) as
B*, with top rows [B1^H, B2^T]. Diagonal blocks are symmetrized first,
exactly as ``assemble_blocks`` does. The coefficients are stored as three
numpy arrays of the nonzero stored entries: the variable, the flat index
of the entry in the row-major Hermitian matrix and the complex value,
sorted by variable and then by entry. Every coefficient is finite
(``build_sdp`` refuses it otherwise) and every term is linear in its
matrix, so a lowered constraint is sum_i x_i A_i with no constant term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lmi import LAYOUT, DecisionVars, QuatConstraint, quat_constraints
from .model import NetworkModel, physical_memory
from .qmatrix import QuatMatrix, hermitian_part


@dataclass
class AffineLmi:
    """Complex Hermitian constraint  sum_i x_i A_i > 0  of side ``dim`` = 2N,
    each A_i a chi image stored by its rows p < N, which fix the rest:
    A[N + p, N + q] = conj(A[p, q]), A[N + p, q] = -conj(A[p, N + q]).
    A_var[e] holds value[e] at the row-major flat index entry[e] and is zero
    elsewhere in those rows; the entries are sorted by variable, then by
    entry, and each (variable, entry) pair is stored once."""

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
            if lmi.dim % 2:
                raise InputError(f"constraint {lmi.name} has the odd side {lmi.dim}")
            size = lmi.dim * lmi.dim
            key = lmi.var * size + lmi.entry
            # entry < size / 2 exactly when the row is below N = dim / 2
            if not (lmi.var.shape == lmi.entry.shape == lmi.value.shape
                    and np.all((lmi.var >= 0) & (lmi.var < self.num_vars))
                    and np.all((lmi.entry >= 0) & (lmi.entry < size // 2))
                    and np.all(np.diff(key) > 0)):
                raise InputError(f"constraint {lmi.name} stores entries out of "
                                 f"range or order for {self.num_vars} "
                                 f"variables and the top {lmi.dim // 2} rows "
                                 f"of side {lmi.dim}")


def _lower(con: QuatConstraint, n: int, first: int, size: int) -> AffineLmi:
    """One constraint's stored rows from its blocks at the ``size`` unit
    images of one decision matrix: batch row i of every block is its value
    at variable first + i."""
    rows = con.num_blocks * n
    d = 2 * rows
    var = np.tile(np.arange(first, first + size), len(con.blocks))
    key = np.repeat(np.array(list(con.blocks)), size, axis=0)
    a1 = np.concatenate([blk.a1 for blk in con.blocks.values()])
    a2 = np.concatenate([blk.a2 for blk in con.blocks.values()])
    diag = key[:, 0] == key[:, 1]
    a1[diag], a2[diag] = hermitian_part(a1[diag], a2[diag])
    # the lower block triangle, B* at (b', b)
    lower = QuatMatrix(a1[~diag], a2[~diag]).H
    var = np.concatenate([var, var[~diag]])
    key = np.concatenate([key, key[~diag, ::-1]])
    tops = np.concatenate([np.concatenate([a1, lower.a1]),
                           -np.concatenate([a2, lower.a2])], axis=2)
    k, r, c = np.nonzero(tops)
    at_row = (key[k, 0] - 1) * n + r
    at_col = c // n * rows + (key[k, 1] - 1) * n + c % n
    keys = var[k] * d * d + at_row * d + at_col
    order = np.argsort(keys)
    return AffineLmi(con.name, d, *np.divmod(keys[order], d * d),
                     tops[k, r, c][order])


def build_sdp(model: NetworkModel) -> StandardSdp:
    """Model -> complex standard-form SDP, evaluating the criterion once
    per decision matrix, at that matrix's unit images alone."""
    n = model.n
    num = DecisionVars.num_scalars(n)
    # held at once by certify: the Schur complement and the copy that
    # np.linalg.solve factors; one matrix's images, at most 4 n^2, take less
    need = 16 * (num + 1) ** 2
    if not need <= physical_memory():
        raise InputError(f"certifying the criterion at n = {n} holds at least "
                         f"{need:.3g} bytes at once, more than physical memory")
    pieces = {}
    first = 0
    for name in LAYOUT:
        size = DecisionVars.size(name, n)
        images = DecisionVars.read(name, np.eye(size), n)
        dv = DecisionVars(**{f: images if f == name else None for f in LAYOUT})
        # a product past the float range is reported below, by constraint
        with np.errstate(over="ignore", invalid="ignore"):
            cons = quat_constraints(model, dv)
        for con in cons:
            if not all(np.isfinite(blk.a1).all() and np.isfinite(blk.a2).all()
                       for blk in con.blocks.values()):
                raise InputError(f"constraint {con.name} has coefficients that "
                                 "are not finite: a model number is too large")
            runs = pieces.setdefault((con.name, 2 * con.num_blocks * n), [])
            if con.blocks:
                runs.append(_lower(con, n, first, size))
        first += size
    return StandardSdp(num_vars=num, lmis=[
        AffineLmi(name, dim, *(np.concatenate([getattr(lmi, f) for lmi in runs])
                               for f in ("var", "entry", "value")))
        for (name, dim), runs in pieces.items()])
