"""Lowering quaternion LMIs to a real semidefinite feasibility problem.

Every constraint of the criterion is linear in the flat decision vector, so
its coefficients are read off exactly from its authored blocks at unit
vectors. A constraint of N quaternion rows (``num_blocks`` blocks of side n)
becomes a real symmetric matrix of side 4N: the complex embedding chi
(size doubles, Hermitian-ness and definiteness preserved) followed by the
real embedding of a complex Hermitian matrix (size doubles again, spectrum
preserved with doubled multiplicity). Both embeddings act entry by entry, so
they are applied per block, and the full quaternion matrix is never formed:
a nonzero block B at block row b, column b' enters as its real image

    [[Re chi(B), -Im chi(B)], [Im chi(B), Re chi(B)]],
    chi(B) = [[B1, -B2], [conj(B2), conj(B1)]],

whose local row c n + r (c = 0..3) is the global row c N + (b - 1) n + r,
and off the diagonal also as its transpose at (b', b). Diagonal blocks are
symmetrized first, exactly as ``assemble_blocks`` does. Each constraint's
coefficients are stored as one CSR matrix with a row per variable and a
column per entry of the row-major real matrix; only nonzero entries are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InputError, ShapeError
from .lmi import (DecisionVars, QuatConstraint, VarSpec, hermitian_part,
                  quat_constraints)
from .lmi import var_map as build_var_map
from .model import NetworkModel


@dataclass
class AffineLmi:
    """Real symmetric constraint  constant + sum_i x_i A_i  (sense 'pd': > 0,
    'nd': < 0). Row i of ``coeffs`` is A_i flattened row-major."""

    name: str
    sense: str
    constant: np.ndarray              # real symmetric (d, d)
    coeffs: scipy.sparse.csr_array    # (num_vars, d * d)

    @property
    def dim(self) -> int:
        return self.constant.shape[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        flat = self.coeffs.T @ np.asarray(x, dtype=float)
        return self.constant + flat.reshape(self.dim, self.dim)

    def oriented(self) -> tuple[np.ndarray, scipy.sparse.csr_array]:
        """(constant, coeffs) negated if needed so the constraint reads > 0."""
        sign = 1.0 if self.sense == "pd" else -1.0
        return sign * self.constant, sign * self.coeffs


@dataclass
class StandardSdp:
    """max-margin feasibility data: find x with every oriented LMI > 0."""

    num_vars: int
    lmis: list[AffineLmi]
    var_map: list[VarSpec] = field(default_factory=list)

    def __post_init__(self):
        for lmi in self.lmis:
            if lmi.coeffs.shape != (self.num_vars, lmi.dim * lmi.dim):
                raise ShapeError(f"constraint {lmi.name} has coefficients of "
                                 f"shape {lmi.coeffs.shape}, expected "
                                 f"{(self.num_vars, lmi.dim * lmi.dim)}")
        if self.var_map and len(self.var_map) != self.num_vars:
            raise ShapeError("variable map length does not match num_vars")


def _real_images(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Real images of the quaternion blocks a1 + a2 j, stacked on axis 0."""
    chi = np.concatenate([np.concatenate([a1, -a2], axis=2),
                          np.concatenate([a2.conj(), a1.conj()], axis=2)],
                         axis=1)
    return np.concatenate([np.concatenate([chi.real, -chi.imag], axis=2),
                           np.concatenate([chi.imag, chi.real], axis=2)],
                          axis=1)


def _lower(con: QuatConstraint, found: list, n: int, num_vars: int) -> AffineLmi:
    """One constraint's real form from its nonzero (variable, key, block)s."""
    rows = con.num_blocks * n
    d = 4 * rows
    var = np.array([i for i, _, _ in found], dtype=np.intp)
    key = np.array([k for _, k, _ in found], dtype=np.intp).reshape(-1, 2)
    a1 = np.array([blk.a1 for _, _, blk in found]).reshape(-1, n, n)
    a2 = np.array([blk.a2 for _, _, blk in found]).reshape(-1, n, n)
    diag = key[:, 0] == key[:, 1]
    a1[diag], a2[diag] = hermitian_part(a1[diag], a2[diag])
    images = _real_images(a1, a2)
    k, p, q = np.nonzero(images)
    # global real index of each block's local rows c n + r, per block row
    local = (np.arange(4)[:, None] * rows + np.arange(n)).ravel()
    at_row = (key[k, 0] - 1) * n + local[p]
    at_col = (key[k, 1] - 1) * n + local[q]
    vals = images[k, p, q]
    off = ~diag[k]                                   # mirrored as transposes
    coeffs = scipy.sparse.csr_array(
        (np.concatenate([vals, vals[off]]),
         (np.concatenate([var[k], var[k][off]]),
          np.concatenate([at_row * d + at_col, at_col[off] * d + at_row[off]]))),
        shape=(num_vars, d * d))
    return AffineLmi(con.name, con.sense, np.zeros((d, d)), coeffs)


def build_sdp(model: NetworkModel) -> StandardSdp:
    """Model -> real standard-form SDP, one block at a time."""
    n = model.n
    num = DecisionVars.num_scalars(n)
    zero_cons = quat_constraints(model, DecisionVars.from_vector(np.zeros(num), n))
    for con in zero_cons:
        if any(blk.a1.any() or blk.a2.any() for blk in con.blocks.values()):
            raise InputError(f"constraint {con.name} is not homogeneous")
    found = [[] for _ in zero_cons]
    basis = np.zeros(num)
    for idx in range(num):
        basis[idx] = 1.0
        cons = quat_constraints(model, DecisionVars.from_vector(basis, n))
        basis[idx] = 0.0
        for entries, con in zip(found, cons):
            entries.extend((idx, key, blk) for key, blk in con.blocks.items()
                           if blk.a1.any() or blk.a2.any())
    lmis = [_lower(con, entries, n, num) for con, entries in zip(zero_cons, found)]
    return StandardSdp(num_vars=num, lmis=lmis, var_map=build_var_map(n))
