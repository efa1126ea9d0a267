"""Quaternion matrices stored as complex pairs, and their complex embedding.

A quaternion matrix A = W + X i + Y j + Z k is kept as the ordered pair of
complex matrices (A1, A2) with A = A1 + A2 j, A1 = W + X i, A2 = Y + Z i.
In this representation

    A* = A1^H - A2^T j                     (conjugate transpose)
    AB = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j

and a square A embeds into a complex matrix of twice the size,

    chi(A) = [[A1, -A2], [conj(A2), conj(A1)]],

which is multiplicative and *-preserving, so Hermitian-ness and eigenvalue
signs transfer: each eigenvalue of a Hermitian quaternion matrix appears
twice in the spectrum of its image (Zhang, "Quaternions and matrices of
quaternions", LAA 251 (1997)). Definiteness of a Hermitian quaternion matrix
is *defined* through this embedding; that definition is cross-checked
against quadratic-form signs in the test suite.

A QuatMatrix may carry leading batch axes: a1 and a2 of shape (..., r, c)
hold a stack of r x c matrices, and every operation acts on the last two axes
slice by slice, broadcasting the batch axes as numpy does.

Quaternion n-vectors use the same pairing and are passed around as complex
arrays of shape (2, n): row 0 is the (w + x i) part, row 1 the (y + z i) part.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Structure violations up to this relative size are repaired silently;
# anything larger is rejected as a genuine structure error.
HERMITIAN_REPAIR_TOL = 1e-12


class QuatMatrix:
    """Dense quaternion matrix (or stack of them) held as the complex pair (a1, a2)."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1: np.ndarray, a2: np.ndarray):
        a1 = np.asarray(a1, dtype=np.complex128)
        a2 = np.asarray(a2, dtype=np.complex128)
        if a1.ndim < 2 or a1.shape != a2.shape:
            raise InputError(f"component shapes differ: {a1.shape} vs {a2.shape}")
        self.a1 = a1
        self.a2 = a2

    # ---- constructors ---------------------------------------------------------

    @classmethod
    def from_real(cls, m) -> "QuatMatrix":
        m = np.asarray(m, dtype=float)
        return cls(m.astype(np.complex128), np.zeros_like(m, dtype=np.complex128))

    # ---- basic queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.a1.shape[-2:]

    @property
    def rows(self) -> int:
        return self.a1.shape[-2]

    @property
    def cols(self) -> int:
        return self.a1.shape[-1]

    def max_abs(self) -> float:
        if self.a1.size == 0:
            return 0.0
        return float(max(np.max(np.abs(self.a1)), np.max(np.abs(self.a2))))

    # ---- algebra ---------------------------------------------------------------

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        self._check_same_shape(other)
        return QuatMatrix(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        self._check_same_shape(other)
        return QuatMatrix(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(-self.a1, -self.a2)

    def __mul__(self, scalar) -> "QuatMatrix":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return QuatMatrix(self.a1 * scalar, self.a2 * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if not isinstance(other, QuatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        b1, b2 = other.a1, other.a2
        return QuatMatrix(self.a1 @ b1 - self.a2 @ np.conj(b2),
                          self.a1 @ b2 + self.a2 @ np.conj(b1))

    @property
    def H(self) -> "QuatMatrix":
        """The conjugate transpose A* = A1^H - A2^T j."""
        return QuatMatrix(np.swapaxes(self.a1, -1, -2).conj(),
                          -np.swapaxes(self.a2, -1, -2))

    def scale_rows(self, d: np.ndarray) -> "QuatMatrix":
        """Left-multiply by a real diagonal matrix given as a vector."""
        d = np.asarray(d, dtype=float).reshape(-1, 1)
        return QuatMatrix(d * self.a1, d * self.a2)

    def scale_cols(self, d: np.ndarray) -> "QuatMatrix":
        d = np.asarray(d, dtype=float).reshape(1, -1)
        return QuatMatrix(self.a1 * d, self.a2 * d)

    def _check_same_shape(self, other: "QuatMatrix") -> None:
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} vs {other.shape}")

    # ---- structure -------------------------------------------------------------

    def hermitian_violation(self) -> float:
        """Max-abs deviation of (a1, a2) from (Hermitian, skew-symmetric)."""
        return (self - self.H).max_abs()

    def complex_embed(self) -> np.ndarray:
        """The 2r x 2c complex image [[A1, -A2], [conj(A2), conj(A1)]]."""
        r, c = self.shape
        out = np.empty(self.a1.shape[:-2] + (2 * r, 2 * c), dtype=np.complex128)
        out[..., :r, :c] = self.a1
        out[..., :r, c:] = -self.a2
        out[..., r:, :c] = self.a2.conj()
        out[..., r:, c:] = self.a1.conj()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuatMatrix(shape={self.shape})"


class HermitianQuatMatrix(QuatMatrix):
    """Quaternion matrix with A = A*, i.e. a1 Hermitian and a2 skew-symmetric.

    Inputs violating the structure by at most HERMITIAN_REPAIR_TOL relative to
    the matrix scale (over the whole stack) are symmetrized; larger violations
    raise InputError.
    """

    __slots__ = ()

    def __init__(self, a1: np.ndarray, a2: np.ndarray):
        super().__init__(a1, a2)
        if self.rows != self.cols:
            raise InputError("Hermitian matrix must be square")
        scale = max(1.0, self.max_abs())
        violation = self.hermitian_violation()
        if violation > HERMITIAN_REPAIR_TOL * scale:
            raise InputError(
                f"structure violation {violation:.3e} exceeds "
                f"{HERMITIAN_REPAIR_TOL * scale:.3e}")
        self.a1, self.a2 = hermitian_part(self.a1, self.a2)


def hermitian_part(a1: np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A + A*) / 2 of A = a1 + a2 j, on the last two axes.

    Exact symmetrization, so the structure check of an assembled matrix and
    the lowered coefficients need no tolerance.
    """
    return ((a1 + np.swapaxes(a1, -1, -2).conj()) / 2.0,
            (a2 - np.swapaxes(a2, -1, -2)) / 2.0)


def real_diag(d: np.ndarray) -> QuatMatrix:
    """Real diagonal matrices with the last axis of ``d`` on their diagonals."""
    d = np.asarray(d, dtype=float)
    return QuatMatrix.from_real(np.where(np.eye(d.shape[-1], dtype=bool),
                                         d[..., None], 0.0))


# ---- spectra ------------------------------------------------------------------


# the unit roundoff of IEEE double precision, and its smallest subnormal
UNIT_ROUNDOFF = 2.0 ** -53
SUBNORMAL = 2.0 ** -1074


def gamma_k(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): a chain of k roundings, as in a
    sum of k products in any order, errs by at most gamma_k times the same
    chain over magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Sec. 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def proved_positive_definite(h: np.ndarray, floor=0.0) -> bool:
    """Whether every complex Hermitian, or real symmetric, matrix of the
    stack ``h`` (..., d, d) is proved to have all its eigenvalues above
    ``floor`` (a number or one per matrix).

    The proof is Rump's (BIT 46, 2006): if the floating-point Cholesky
    factor of a symmetric A of side D less c I exists, in any order of its
    sums and so in LAPACK's blocked one, with c = gamma_{D+1} /
    (1 - 2 gamma_{D+1}) tr A + 4 D (2 (D + 2) + max A_ii) times the smallest
    subnormal, then A is positive definite. A is a real ``h`` or the real
    image [[Re H, -Im H], [Im H, Re H]] of a complex one, less floor I, and
    the shift is taken at twice c, which covers the rounding of computing
    it and of subtracting it. LAPACK reads the lower triangle only, so for
    an ``h`` that is Hermitian only up to rounding, ``floor`` must also
    cover the upper one. A matrix with an entry that is not finite is not
    proved.
    """
    if not np.isfinite(h).all():
        return False
    if np.iscomplexobj(h):
        d = h.shape[-1]
        real = np.empty(h.shape[:-2] + (2 * d, 2 * d))
        real[..., :d, :d] = real[..., d:, d:] = h.real
        real[..., d:, :d] = h.imag
        real[..., :d, d:] = -h.imag
    else:
        real = np.array(h, dtype=float)
    side = real.shape[-1]
    at = np.arange(side)
    diag = np.abs(real[..., at, at])
    g = gamma_k(side + 1)
    # tr A and max A_ii at most, whatever the sign of floor
    trace = diag.sum(axis=-1) + side * np.abs(floor)
    peak = diag.max(axis=-1) + np.abs(floor)
    shift = floor + 2.0 * (g / (1.0 - 2.0 * g) * trace
                           + 4 * side * (2 * (side + 2) + peak) * SUBNORMAL)
    real[..., at, at] -= np.expand_dims(shift, -1)
    try:
        np.linalg.cholesky(real)
    except np.linalg.LinAlgError:
        return False
    return True


# ---- quaternion vectors as complex pairs ---------------------------------------


def qv_from_components(comp: np.ndarray) -> np.ndarray:
    """(n, 4) real array of [w, x, y, z] rows -> (2, n) complex pair."""
    comp = np.asarray(comp, dtype=float)
    if comp.ndim != 2 or comp.shape[1] != 4:
        raise InputError("expected an (n, 4) component array")
    return np.stack([comp[:, 0] + 1j * comp[:, 1], comp[:, 2] + 1j * comp[:, 3]])

def qv_components(v: np.ndarray) -> np.ndarray:
    """(2, n) complex pair -> (n, 4) real array of [w, x, y, z] rows."""
    v = np.asarray(v, dtype=np.complex128)
    return np.stack([v[0].real, v[0].imag, v[1].real, v[1].imag], axis=1)

def mat_vec(m: QuatMatrix, v: np.ndarray) -> np.ndarray:
    """Quaternion matrix times quaternion vector, both in pair representation."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2, m.cols):
        raise InputError(f"vector shape {v.shape} does not fit matrix {m.shape}")
    return np.stack([m.a1 @ v[0] - m.a2 @ np.conj(v[1]),
                     m.a1 @ v[1] + m.a2 @ np.conj(v[0])])


def qv_embed(v: np.ndarray) -> np.ndarray:
    """Pair-form vector -> the 2n complex vector [v1; conj(v2)].

    This is the first column of the complex embedding of v as an n x 1 matrix,
    so quadratic forms satisfy x* H x = qv_embed(x)^H chi(H) qv_embed(x).
    Leading axes are kept: a (..., 2, n) stack embeds to (..., 2n).
    """
    v = np.asarray(v, dtype=np.complex128)
    return np.concatenate([v[..., 0, :], np.conj(v[..., 1, :])], axis=-1)


# ---- JSON text format ------------------------------------------------------------


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer: not a float, a string or a bool."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_numbers(value, shape: tuple[int, ...], what: str) -> np.ndarray | float:
    """``value``, a JSON number or nested lists of them, as a float array of
    exactly ``shape`` (a float for shape ()); anything else is refused."""
    cells = np.array(value, dtype=object)
    if cells.shape != shape or not {type(v) for v in cells.flat} <= {int, float}:
        kind = f"JSON numbers of shape {shape}" if shape else "a JSON number"
        raise InputError(f"{what} must be {kind}")
    values = cells.astype(float)
    return values if shape else values.item()


def qmat_to_json(m: QuatMatrix) -> dict:
    """Row-major {"rows", "cols", "entries": [[w, x, y, z], ...]} payload."""
    entries = np.stack([m.a1.real, m.a1.imag, m.a2.real, m.a2.imag], -1)
    return {"rows": m.rows, "cols": m.cols,
            "entries": entries.reshape(-1, 4).tolist()}


def qmat_from_json(payload: dict, what: str = "quaternion matrix") -> QuatMatrix:
    """The matrix of a ``qmat_to_json`` payload, named ``what`` if refused."""
    if not isinstance(payload, dict):
        raise InputError(f"{what} must be a JSON object")
    rows = json_int(payload.get("rows"), f"{what} rows")
    cols = json_int(payload.get("cols"), f"{what} cols")
    if rows < 1 or cols < 1:
        raise InputError(f"{what} must have at least one row and one column")
    comp = json_numbers(payload.get("entries"), (rows * cols, 4),
                        f"{what} entries").reshape(rows, cols, 4)
    return QuatMatrix(comp[..., 0] + 1j * comp[..., 1],
                      comp[..., 2] + 1j * comp[..., 3])
