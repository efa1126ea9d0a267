"""Numerical oracles for the two integral/matrix inequalities the
stability criterion rests on: the quaternion Jensen inequality

    (int omega)^* M (int omega)  <=  (b - a) * int omega^* M omega,

and the reciprocally convex bound

    min_{alpha in (0,1)} [ (1/alpha) xi* W1* P W1 xi
                           + (1/(1-alpha)) xi* W2* P W2 xi ]
        >=  (W1 xi, W2 xi)^* [[P, X], [X*, P]] (W1 xi, W2 xi),

valid whenever the coupled block matrix is positive semidefinite.

Both oracles return gap = LHS-bound minus RHS (nonnegative up to float
noise when the hypotheses hold). The Jensen gap evaluates both sides with
the same Simpson weights (``lkf.window_quad`` over the path's whole span,
the rule of ``scipy.integrate.simpson``; every weight is positive), which
makes the discrete gap itself a Cauchy-Schwarz expression in the weighted
samples: nonnegativity then holds for the computed numbers, not just in
the continuum limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, StructureError
from .lkf import window_quad
from .lmi import assemble_blocks
from .qmatrix import (HermitianQuatMatrix, QuatMatrix, definiteness,
                      hermitian_eigvals, hermitian_sqrt, mat_vec, qv_embed,
                      random_hermitian_pd, random_quat_matrix, spectral_norm)

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
        raise StructureError(f"quadratic form has imaginary residue {resid:.3e}")
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
