"""Max-margin semidefinite feasibility by a log-det barrier Newton method.

The problem solved is

    maximize t   subject to   G_k(x) - t I >= 0  for every constraint k,
                              |x_i| <= trust_radius,

where G_k(x) = sum_i x_i A_ki is complex Hermitian (constraints declared
negative-definite are negated first so everything reads "> 0"). Strict
feasibility of the original system is equivalent to a positive optimal t;
every constraint is homogeneous, so x = 0 always achieves t = 0, and
"infeasible" here always means "no margin above the tolerance", never an
empty domain.

The barrier subproblem for weight mu,

    minimize  -t/mu - sum_k 2 log det(G_k(x) - t I)
              - sum_i [log(R - x_i) + log(R + x_i)],

is centered by damped Newton steps; mu shrinks geometrically. The box term
makes the Hessian strictly positive definite, keeps iterates bounded, and
pins the scale of the otherwise homogeneous problem. The classical barrier
bound gives  t_opt - t(mu) <= nu * mu  with nu the total cone dimension, so
the outer loop stops once nu * mu is far below the margin tolerance.

Each block is the complex image chi of a quaternion constraint, and its
log det counts twice: the real symmetric image [[Re G, -Im G], [Im G, Re G]]
has every eigenvalue of G twice, so its log det is 2 log det G, and this
weighting keeps the barrier, its central path and nu = sum_k 2 dim_k + 2m
those of the real form.

Each Newton step works from the sparsity of the coefficients, in the spirit
of the F1-F3 Schur-complement formulas of Fujisawa, Kojima & Nakata (Math.
Prog. 79, 1997). With W = (G_k - t I)^-1 = L^-H L^-1, from the Cholesky
factor L the line search accepted, the block adds

    grad_i = -2 Re tr(W A_i),   H_ij = 2 Re tr(S_i A_j),   S_i = W A_i W,

and the margin column, whose coefficient is -I, adds 2 tr W, 2 ||W||_F^2
and -2 tr S_i. A_i vanishes outside its row support, so for any row set R
that holds it, S_i = W[:, R] A_i[R, R] W[R, :]. The variables are grouped
under the maximal row supports of their block, S_i is batched per group,
and tr(S_i A_j) is one sparse product per group. Every factorization and solve
uses ``numpy.linalg``: scipy ships its own OpenBLAS, and alternating between
the two runtimes' thread pools inside the loop cost more than the step.

A WARNING for readers comparing with production interior-point codes: this is
a feasibility engine, not a general-purpose SDP solver. It has no dual
iterates, no infeasibility certificates, and no presolve beyond
``scale_problem``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InputError, NumericalError
from .lowering import AffineLmi, StandardSdp

_SEED_RETRIES = 5
_ARMIJO_SLOPE = 0.25
_MIN_STEP = 1e-13
_NEWTON_TOLERANCE = 1e-9
_MAX_NEWTON_ITERS = 100
_BARRIER_SHRINK = 0.2
# Each complex Hermitian block stands for its real symmetric image, which
# holds every eigenvalue twice: the block's log det, its derivatives and its
# share of nu count this many times.
_REAL_MULTIPLICITY = 2


@dataclass(frozen=True)
class SolverConfig:
    margin_tolerance: float = 1e-6
    max_outer_iters: int = 60
    trust_radius: float = 1.0
    seed: int = 0


@dataclass
class OuterRecord:
    iteration: int
    barrier_weight: float
    t: float
    min_eig: float
    newton_steps: int
    # largest diagonal shift that made a Hessian of this round factorizable
    # (0.0 when every Hessian was positive definite as computed)
    max_regularization: float
    # the last Newton decrement of this round's centering: below twice the
    # Newton tolerance unless the round stalled or ran out of steps
    newton_decrement: float


@dataclass
class FeasibilityResult:
    status: str                      # feasible | infeasible_at_tolerance | numerical_failure
    margin: float                    # best certified t
    x: np.ndarray | None
    per_constraint_min_eig: dict[str, float]
    iterations: int                  # total Newton steps
    outer_rounds: int
    wall_time: float
    seed_used: int = 0
    trace: list[OuterRecord] = field(default_factory=list)
    # message of the last NumericalError met: the cause of a numerical
    # failure, or of the seed restarts before a result; None if none occurred
    failure_cause: str | None = None
    # line searches that found no acceptable step, so centering stopped early
    # at the current point (counted over the run that produced the result)
    stalled_line_searches: int = 0


@dataclass
class ScalingRecord:
    """Per-variable factors applied by scale_problem; maps solutions back."""

    factors: np.ndarray

    def map_back(self, x_scaled: np.ndarray) -> np.ndarray:
        return np.asarray(x_scaled, dtype=float) / self.factors


def _entry_rows(a: scipy.sparse.csr_array) -> np.ndarray:
    """The row of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def scale_problem(sdp: StandardSdp) -> tuple[StandardSdp, ScalingRecord]:
    """Rescale each variable's coefficient matrices to unit Frobenius order.

    The norm is that of the real image, sqrt(2 sum |a|^2) over the complex
    entries a. The feasibility classification is unchanged (the map
    x_i = x_scaled_i / s_i is a bijection and leaves constraint values
    pointwise identical); variables whose coefficients vanish in every
    constraint keep the factor 1.
    """
    m = sdp.num_vars
    rows = [_entry_rows(lmi.coeffs) for lmi in sdp.lmis]
    norms = np.zeros(m)
    for lmi, r in zip(sdp.lmis, rows):
        norms = np.maximum(norms, np.sqrt(np.bincount(
            r, weights=_REAL_MULTIPLICITY * np.abs(lmi.coeffs.data) ** 2,
            minlength=m)))
    factors = np.where(norms == 0.0, 1.0, norms)
    lmis = [AffineLmi(l.name, l.sense, l.dim, scipy.sparse.csr_array(
                (l.coeffs.data / factors[r], l.coeffs.indices, l.coeffs.indptr),
                shape=l.coeffs.shape))
            for l, r in zip(sdp.lmis, rows)]
    scaled = StandardSdp(num_vars=m, lmis=lmis)
    return scaled, ScalingRecord(factors=factors)


class _Block:
    """One oriented constraint sum_i x_i A_i > 0, stored by support.

    ``active`` holds the variables with a nonzero coefficient;
    ``coeffs_conj`` holds their flattened conj(A_i) as CSR rows, in the same
    order, stored once because every derivative reads it, and ``coeffs_t``
    the transpose of the A_i rows, which evaluation reads. ``groups`` holds,
    per row set R, the rows of ``active`` assigned to it and their dense
    A_i[R, R], stored as A_i[b, a] at [b, (a, i)], so that one product with
    W[:, R] gives W A_i for the whole group. The row sets are the maximal
    row supports; each variable joins the smallest one holding its own
    support (A_i vanishes on the extra rows, so S_i is unchanged).
    """

    def __init__(self, lmi: AffineLmi):
        a = lmi.coeffs if lmi.sense == "pd" else -lmi.coeffs
        self.name = lmi.name
        self.dim = d = lmi.dim
        # row and column support per variable, from the stored entries
        owner = _entry_rows(a)
        p, q = np.divmod(a.indices, d)
        support = np.zeros((a.shape[0], d), dtype=bool)
        support[owner, p] = True
        support[owner, q] = True
        used = np.flatnonzero(support.any(axis=1))
        rowsets, which = np.unique(support[used], axis=0, return_inverse=True)
        # inside[p, q]: row set p lies within row set q
        inside = rowsets.astype(np.intp) @ (~rowsets).T.astype(np.intp) == 0
        maximal = inside.sum(axis=1) == 1      # within itself only
        # each variable joins the smallest maximal row set holding its own
        size = np.where(maximal, rowsets.sum(axis=1), d + 1)
        target = np.argmin(np.where(inside, size, d + 1), axis=1)[which.ravel()]
        active, self.groups = [], []
        local = np.zeros(d, dtype=np.intp)
        for g in np.unique(target):
            members = used[target == g]
            r = np.flatnonzero(rowsets[g])
            local[r] = np.arange(len(r))
            rows = a[members]
            p, q = np.divmod(rows.indices, d)
            sub = np.zeros((len(members), len(r), len(r)), dtype=a.dtype)
            sub[_entry_rows(rows), local[p], local[q]] = rows.data
            if np.max(np.abs(sub - sub.transpose(0, 2, 1).conj())) > 1e-12:
                raise InputError(f"constraint {lmi.name} has non-Hermitian "
                                 "coefficients")
            start = len(active)
            self.groups.append((r, slice(start, start + len(members)),
                                sub.transpose(1, 2, 0).reshape(len(r), -1)))
            active.extend(members.tolist())
        self.active = np.array(active, dtype=np.intp)
        coeffs = a[self.active]
        self.coeffs_t = coeffs.T
        self.coeffs_conj = coeffs.conj()

    def evaluate(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """sum_i x_i A_i - t I at the full variable vector x."""
        s = (self.coeffs_t @ x[self.active]).reshape(self.dim, self.dim)
        s.flat[::self.dim + 1] -= t
        return s

    def grad_hess(self, chol: np.ndarray):
        """Barrier derivatives of -2 log det at the point whose factor is chol.

        Returns (grad over ``active``, grad in t, Hessian over ``active``,
        its t column over ``active``, its (t, t) entry). Every trace is
        tr(X A_i) = sum conj(A_i) * X over the entries, as A_i is Hermitian.
        """
        linv = np.linalg.inv(chol)
        w = linv.T.conj() @ linv
        d, k = self.dim, len(self.active)
        c = _REAL_MULTIPLICITY
        grad = -c * (self.coeffs_conj @ w.ravel()).real
        hess_t = -c * (self.coeffs_conj @ (w @ w).ravel()).real  # -tr(W A_i W)
        hess = np.empty((k, k))
        for r, rows_of, acat in self.groups:
            kg = rows_of.stop - rows_of.start
            # (W A_i)[p, a] at [p, a, i], then one product per p with
            # W[R, :] gives S_i[p, q] at [p, q, i]: the layout the sparse
            # product reads
            u = (w[:, r] @ acat).reshape(d, len(r), kg)
            s = np.matmul(w[r].T, u)
            hess[:, rows_of] = c * (self.coeffs_conj @ s.reshape(d * d, kg)).real
        return (grad, c * float(np.trace(w).real), hess, hess_t,
                c * float(np.vdot(w, w).real))


def _try_cholesky(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _in_domain(blocks, z, radius, m):
    if np.any(np.abs(z[:m]) >= radius):
        return None
    chols = []
    for block in blocks:
        l = _try_cholesky(block.evaluate(z[:m], z[m]))
        if l is None:
            return None
        chols.append(l)
    return chols


def _barrier_value(chols, z, radius, m, mu):
    logdets = sum(_REAL_MULTIPLICITY * 2.0 * np.sum(np.log(np.diag(l).real))
                  for l in chols)
    box = np.sum(np.log(radius - z[:m])) + np.sum(np.log(radius + z[:m]))
    return -z[m] / mu - logdets - box


def _grad_hess(blocks, chols, z, radius, m, mu):
    """Gradient and Hessian of the barrier objective at an interior point z,
    given the Cholesky factors of every block at z."""
    grad = np.zeros(m + 1)
    hess = np.zeros((m + 1, m + 1))
    grad[m] -= 1.0 / mu
    for block, l in zip(blocks, chols):
        g, g_t, h, h_t, h_tt = block.grad_hess(l)
        idx = block.active
        grad[idx] += g
        grad[m] += g_t
        hess[np.ix_(idx, idx)] += h
        hess[idx, m] += h_t
        hess[m, idx] += h_t
        hess[m, m] += h_tt
    xs = z[:m]
    grad[:m] += 1.0 / (radius - xs) - 1.0 / (radius + xs)
    idx = np.arange(m)
    hess[idx, idx] += 1.0 / (radius - xs) ** 2 + 1.0 / (radius + xs) ** 2
    return grad, (hess + hess.T) / 2.0


def _newton_center(blocks, z, radius, m, mu, chols):
    """Damped Newton minimization of the barrier subproblem.

    Returns (z, steps, chols, stalled, max_reg, decrement): chols are the
    factors at the returned z, stalled is True when a line search found no
    acceptable step, max_reg is the largest Hessian regularization used, and
    decrement is the last Newton decrement computed.
    """
    steps = 0
    max_reg = 0.0
    eye = np.eye(m + 1)
    for _ in range(_MAX_NEWTON_ITERS):
        grad, hess = _grad_hess(blocks, chols, z, radius, m, mu)
        if not np.all(np.isfinite(grad)):
            raise NumericalError("barrier gradient evaluation left the domain")
        reg = 0.0
        for _attempt in range(60):
            shifted = hess + reg * eye
            if _try_cholesky(shifted) is not None:
                break
            trace_scale = max(np.trace(hess) / (m + 1), 1.0)
            reg = 2.0 * reg if reg > 0 else 1e-12 * trace_scale
        else:
            raise NumericalError("Hessian factorization failed despite regularization")
        max_reg = max(max_reg, reg)
        direction = np.linalg.solve(shifted, -grad)
        decrement = float(-grad @ direction)
        if not np.isfinite(decrement) or decrement < 0:
            raise NumericalError("Newton decrement is not finite")
        if decrement / 2.0 <= _NEWTON_TOLERANCE:
            return z, steps, chols, False, max_reg, decrement
        f0 = _barrier_value(chols, z, radius, m, mu)
        alpha = 1.0
        accepted = False
        while alpha > _MIN_STEP:
            cand = z + alpha * direction
            cand_chols = _in_domain(blocks, cand, radius, m)
            if cand_chols is not None:
                f1 = _barrier_value(cand_chols, cand, radius, m, mu)
                if f1 <= f0 - _ARMIJO_SLOPE * alpha * decrement:
                    z, chols = cand, cand_chols
                    accepted = True
                    break
            alpha *= 0.5
        steps += 1
        if not accepted:
            # stalled line search: treat the current point as centered enough
            return z, steps, chols, True, max_reg, decrement
    return z, steps, chols, False, max_reg, decrement


def _min_eig(blocks, x):
    return min(float(np.linalg.eigvalsh(b.evaluate(x))[0]) for b in blocks) \
        if blocks else 0.0


def solve_feasibility(sdp: StandardSdp, config: SolverConfig | None = None
                      ) -> FeasibilityResult:
    """Run the barrier method, retrying from fresh seeds on numerical failure.

    The reported margin is the best t reached on the central path; it is
    nondecreasing across outer rounds. Fixed seeds give identical runs.
    """
    cfg = config or SolverConfig()
    blocks = [_Block(lmi) for lmi in sdp.lmis]
    m = sdp.num_vars
    nu = sum(_REAL_MULTIPLICITY * b.dim for b in blocks) + 2 * m
    gap_target = min(0.05 * cfg.margin_tolerance, 1e-8)
    start = time.perf_counter()

    last_error = None
    for attempt in range(_SEED_RETRIES):
        seed = cfg.seed + attempt
        rng = np.random.default_rng(seed)
        x0 = 0.1 * cfg.trust_radius * rng.uniform(-1.0, 1.0, size=m)
        base_eig = _min_eig(blocks, x0)
        t0 = base_eig - max(1.0, 0.1 * abs(base_eig))
        z = np.concatenate([x0, [t0]])
        chols = _in_domain(blocks, z, cfg.trust_radius, m)
        if chols is None:
            last_error = NumericalError("could not find an interior starting point")
            continue
        try:
            # center the barrier weight so the start is balanced in t:
            # 2 tr (LL^H)^-1 = 2 ||L^-1||_F^2
            pull = _REAL_MULTIPLICITY * sum(
                float(np.sum(np.abs(np.linalg.inv(l)) ** 2)) for l in chols)
            mu = 1.0 / max(pull, 1e-12)
            best_t, best_x = -np.inf, None
            trace: list[OuterRecord] = []
            total_steps = 0
            stalled = 0
            outer = 0
            while outer < cfg.max_outer_iters:
                z, steps, chols, stall, max_reg, decrement = _newton_center(
                    blocks, z, cfg.trust_radius, m, mu, chols)
                total_steps += steps
                stalled += stall
                outer += 1
                t_now = float(z[m])
                if t_now > best_t:
                    best_t, best_x = t_now, z[:m].copy()
                trace.append(OuterRecord(outer, mu, t_now,
                                         _min_eig(blocks, z[:m]), steps,
                                         max_reg, decrement))
                if nu * mu <= gap_target:
                    break
                mu *= _BARRIER_SHRINK
            status = ("feasible" if best_t >= cfg.margin_tolerance
                      else "infeasible_at_tolerance")
            return FeasibilityResult(
                status=status, margin=best_t, x=best_x,
                per_constraint_min_eig={
                    b.name: float(np.linalg.eigvalsh(b.evaluate(best_x))[0])
                    for b in blocks},
                iterations=total_steps, outer_rounds=outer,
                wall_time=time.perf_counter() - start, seed_used=seed,
                trace=trace,
                failure_cause=str(last_error) if last_error else None,
                stalled_line_searches=stalled)
        except NumericalError as exc:
            last_error = exc
            continue
    return FeasibilityResult(
        status="numerical_failure", margin=-np.inf, x=None,
        per_constraint_min_eig={},
        iterations=0, outer_rounds=0, wall_time=time.perf_counter() - start,
        seed_used=cfg.seed, trace=[], failure_cause=str(last_error))
