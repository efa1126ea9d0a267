"""Max-margin semidefinite feasibility by a log-det barrier Newton method.

The problem solved is

    maximize t   subject to   G_k(x) - t I >= 0  for every constraint k,
                              |x_i| <= R = 1,

where G_k(x) = sum_i x_i A_ki is complex Hermitian and every constraint
reads "> 0". Strict feasibility of the original system is equivalent to a
positive optimal t; every constraint is homogeneous, so x = 0 always
achieves t = 0, and "infeasible" here always means "no margin above the
tolerance", never an empty domain.

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
and tr(S_i A_j) is one sparse product per group.

The criterion is a fixed list of small constraints of few shapes (at n = 2,
Omega and 16 blocks of three shapes), so the solver works on stacks, not on
single constraints: a stack is every constraint with the same side, the same
support row sets and the same group sizes, Omega a stack of one. Evaluation
is one sparse product per stack, the line search one batched Cholesky per
stack, and a Newton step one batched inverse, one batched product per group
and one sparse product per group for all members. Every stack's gradient
and Hessian entries then reach the (m + 1)^2 Hessian through flat indices
computed at set-up, in one ``np.bincount``, which adds up the entries of
members that share a variable. Every factorization and solve uses
``numpy.linalg``: scipy ships its own OpenBLAS, and alternating between the
two runtimes' thread pools inside the loop cost more than the step.

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
# R of the box |x_i| <= R. Every constraint is homogeneous, so the optimal t
# is proportional to R: the box fixes the scale in which the margin and its
# tolerance are stated.
_TRUST_RADIUS = 1.0
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
    # seconds of the run that produced the result spent on barrier
    # derivatives, on the Hessian factorization and solve, and on line search
    phase_seconds: dict[str, float] = field(default_factory=dict)


def _entry_rows(a: scipy.sparse.csr_array) -> np.ndarray:
    """The row of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))


def scale_problem(sdp: StandardSdp) -> tuple[StandardSdp, np.ndarray]:
    """Rescale each variable's coefficient matrices to unit Frobenius order.

    Returns the scaled problem and the factors s: a solution x_scaled of it
    is x = x_scaled / s of the original. The norm is that of the real image,
    sqrt(2 sum |a|^2) over the complex entries a, taken as
    max |a| sqrt(2 sum (|a| / max |a|)^2) so that no square overflows or
    underflows. The feasibility classification is unchanged (the map is a
    bijection and leaves constraint values pointwise identical); variables
    whose coefficients vanish in every constraint keep the factor 1.
    """
    m = sdp.num_vars
    rows = [_entry_rows(lmi.coeffs) for lmi in sdp.lmis]
    norms = np.zeros(m)
    for lmi, r in zip(sdp.lmis, rows):
        mag = np.abs(lmi.coeffs.data)
        peak = np.zeros(m)
        np.maximum.at(peak, r, mag)
        unit = mag / np.where(peak > 0.0, peak, 1.0)[r]
        norms = np.maximum(norms, peak * np.sqrt(np.bincount(
            r, weights=_REAL_MULTIPLICITY * unit ** 2, minlength=m)))
    factors = np.where(norms == 0.0, 1.0, norms)
    lmis = [AffineLmi(l.name, l.dim, scipy.sparse.csr_array(
                (l.coeffs.data / factors[r], l.coeffs.indices, l.coeffs.indptr),
                shape=l.coeffs.shape))
            for l, r in zip(sdp.lmis, rows)]
    return StandardSdp(num_vars=m, lmis=lmis), factors


def _support_groups(lmi: AffineLmi) -> list[tuple[np.ndarray, np.ndarray]]:
    """(R, variables) for each maximal row support R of one constraint.
    Each variable with a nonzero coefficient joins the smallest maximal row
    set holding its own support (A_i vanishes on the extra rows, so S_i is
    unchanged)."""
    a = lmi.coeffs
    d = lmi.dim
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
    size = np.where(maximal, rowsets.sum(axis=1), d + 1)
    target = np.argmin(np.where(inside, size, d + 1), axis=1)[which.ravel()]
    return [(np.flatnonzero(rowsets[g]), used[target == g])
            for g in np.unique(target)]


class _Stack:
    """Every constraint of one shape, sum_i x_i A_ki > 0 for each member k.

    The shape is the side d, the row sets R of the support groups and the
    number of variables in each, so every member has the same count of
    active variables and the same dense group layout. ``active[k]`` holds
    member k's variables, group by group. ``coeffs_conj`` holds their
    flattened conj(A_ki) as one block-diagonal CSR matrix, member-major:
    row k * len(active[k]) + j is member k's j-th variable, and its columns
    are member k's d * d entries. It is the one copy of the coefficients,
    and every derivative reads it with one sparse product for all members.
    Evaluation reads it through ``coeffs_conj_t``, its transpose: a view
    that shares its arrays, made once because making it costs more than
    the product. ``groups`` holds, per row set R, the slice of ``active``
    assigned to it and the members' dense A_i[R, R], stored as A_i[b, a] at
    [k, b, (a, i)], so that one batched product with W[:, :, R] gives W A_i
    for the whole group of every member. ``grad_index`` and ``hess_index``
    are the flat positions in the (m + 1)-vector and the (m + 1)^2 matrix
    of the weights ``grad_hess`` returns.
    """

    def __init__(self, parts, num_vars: int):
        lmis = [lmi for lmi, _ in parts]
        self.names = [lmi.name for lmi in lmis]
        self.dim = d = lmis[0].dim
        nb = len(parts)
        dtype = np.result_type(*(lmi.coeffs.dtype for lmi in lmis))
        self.groups = []
        start = 0
        local = np.zeros(d, dtype=np.intp)
        for g, (r, members) in enumerate(parts[0][1]):
            kg = len(members)
            local[r] = np.arange(len(r))
            acat = np.zeros((nb, len(r), len(r) * kg), dtype=dtype)
            for k, (lmi, groups) in enumerate(parts):
                rows = lmi.coeffs[groups[g][1]]
                p, q = np.divmod(rows.indices, d)
                acat[k, local[p], local[q] * kg + _entry_rows(rows)] = rows.data
                sub = acat[k].reshape(len(r), len(r), kg)
                if np.max(np.abs(sub - sub.transpose(1, 0, 2).conj())) > 1e-12:
                    raise InputError(f"constraint {lmi.name} has "
                                     "non-Hermitian coefficients")
            self.groups.append((r, slice(start, start + kg), acat))
            start += kg
        self.active = np.array(
            [np.concatenate([members for _, members in groups])
             for _, groups in parts], dtype=np.intp)
        rows = [lmi.coeffs[act].conj() for lmi, act in zip(lmis, self.active)]
        nnz = np.cumsum([0] + [r.nnz for r in rows])
        self.coeffs_conj = scipy.sparse.csr_array(
            (np.concatenate([r.data for r in rows]),
             np.concatenate([r.indices + k * d * d for k, r in enumerate(rows)]),
             np.concatenate([[0]] + [r.indptr[1:] + nnz[k]
                                     for k, r in enumerate(rows)])),
            shape=(nb * start, nb * d * d))
        self.coeffs_conj_t = self.coeffs_conj.T
        act, n1 = self.active, num_vars + 1
        self.grad_index = np.append(act.ravel(), num_vars)
        self.hess_index = np.concatenate([
            (act[:, :, None] * n1 + act[:, None, :]).ravel(),
            act.ravel() * n1 + num_vars, num_vars * n1 + act.ravel(),
            [num_vars * n1 + num_vars]])

    def evaluate(self, x: np.ndarray, t: float = 0.0) -> np.ndarray:
        """sum_i x_i A_ki - t I of every member k, as (members, d, d), at the
        full variable vector x: x is real, so each sum is the conjugate of
        sum_i x_i conj(A_ki), bit for bit."""
        d = self.dim
        s = np.conj(self.coeffs_conj_t @ x[self.active.ravel()]).reshape(-1, d, d)
        s.reshape(len(s), -1)[:, ::d + 1] -= t
        return s

    def grad_hess(self, chol: np.ndarray):
        """Barrier derivatives of -2 log det at the point whose factors are
        chol, as (gradient weights, Hessian weights) at ``grad_index`` and
        ``hess_index``: the gradient over every member's active variables
        and in t, then the Hessian blocks, their t column and row, and the
        (t, t) entry. Every trace is tr(X A_i) = sum conj(A_i) * X over the
        entries, as A_i is Hermitian.
        """
        linv = np.linalg.inv(chol)
        w = linv.conj().transpose(0, 2, 1) @ linv
        nb, d, k = len(w), self.dim, self.active.shape[1]
        c = _REAL_MULTIPLICITY
        grad = -c * (self.coeffs_conj @ w.ravel()).real
        hess_t = -c * (self.coeffs_conj @ (w @ w).ravel()).real  # -tr(W A_i W)
        hess = np.empty((nb, k, k))
        for r, cols, acat in self.groups:
            kg = cols.stop - cols.start
            # (W A_i)[p, a] at [k, p, a, i], then one product per (k, p)
            # with W[R, :] gives S_i[p, q] at [k, p, q, i]: the layout the
            # sparse product reads
            u = (w[:, :, r] @ acat).reshape(nb, d, len(r), kg)
            s = np.matmul(w[:, r].transpose(0, 2, 1)[:, None], u)
            hess[:, :, cols] = c * (self.coeffs_conj @ s.reshape(nb * d * d, kg)
                                    ).real.reshape(nb, k, kg)
        return (np.append(grad, c * np.trace(w, axis1=1, axis2=2).real.sum()),
                np.concatenate([hess.ravel(), hess_t, hess_t,
                                [c * np.vdot(w, w).real]]))


def _stack_constraints(sdp: StandardSdp) -> list[_Stack]:
    """The constraints as stacks of one shape each, in the order their first
    member appears in the constraint list."""
    shapes: dict = {}
    for lmi in sdp.lmis:
        groups = _support_groups(lmi)
        key = (lmi.dim, tuple((tuple(r.tolist()), len(members))
                              for r, members in groups))
        shapes.setdefault(key, []).append((lmi, groups))
    return [_Stack(parts, sdp.num_vars) for parts in shapes.values()]


def _try_cholesky(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _in_domain(stacks, z, m):
    """The Cholesky factors of every stack at z, (members, d, d) each, or
    None when z is outside the box or any member is not positive definite."""
    if np.any(np.abs(z[:m]) >= _TRUST_RADIUS):
        return None
    chols = []
    for stack in stacks:
        l = _try_cholesky(stack.evaluate(z[:m], z[m]))
        if l is None:
            return None
        chols.append(l)
    return chols


def _barrier_value(chols, z, m, mu):
    logdets = sum(_REAL_MULTIPLICITY * 2.0 * np.sum(np.log(
        np.diagonal(l, axis1=1, axis2=2).real)) for l in chols)
    box = (np.sum(np.log(_TRUST_RADIUS - z[:m]))
           + np.sum(np.log(_TRUST_RADIUS + z[:m])))
    return -z[m] / mu - logdets - box


def _grad_hess(stacks, chols, z, m, mu):
    """Gradient and Hessian of the barrier objective at an interior point z,
    given the Cholesky factors of every stack at z. Every stack's weights
    land at their flat indices through one sum per output, so members that
    share a variable add up."""
    parts = [stack.grad_hess(l) for stack, l in zip(stacks, chols)]
    n1 = m + 1
    grad = np.bincount(np.concatenate([s.grad_index for s in stacks]),
                       weights=np.concatenate([g for g, _ in parts]),
                       minlength=n1)
    hess = np.bincount(np.concatenate([s.hess_index for s in stacks]),
                       weights=np.concatenate([h for _, h in parts]),
                       minlength=n1 * n1).reshape(n1, n1)
    grad[m] -= 1.0 / mu
    xs = z[:m]
    grad[:m] += 1.0 / (_TRUST_RADIUS - xs) - 1.0 / (_TRUST_RADIUS + xs)
    idx = np.arange(m)
    hess[idx, idx] += (1.0 / (_TRUST_RADIUS - xs) ** 2
                       + 1.0 / (_TRUST_RADIUS + xs) ** 2)
    return grad, (hess + hess.T) / 2.0


def _newton_center(stacks, z, m, mu, chols, clock):
    """Damped Newton minimization of the barrier subproblem.

    Returns (z, steps, chols, stalled, max_reg, decrement): chols are the
    factors at the returned z, stalled is True when a line search found no
    acceptable step, max_reg is the largest Hessian regularization used, and
    decrement is the last Newton decrement computed. The seconds spent on
    derivatives, on the Hessian factorization and solve, and on the line
    search are added to ``clock``.
    """
    steps = 0
    max_reg = 0.0
    eye = np.eye(m + 1)
    for _ in range(_MAX_NEWTON_ITERS):
        tick = time.perf_counter()
        grad, hess = _grad_hess(stacks, chols, z, m, mu)
        tock = time.perf_counter()
        clock["derivatives_seconds"] += tock - tick
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
        tick = time.perf_counter()
        clock["newton_solve_seconds"] += tick - tock
        if not np.isfinite(decrement) or decrement < 0:
            raise NumericalError("Newton decrement is not finite")
        if decrement / 2.0 <= _NEWTON_TOLERANCE:
            return z, steps, chols, False, max_reg, decrement
        f0 = _barrier_value(chols, z, m, mu)
        alpha = 1.0
        accepted = False
        while alpha > _MIN_STEP:
            cand = z + alpha * direction
            cand_chols = _in_domain(stacks, cand, m)
            if cand_chols is not None:
                f1 = _barrier_value(cand_chols, cand, m, mu)
                if f1 <= f0 - _ARMIJO_SLOPE * alpha * decrement:
                    z, chols = cand, cand_chols
                    accepted = True
                    break
            alpha *= 0.5
        steps += 1
        clock["line_search_seconds"] += time.perf_counter() - tick
        if not accepted:
            # stalled line search: treat the current point as centered enough
            return z, steps, chols, True, max_reg, decrement
    return z, steps, chols, False, max_reg, decrement


def _min_eigs(stacks, x) -> dict[str, float]:
    """The smallest eigenvalue of every member at x, by name."""
    eigs = {}
    for stack in stacks:
        eigs.update(zip(stack.names,
                        np.linalg.eigvalsh(stack.evaluate(x))[:, 0].tolist()))
    return eigs



def solve_feasibility(sdp: StandardSdp, config: SolverConfig | None = None
                      ) -> FeasibilityResult:
    """Run the barrier method from the start drawn with seed 0, and restart
    from the next seed's start after a numerical failure (seeds 0..4).

    The reported margin is the best t reached on the central path; it is
    nondecreasing across outer rounds. Runs are bitwise deterministic.
    """
    cfg = config or SolverConfig()
    stacks = _stack_constraints(sdp)
    m = sdp.num_vars
    nu = sum(_REAL_MULTIPLICITY * s.dim * len(s.names) for s in stacks) + 2 * m
    gap_target = min(0.05 * cfg.margin_tolerance, 1e-8)
    start = time.perf_counter()

    last_error = None
    for seed in range(_SEED_RETRIES):
        rng = np.random.default_rng(seed)
        x0 = 0.1 * _TRUST_RADIUS * rng.uniform(-1.0, 1.0, size=m)
        base_eig = min(_min_eigs(stacks, x0).values())
        t0 = base_eig - max(1.0, 0.1 * abs(base_eig))
        z = np.concatenate([x0, [t0]])
        chols = _in_domain(stacks, z, m)
        if chols is None:
            last_error = NumericalError("could not find an interior starting point")
            continue
        clock = dict.fromkeys(("derivatives_seconds", "newton_solve_seconds",
                               "line_search_seconds"), 0.0)
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
                    stacks, z, m, mu, chols, clock)
                total_steps += steps
                stalled += stall
                outer += 1
                t_now = float(z[m])
                if t_now > best_t:
                    best_t, best_x = t_now, z[:m].copy()
                trace.append(OuterRecord(
                    outer, mu, t_now, min(_min_eigs(stacks, z[:m]).values()),
                    steps, max_reg, decrement))
                if nu * mu <= gap_target:
                    break
                mu *= _BARRIER_SHRINK
            status = ("feasible" if best_t >= cfg.margin_tolerance
                      else "infeasible_at_tolerance")
            eigs = _min_eigs(stacks, best_x)
            return FeasibilityResult(
                status=status, margin=best_t, x=best_x,
                per_constraint_min_eig={l.name: eigs[l.name] for l in sdp.lmis},
                iterations=total_steps, outer_rounds=outer,
                wall_time=time.perf_counter() - start, seed_used=seed,
                trace=trace,
                failure_cause=str(last_error) if last_error else None,
                stalled_line_searches=stalled, phase_seconds=clock)
        except NumericalError as exc:
            last_error = exc
            continue
    return FeasibilityResult(
        status="numerical_failure", margin=-np.inf, x=None,
        per_constraint_min_eig={},
        iterations=0, outer_rounds=0, wall_time=time.perf_counter() - start,
        trace=[], failure_cause=str(last_error))
