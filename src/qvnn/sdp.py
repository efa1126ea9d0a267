"""Max-margin semidefinite feasibility by a primal-dual interior-point method.

The problem solved is

    maximize t   subject to   S_k = G_k(x) - t I >= 0  for every constraint k,
                              1 - x_i >= 0,  1 + x_i >= 0,

where G_k(x) = sum_i x_i A_ki is complex Hermitian and every constraint
reads "> 0". Strict feasibility of the original system is equivalent to a
positive optimal t; every constraint is homogeneous, so x = 0 always
achieves t = 0, and "infeasible" here always means "no margin above the
tolerance", never an empty domain. The box |x_i| <= R = 1 pins the scale of
the otherwise homogeneous problem: the optimal t is proportional to R.

In the standard form of SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw.
11, 1999) this is the dual problem in y = (x, t), with the S_k as
semidefinite cones under <U, V> = Re tr(U V) and the box as two linear
cones. Its primal has a Hermitian X_k >= 0 per constraint and u, l >= 0
per variable, with

    sum_k tr X_k = 1,   u_i - l_i = sum_k Re tr(A_ki X_k),

and objective sum(u + l), which bounds every feasible t once the primal
equations hold. The solver is an infeasible-start path-following method
with the Nesterov-Todd (NT) direction (Math. Oper. Res. 22, 1997) and
Mehrotra's predictor-corrector. It starts at y = (0, -1), where every
S_k = I, and evaluates S = S(y) at every iterate, so each iterate is dual
feasible: its t is a margin that its x attains. The primal starts at
X_k = I, u = l = 1 and becomes feasible as the steps shrink its residual.
The run stops once the gap sum(u + l) - t is at most the target and the
primal residual at most 1e-9.

For each block the NT scaling G, with G^H S G = G^-1 X G^-H = diag(lambda),
comes from the Cholesky factors L_X, L_S and the SVD L_S^H L_X =
U diag(lambda) V^H as G = L_X V diag(lambda)^-1/2; W = G G^H satisfies
W S W = X. The complementarity equations are linearized in the scaled
space, where the iterate is diagonal, and the step lengths to the boundary
are the eigenvalues of the scaled steps. The Schur complement is

    M_ij = <A_i, W A_j W> = Re tr(A_i W A_j W)

over the variables and t, whose coefficient is -I, plus
diag(u / (1 - x) + l / (1 + x)) from the box, which keeps M positive
definite; the predictor and the corrector solve with one Cholesky factor
of M.

M works from the sparsity of the coefficients, in the spirit of the F1-F3
Schur-complement formulas of Fujisawa, Kojima & Nakata (Math. Prog. 79,
1997). A_i vanishes outside its row support, so for any row set R that
holds it, W A_i W = W[:, R] A_i[R, R] W[R, :]. The variables are grouped
under the maximal row supports of their block, W A_i W is batched per
group, and tr(W A_i W A_j) is one sparse product per group.

The criterion is a fixed list of small constraints of few shapes (at n = 2,
Omega and 14 blocks of three shapes), so the solver works on stacks, not on
single constraints: a stack is every constraint with the same side, the same
support row sets and the same group sizes, Omega a stack of one. Evaluation
of S and the primal operator <A_i, U> are one sparse product per stack, and
the scaling, the step lengths and the Schur complement are batched over the
members. Every stack's Schur entries then reach the (m + 1)^2 matrix
through flat indices computed at set-up, in one ``np.bincount``, which adds
up the entries of members that share a variable. Every factorization and
solve uses ``numpy.linalg``: scipy ships its own OpenBLAS, and alternating
between the two runtimes' thread pools inside the loop cost more than the
step.

This is a feasibility engine, not a general-purpose SDP solver: it has no
infeasibility certificates and no presolve beyond ``scale_problem``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InputError, NumericalError
from .lowering import AffineLmi, StandardSdp

# Each complex Hermitian constraint stands for its real symmetric image,
# whose Frobenius norm is this many times the complex one's, squared.
_REAL_MULTIPLICITY = 2
# the largest violation of a primal equation at which the run may stop
_RESIDUAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    margin_tolerance: float = 1e-6
    # the cap on primal-dual iterations
    max_outer_iters: int = 60


@dataclass
class IterationRecord:
    iteration: int
    t: float                 # the iterate's margin, attained by its x
    bound: float             # the primal objective sum(u + l)
    gap: float               # bound - t
    primal_residual: float   # largest violation of the primal equations
    primal_step: float
    dual_step: float
    min_eig: float           # smallest eigenvalue of every G_k(x)


@dataclass
class FeasibilityResult:
    status: str                      # feasible | infeasible_at_tolerance | numerical_failure
    margin: float                    # best t over the iterates
    x: np.ndarray | None
    per_constraint_min_eig: dict[str, float]
    iterations: int                  # primal-dual iterations completed
    wall_time: float
    gap: float = np.inf              # bound - t at the reported iterate
    trace: list[IterationRecord] = field(default_factory=list)
    # message of the NumericalError that ended the run, or None
    failure_cause: str | None = None
    # seconds spent on the NT scaling and the Schur complement, on factoring
    # the Schur complement, and on directions, step lengths and updates
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
    set holding its own support (A_i vanishes on the extra rows, so
    W A_i W is unchanged)."""
    a = lmi.coeffs
    d = lmi.dim
    if not np.any(a.data):
        raise InputError(f"constraint {lmi.name} has no nonzero coefficient")
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
    and the primal operator and the Schur complement read it with one
    sparse product for all members. Evaluation reads it through
    ``coeffs_conj_t``, its transpose: a view that shares its arrays, made
    once because making it costs more than the product. ``groups`` holds,
    per row set R, the slice of ``active`` assigned to it and the members'
    dense A_i[R, R], stored as A_i[b, a] at [k, b, (a, i)], so that one
    batched product with W[:, :, R] gives W A_i for the whole group of
    every member. ``grad_index`` and ``hess_index`` are the flat positions
    in the (m + 1)-vector and the (m + 1)^2 matrix of the weights ``apply``
    and ``schur`` return.
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

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The primal operator at the Hermitian blocks u, (members, d, d):
        -Re tr(A_ki U_k) for every member's active variables, then the sum
        of tr U_k for t, as weights at ``grad_index``. Every trace is
        tr(A_i U) = sum conj(A_i) * U over the entries, as A_i is Hermitian.
        """
        return np.append(-(self.coeffs_conj @ u.ravel()).real,
                         np.trace(u, axis1=1, axis2=2).real.sum())

    def schur(self, w: np.ndarray) -> np.ndarray:
        """The Schur complement weights at the NT scaling matrices w, at
        ``hess_index``: Re tr(A_i W A_j W) over every member's active
        variables, then the t column and row, -Re tr(A_i W W), and the
        (t, t) entry ||W||_F^2."""
        nb, d, k = len(w), self.dim, self.active.shape[1]
        hess_t = -(self.coeffs_conj @ (w @ w).ravel()).real
        hess = np.empty((nb, k, k))
        for r, cols, acat in self.groups:
            kg = cols.stop - cols.start
            # (W A_i)[p, a] at [k, p, a, i], then one product per (k, p)
            # with W[R, :] gives (W A_i W)[p, q] at [k, p, q, i]: the layout
            # the sparse product reads
            u = (w[:, :, r] @ acat).reshape(nb, d, len(r), kg)
            s = np.matmul(w[:, r].transpose(0, 2, 1)[:, None], u)
            hess[:, :, cols] = (self.coeffs_conj @ s.reshape(nb * d * d, kg)
                                ).real.reshape(nb, k, kg)
        return np.concatenate([hess.ravel(), hess_t, hess_t,
                               [np.vdot(w, w).real]])


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


def _scatter(indices, weights, size: int) -> np.ndarray:
    """Every stack's weights summed at its flat indices: members that share
    a variable add up."""
    return np.bincount(np.concatenate(indices), weights=np.concatenate(weights),
                       minlength=size)


def _schur_matrix(stacks, ws, m):
    """The (m + 1)^2 Schur complement of the semidefinite blocks at their NT
    scaling matrices ws."""
    n1 = m + 1
    mat = _scatter([s.hess_index for s in stacks],
                   [s.schur(w) for s, w in zip(stacks, ws)], n1 * n1)
    mat = mat.reshape(n1, n1)
    return (mat + mat.T) / 2.0


def _herm(a):
    return a.conj().transpose(0, 2, 1)


def _inner(a, b) -> float:
    """Re tr(A B) of two stacks of Hermitian matrices, summed."""
    return float(np.vdot(a, b).real)


def _max_steps(lam, dx, ds) -> tuple[float, float]:
    """The step lengths to the boundary of the cone from diag(lambda) along
    the scaled steps dx and ds, (members, d, d) each: from the smallest
    eigenvalues of diag(lambda)^-1/2 step diag(lambda)^-1/2."""
    w = 1.0 / np.sqrt(lam)
    w = np.concatenate([w, w])
    lo = np.linalg.eigvalsh(w[:, :, None] * np.concatenate([dx, ds])
                            * w[:, None, :])[:, 0].reshape(2, -1).min(axis=1)
    return tuple(np.inf if v >= 0.0 else -1.0 / v for v in lo)


def _max_linear_step(v, dv) -> float:
    shrink = dv < 0.0
    return np.min(-v[shrink] / dv[shrink], initial=np.inf)


def _min_eigs(stacks, x) -> dict[str, float]:
    """The smallest eigenvalue of every member at x, by name."""
    eigs = {}
    for stack in stacks:
        eigs.update(zip(stack.names,
                        np.linalg.eigvalsh(stack.evaluate(x))[:, 0].tolist()))
    return eigs


def _cholesky(mats, what: str):
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


class _Iterate:
    """The primal X (one (members, d, d) array per stack), u and l, and the
    dual y = (x, t) with S = S(y) and the box slacks 1 - x and 1 + x."""

    def __init__(self, stacks, m):
        self.stacks, self.m = stacks, m
        self.xs = [np.tile(np.eye(s.dim, dtype=complex), (len(s.names), 1, 1))
                   for s in stacks]
        self.u, self.l = np.ones(m), np.ones(m)
        self.nu = sum(s.dim * len(s.names) for s in stacks) + 2 * m
        self.set_dual(np.append(np.zeros(m), -1.0))

    def set_dual(self, y):
        self.y, x = y, y[:self.m]
        self.ss = [s.evaluate(x, y[self.m]) for s in self.stacks]
        self.su, self.sl = 1.0 - x, 1.0 + x

    def apply(self, us, du=0.0):
        """The primal operator at the blocks us, plus du on the variables."""
        out = _scatter([s.grad_index for s in self.stacks],
                       [s.apply(u) for s, u in zip(self.stacks, us)], self.m + 1)
        out[:self.m] += du
        return out

    def residual(self) -> np.ndarray:
        """b - A(X, u, l): the violation of the primal equations."""
        r = -self.apply(self.xs, self.u - self.l)
        r[self.m] += 1.0
        return r

    def complementarity(self) -> float:
        return (sum(_inner(x, s) for x, s in zip(self.xs, self.ss))
                + self.u @ self.su + self.l @ self.sl)


def _iterate_once(it: _Iterate, clock):
    """One Mehrotra predictor-corrector step from it along the NT direction;
    returns the primal and dual step lengths taken."""
    stacks, m = it.stacks, it.m
    tick = time.perf_counter()
    gs, lams = [], []
    for x, s in zip(it.xs, it.ss):
        lx, ls = _cholesky(x, "a primal block"), _cholesky(s, "a dual block")
        _, lam, vh = np.linalg.svd(_herm(ls) @ lx)
        gs.append(lx @ _herm(vh) / np.sqrt(lam)[:, None, :])
        lams.append(lam)
    schur = _schur_matrix(stacks, [g @ _herm(g) for g in gs], m)
    schur[np.arange(m), np.arange(m)] += it.u / it.su + it.l / it.sl
    tock = time.perf_counter()
    clock["schur_seconds"] += tock - tick
    # one inverse Cholesky factor serves the predictor and the corrector
    linv = np.linalg.inv(_cholesky(schur, "the Schur complement"))
    clock["factor_seconds"] += time.perf_counter() - tock
    eyes = [np.eye(lam.shape[1]) for lam in lams]
    mu = it.complementarity() / it.nu

    def direction(rhs, zs, ru, rl):
        """dy, the scaled dX and dS per stack, du and dl, for the scaled
        complementarity right-hand sides zs = dX~ + dS~ and ru, rl."""
        dy = linv.T @ (linv @ rhs)
        dss = [_herm(g) @ s.evaluate(dy[:m], dy[m]) @ g
               for s, g in zip(stacks, gs)]
        dx = dy[:m]
        return (dy, [z - ds for z, ds in zip(zs, dss)], dss,
                ru + it.u / it.su * dx, rl - it.l / it.sl * dx)

    def step_lengths(dy, dxs, dss, du, dl):
        dx = dy[:m]
        cones = [_max_steps(lam, a, b) for lam, a, b in zip(lams, dxs, dss)]
        return (min([p for p, _ in cones] + [_max_linear_step(it.u, du),
                                             _max_linear_step(it.l, dl)]),
                min([d for _, d in cones] + [_max_linear_step(it.su, -dx),
                                             _max_linear_step(it.sl, dx)]))

    tick = time.perf_counter()
    # predictor, dX~ + dS~ = -diag(lambda), du = -u, dl = -l: the Schur
    # right-hand side is b - A(X, u, l) + A(X, u, l) = b
    diags = [lam[:, :, None] * eye for lam, eye in zip(lams, eyes)]
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    dy, dxs, dss, du, dl = direction(rhs, [-z for z in diags], -it.u, -it.l)
    ap, ad = (min(1.0, a) for a in step_lengths(dy, dxs, dss, du, dl))
    dx = dy[:m]
    mu_aff = (sum(_inner(z + ap * a, z + ad * b)
                  for z, a, b in zip(diags, dxs, dss))
              + (it.u + ap * du) @ (it.su - ad * dx)
              + (it.l + ap * dl) @ (it.sl + ad * dx)) / it.nu
    # the centering weight and step fraction of SDPT3
    sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** max(1.0, 3.0 * min(ap, ad) ** 2))
    fraction = 0.9 + 0.09 * min(ap, ad)
    # corrector: (D dZ + dZ D) / 2 = sigma mu I - D^2 - H(dX~ dS~) of the
    # predictor for dZ = dX~ + dS~, H the Hermitian part
    zs = []
    for lam, eye, a, b in zip(lams, eyes, dxs, dss):
        prod = a @ b
        zs.append((sigma * mu / lam - lam)[:, :, None] * eye
                  - (prod + _herm(prod)) / (lam[:, :, None] + lam[:, None, :]))
    ru = sigma * mu / it.su - it.u + du * dx / it.su
    rl = sigma * mu / it.sl - it.l - dl * dx / it.sl
    rhs = it.residual() - it.apply([g @ z @ _herm(g) for g, z in zip(gs, zs)],
                                   ru - rl)
    dy, dxs, dss, du, dl = direction(rhs, zs, ru, rl)
    ap, ad = (min(1.0, fraction * a) for a in step_lengths(dy, dxs, dss, du, dl))
    if not (np.all(np.isfinite(dy)) and np.isfinite(ap) and np.isfinite(ad)):
        raise NumericalError("the step is not finite")
    it.xs = [x + ap * (g @ d @ _herm(g)) for x, g, d in zip(it.xs, gs, dxs)]
    it.u, it.l = it.u + ap * du, it.l + ap * dl
    it.set_dual(it.y + ad * dy)
    clock["step_seconds"] += time.perf_counter() - tick
    return float(ap), float(ad)


def solve_feasibility(sdp: StandardSdp, config: SolverConfig | None = None
                      ) -> FeasibilityResult:
    """Run the primal-dual method from y = (0, -1) until the gap and the
    primal residual meet their targets or the iteration cap is reached.

    Every iterate is dual feasible, so the reported margin, the best t over
    the iterates, is attained by the reported x. A numerical breakdown ends
    the run at the last iterate and names its cause; the status is
    ``numerical_failure`` only when no iteration completed. Runs are
    bitwise deterministic.
    """
    cfg = config or SolverConfig()
    stacks = _stack_constraints(sdp)
    m = sdp.num_vars
    gap_target = min(0.05 * cfg.margin_tolerance, 1e-8)
    start = time.perf_counter()
    clock = dict.fromkeys(("schur_seconds", "factor_seconds", "step_seconds"),
                          0.0)
    it = _Iterate(stacks, m)
    trace: list[IterationRecord] = []
    best, best_x, cause = None, None, None
    while len(trace) < cfg.max_outer_iters:
        try:
            ap, ad = _iterate_once(it, clock)
        except NumericalError as exc:
            cause = str(exc)
            break
        x, t = it.y[:m], float(it.y[m])
        bound = float(np.sum(it.u + it.l))
        residual = float(np.max(np.abs(it.residual())))
        trace.append(IterationRecord(len(trace) + 1, t, bound, bound - t,
                                     residual, ap, ad,
                                     min(_min_eigs(stacks, x).values())))
        if best is None or t > best.t:
            best, best_x = trace[-1], x
        if trace[-1].gap <= gap_target and residual <= _RESIDUAL_TOLERANCE:
            break
    wall = time.perf_counter() - start
    if best is None:
        return FeasibilityResult(
            status="numerical_failure", margin=-np.inf, x=None,
            per_constraint_min_eig={}, iterations=0, wall_time=wall,
            failure_cause=cause, phase_seconds=clock)
    eigs = _min_eigs(stacks, best_x)
    return FeasibilityResult(
        status=("feasible" if best.t >= cfg.margin_tolerance
                else "infeasible_at_tolerance"),
        margin=best.t, x=best_x,
        per_constraint_min_eig={l.name: eigs[l.name] for l in sdp.lmis},
        iterations=len(trace), wall_time=wall, gap=best.gap, trace=trace,
        failure_cause=cause, phase_seconds=clock)
