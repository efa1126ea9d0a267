"""Max-margin semidefinite feasibility by a primal-dual interior-point method.

The problem solved is

    maximize t   subject to   S_k = G_k(x) - t I >= 0  for every constraint k,
                              s0 = D - c^T x >= 0,

where G_k(x) = sum_i x_i A_ki is complex Hermitian, the image chi of a
quaternion matrix, and every constraint reads "> 0". Strict feasibility of
the original system is equivalent to a positive optimal t; every
constraint is homogeneous, so x = 0 always achieves t = 0, and
"infeasible" here always means "no margin above the tolerance", never an
empty domain. The trace cone pins the scale of the otherwise homogeneous
problem: c_i = sum_k tr A_ki, so c^T x = sum_k tr G_k(x), and D is the
total side of the constraints, so the mean eigenvalue over all constraints
is at most 1, and so is t (Boyd, El Ghaoui, Feron & Balakrishnan, SIAM
1994, Ch. 2). Rescaling the variables rescales c with them and moves no
margin.

In the standard form of SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw.
11, 1999) this is the dual problem in y = (x, t), with the S_k as
semidefinite cones under <U, V> = Re tr(U V) and s0 as one linear cone. Its
primal has a Hermitian X_k >= 0 per constraint and u0 >= 0, with

    sum_k tr X_k = 1,   u0 c_i = sum_k Re tr(A_ki X_k),

and objective u0 D, which bounds every feasible t once the primal
equations hold. The solver is an infeasible-start path-following method
with the Nesterov-Todd (NT) direction (Math. Oper. Res. 22, 1997) and
Mehrotra's predictor-corrector. It starts at y = (0, -1), where every
S_k = I and s0 = D, and evaluates S = S(y) at every iterate, so each
iterate is dual feasible: its t is a margin that its x attains. The primal
starts at X_k = I and u0 = 1, which meet every equation but the trace's,
and becomes feasible as the steps shrink its residual. After each
iteration the run tries one proof and stops at the first that holds. Below
the margin tolerance, weak duality at the primal, with its residual and
rounding bounded, gives a verified upper bound on every t that the cone
admits, and a bound below the tolerance proves "infeasible". At or above
it, a shifted Cholesky of every S_k (Rump, BIT 46, 2006) proves that x
attains t. Otherwise the run stops once the gap u0 D - t is at most the
target and the primal residual at most 1e-9.

For each block the NT scaling G, with G^H S G = G^-1 X G^-H = diag(lambda),
comes from the Cholesky factors L_X, L_S and the SVD L_S^H L_X =
U diag(lambda) V^H as G = L_X V diag(lambda)^-1/2; W = G G^H satisfies
W S W = X. The complementarity equations are linearized in the scaled
space, where the iterate is diagonal, and the step lengths to the boundary
are the eigenvalues of the scaled steps. The Schur complement is

    M_ij = <A_i, W A_j W> + (u0 / s0) c_i c_j

over the variables and t, whose coefficient is -I and whose c is 0; the
predictor and the corrector solve with M by LU, which goes on where
rounding makes M indefinite, near the gap target.

M works from the sparsity of the coefficients, in the spirit of the F1-F3
Schur-complement formulas of Fujisawa, Kojima & Nakata (Math. Prog. 79,
1997). A_i vanishes outside its row support, so for any row set R that
holds it, W A_i W = W[:, R] A_i[R, R] W[R, :]. The variables are grouped
under the maximal row supports of their block and W A_i W is batched per
group. Every constraint is a complex image chi, stored by its first
N = d / 2 rows, and chi is a *-homomorphism (Zhang, Linear Algebra Appl.
251, 1997): with W a chi image, so is W A_i W, and Re tr(A_j W A_i W) is
twice the real part of the same sum over its first N rows alone. So only
those rows are formed, and in each row only the columns where some A_j is
nonzero, each row padded to the longest, as those formulas form only the
elements that M reads (at n = 2, Omega's A_j read 282 of its 968 stored
entries, 484 with the padding). Each group's traces are one dense product
of its A_j, at the stored entries it uses, with those gathered there. S_i
is formed for a run of variables at a time, within a fixed byte budget.

The criterion is a fixed list of small constraints of few shapes (at n = 2,
Omega and 14 blocks of three shapes), so the solver works on stacks, not on
single constraints: a stack is the constraints with the same side, the same
support row sets and the same group sizes and no variable in common, Omega
a stack of one. The scaling, the step lengths and the Schur products are
batched over the members. One operator holds the stored entries of every
stack, the rows below N rebuilt from them once: every S_k(y) is one pair of
``np.bincount`` sums and the primal operator <A_i, U> two more (the traces
per member, then per variable). M is one (m + 1)^2 matrix per solve,
filled in place: every stack adds its Schur entries into the variable
block, one scatter per run of variables, the t row and column are the
primal operator at W^2, and M is averaged with its transpose and gains
the cone's rank-one term a band of rows at a time. Sums keep one order: an
entry of M adds its stacks one after the other and, within a stack, its
members in member order; a variable's primal sum runs over the members of
each stack, stack after stack, each member's trace summed first. A sum in
one level rounds differently, and near the gap target that rounding
decides whether a run ends. Each iterate evaluates S once, and holds
b - A(X, u0) from its last primal update.
numpy is the only dependency: every factorization and solve uses
``numpy.linalg``.

This is a feasibility engine, not a general-purpose SDP solver: it has no
presolve beyond ``scale_problem``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .lowering import AffineLmi, StandardSdp
from .qmatrix import gamma_k, proved_positive_definite

# The squared Frobenius norm of the real image of a chi image, over the sum of
# squares of its stored half: the chi image doubles it, the real image again.
_REAL_MULTIPLICITY = 4
# the largest violation of a primal equation at which the run may stop
_RESIDUAL_TOLERANCE = 1e-9
# the most memory the S_i of one run of a stack's variables take, the band
# of rows of M averaged at once, and about what one run of the Gram
# matrix's pairs of entries takes
_CHUNK_BYTES = 2 ** 23


@dataclass(frozen=True)
class SolverConfig:
    margin_tolerance: float = 1e-6
    # the cap on primal-dual iterations
    max_outer_iters: int = 60


@dataclass
class IterationRecord:
    iteration: int
    t: float                 # the iterate's margin, attained by its x
    bound: float             # the primal objective u0 D
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
    wall_time: float                 # the whole solve, set-up included
    gap: float = np.inf              # bound - t at the reported iterate
    trace: list[IterationRecord] = field(default_factory=list)
    # message of the NumericalError that ended the run, or None
    failure_cause: str | None = None
    # what the run proved: "feasible" (its margin is attained), "infeasible"
    # (no x in the trace cone attains the tolerance) or "undecided"
    proof: str = "undecided"
    # a verified upper bound on every margin that some x in the trace cone
    # attains, from the last iterate's primal; inf when it is not proved
    margin_upper_bound: float = np.inf
    # seconds spent on the operator's set-up (stacks, support groups and
    # Gram floor), on the NT scaling and the Schur complement, on the two
    # solves with it, and on directions, step lengths and updates
    phase_seconds: dict[str, float] = field(default_factory=dict)


def scale_problem(sdp: StandardSdp) -> tuple[StandardSdp, np.ndarray]:
    """Rescale each variable's coefficient matrices to unit Frobenius order.

    Returns the scaled problem and the factors s: a solution x_scaled of it
    is x = x_scaled / s of the original. The norm is that of the real image
    of the chi image, sqrt(4 sum |a|^2) over the stored entries a (the rows
    p < N), taken as max |a| sqrt(4 sum (|a| / max |a|)^2) so that no square
    overflows or underflows. The feasibility classification is unchanged
    (the map is a bijection and leaves constraint values pointwise
    identical); variables whose coefficients vanish in every constraint
    keep the factor 1. The trace cone scales with the variables, so the
    scaling conditions the problem and moves no margin.
    """
    m = sdp.num_vars
    norms = np.zeros(m)
    for lmi in sdp.lmis:
        mag = np.abs(lmi.value)
        peak = np.zeros(m)
        np.maximum.at(peak, lmi.var, mag)
        unit = mag / np.where(peak > 0.0, peak, 1.0)[lmi.var]
        norms = np.maximum(norms, peak * np.sqrt(np.bincount(
            lmi.var, weights=_REAL_MULTIPLICITY * unit ** 2, minlength=m)))
    factors = np.where(norms == 0.0, 1.0, norms)
    lmis = [AffineLmi(l.name, l.dim, l.var, l.entry, l.value / factors[l.var])
            for l in sdp.lmis]
    return StandardSdp(num_vars=m, lmis=lmis), factors


def _support_groups(lmi: AffineLmi) -> list[tuple[np.ndarray, np.ndarray]]:
    """(R, variables) for each maximal row support R of one constraint.
    Each variable with a nonzero coefficient joins the smallest maximal row
    set holding its own support (A_i vanishes on the extra rows, so
    W A_i W is unchanged)."""
    d, half = lmi.dim, lmi.dim // 2
    if not np.any(lmi.value):
        raise InputError(f"constraint {lmi.name} has no nonzero coefficient")
    # row and column support per variable: stored entries and their mirrors
    used, owner = np.unique(lmi.var, return_inverse=True)
    p, q = np.divmod(lmi.entry, d)
    support = np.zeros((used.size, d), dtype=bool)
    for rows in (p, p + half, q, (q + half) % d):
        support[owner, rows] = True
    rowsets, which = np.unique(support, axis=0, return_inverse=True)
    # inside[p, q]: row set p lies within row set q
    inside = rowsets.astype(np.intp) @ (~rowsets).T.astype(np.intp) == 0
    maximal = inside.sum(axis=1) == 1      # within itself only
    size = np.where(maximal, rowsets.sum(axis=1), d + 1)
    target = np.argmin(np.where(inside, size, d + 1), axis=1)[which.ravel()]
    return [(np.flatnonzero(rowsets[g]), used[target == g])
            for g in np.unique(target)]


def _chi_part(w: np.ndarray) -> np.ndarray:
    """The orthogonal projection of each matrix onto the chi images: the
    mean of W and its mirror, which swaps the diagonal quadrants and
    negates the others, all conjugated."""
    half = w.shape[-1] // 2
    top, bottom = slice(None, half), slice(half, None)
    mirror = np.empty_like(w)
    mirror[:, top, top] = w[:, bottom, bottom]
    mirror[:, bottom, bottom] = w[:, top, top]
    mirror[:, top, bottom] = -w[:, bottom, top]
    mirror[:, bottom, top] = -w[:, top, bottom]
    return (w + mirror.conj()) / 2.0


class _Stack:
    """The Schur layout of every constraint of one shape.

    The shape is the side d, the row sets R of the support groups and the
    number of variables in each, so every member has the same count of
    active variables and the same dense group layout. ``active[k]`` holds
    member k's variables, group by group.

    S_i is formed only in the read layout: row p < N at the columns
    ``columns[p]`` where some member's A_j is nonzero in that row, each row
    padded to the longest with column 0, so that S_i[p, columns[p, c]] lies
    at p ``columns.shape[1]`` + c. ``groups`` holds, per row set R: R, the
    slice of ``active`` assigned to it, ``top``, the positions in the read
    layout at which some member's A_i of the group is nonzero, and
    ``weights``, 2 (Re A_i, Im A_i) at them, shaped (members, group size,
    2 len(top)). ``chunks`` splits ``active`` into runs whose S_i fit in
    ``_CHUNK_BYTES``, a group's variables split between runs where they do
    not fit in one, as (slice of ``active``, pieces), a piece per group in
    the run: R, the slice of the run it fills and the members' dense
    A_i[R, R] there, stored as A_i[b, a] at [k, b, (a, i)], so that one
    batched product with W[:, :N, R] gives rows p < N of W A_i for the
    piece of every member. No two members share a variable.
    """

    def __init__(self, parts, act, member, p, q, j, value):
        """``parts`` pairs each member with its support groups; the entries,
        stored rows and the rows below N, give their member, row p, column
        q, slot j in ``active`` and value."""
        self.names = [lmi.name for lmi, _ in parts]
        self.dim = d = parts[0][0].dim
        half, nb = d // 2, len(parts)
        self.active = act
        groups, local, start = [], np.zeros(d, dtype=np.intp), 0
        for r, members in parts[0][1]:
            kg = len(members)
            local[r] = np.arange(len(r))
            mine = (j >= start) & (j < start + kg)
            acat = np.zeros((nb, len(r), len(r) * kg), dtype=complex)
            acat[member[mine], local[p[mine]],
                 local[q[mine]] * kg + j[mine] - start] = value[mine]
            sub = acat.reshape(nb, len(r), len(r), kg)
            bad = np.max(np.abs(sub - sub.transpose(0, 2, 1, 3).conj()),
                         axis=(1, 2, 3)) > 1e-12
            if bad.any():
                raise InputError(f"constraint {self.names[np.argmax(bad)]} "
                                 "has non-Hermitian coefficients")
            upper = r < half
            b, a = np.nonzero(np.any(sub[:, upper] != 0.0, axis=(0, 3)))
            at = sub[:, upper][:, b, a].transpose(0, 2, 1)
            groups.append((r, slice(start, start + kg), sub,
                           r[upper][b] * d + r[a],
                           2.0 * np.concatenate([at.real, at.imag], axis=2)))
            start += kg
        rows, cols = np.divmod(np.unique(np.concatenate(
            [g[3] for g in groups])), d)
        count = np.bincount(rows, minlength=half)
        slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
        self.columns = np.zeros((half, count.max()), dtype=np.intp)
        self.columns[rows, slot] = cols
        place = np.zeros((half, d), dtype=np.intp)
        place[rows, cols] = rows * count.max() + slot
        self.groups = [(r, part, place[np.divmod(top, d)], weights)
                       for r, part, _, top, weights in groups]
        width = max(1, _CHUNK_BYTES // (16 * nb * self.columns.size))
        self.chunks = []
        for lo in range(0, start, width):
            run, pieces = slice(lo, min(lo + width, start)), []
            for r, part, sub, _, _ in groups:
                first, stop = max(lo, part.start), min(run.stop, part.stop)
                if first < stop:
                    cut = sub[..., first - part.start:stop - part.start]
                    pieces.append((r, slice(first - lo, stop - lo),
                                   np.ascontiguousarray(cut).reshape(nb, len(r), -1)))
            self.chunks.append((run, pieces))

    def add_schur(self, w: np.ndarray, mat: np.ndarray) -> None:
        """Add Re tr(A_j W A_i W) over every member's active variables, at
        the NT scaling matrices w, into the Schur complement mat.

        With chi images W and A_i, S_i = W A_i W is one too, and the entry
        of conj(A_j) * S_i at (N + p, q) is the conjugate of the one at
        (p, q +- N): the rows p >= N add up to the conjugate of the rows
        p < N. So only those rows of S_i are formed, at the columns read,
        and the trace is twice the real part of their sum. The solver's W
        is a chi image only up to rounding that grows with the conditioning,
        so the products use its chi part, which changes M only at second
        order in the difference. No two members share a variable, so the
        stack adds into mat by one scatter per run."""
        half, width = self.dim // 2, self.columns.shape[1]
        wc, act, flat = _chi_part(w), self.active, mat.reshape(-1)
        nb = len(wc)
        for run, pieces in self.chunks:
            # S_i[p, columns[p, c]] at [k, p width + c, i - run.start]
            s = np.empty((nb, half * width, run.stop - run.start), dtype=complex)
            for r, own, acat in pieces:
                u = (wc[:, :half, r] @ acat).reshape(nb, half, len(r), -1)
                np.matmul(wc[:, r][:, :, self.columns].transpose(0, 2, 3, 1),
                          u, out=s[:, :, own].reshape(nb, half, width, -1))
            hess = np.empty((nb, act.shape[1], run.stop - run.start))
            for _, part, top, weights in self.groups:
                got = s[:, top]
                hess[:, part] = weights @ np.concatenate([got.real, got.imag],
                                                         axis=1)
            flat[act[:, :, None] * len(mat) + act[:, None, run]] += hess


class _Operator:
    """The constraint operator over the stored entries of every stack: each
    stack's stored rows p < N member after member, then the rows below N
    rebuilt from them, stack after stack in the order their first member
    appears in the constraint list. ``var`` is each entry's variable,
    ``flat`` its index in the members' matrices raveled in that order,
    ``row`` the index of its (member, active variable) pair in the same
    order, and ``conj_value`` the conjugate of its value; ``row_var`` is the
    variable of each pair. ``c`` holds the traces sum_k tr A_ki of the
    trace cone, ``side`` its D, the total side, and ``c_mags`` the sums of
    the magnitudes of the diagonal entries that make up each trace, ``eyes``
    the identity per stack and ``floor`` the proved ``gram_floor``; ``idle``
    lists the variables in no constraint."""

    def __init__(self, sdp: StandardSdp):
        self.m = m = sdp.num_vars
        # a constraint that shares a variable with a member of its shape's
        # open stack opens a new stack of that shape; ``shapes`` maps a shape
        # to its open stack and the variables its members hold
        shapes: dict = {}
        stacks = []
        for lmi in sdp.lmis:
            groups = _support_groups(lmi)
            key = (lmi.dim, tuple((tuple(r.tolist()), len(members))
                                  for r, members in groups))
            parts, held = shapes.get(key, (None, None))
            if parts is None or held[lmi.var].any():
                parts, held = [], np.zeros(m, dtype=bool)
                shapes[key] = parts, held
                stacks.append(parts)
            held[lmi.var] = True
            parts.append((lmi, groups))
        self.stacks, entries, size, pairs = [], [], 0, 0
        for parts in stacks:
            lmis = [lmi for lmi, _ in parts]
            d, half, nb = lmis[0].dim, lmis[0].dim // 2, len(lmis)
            # A[N + p, N + q] = conj(A[p, q]), A[N + p, q] = -conj(A[p, N + q])
            p, q = np.divmod(np.concatenate([lmi.entry for lmi in lmis]), d)
            value = np.concatenate([lmi.value for lmi in lmis]).astype(complex)
            value = np.append(value, np.where(q < half, 1.0, -1.0) * value.conj())
            p, q = np.append(p, p + half), np.append(q, (q + half) % d)
            member = np.tile(np.repeat(np.arange(nb), [l.var.size for l in lmis]), 2)
            var = np.tile(np.concatenate([lmi.var for lmi in lmis]), 2)
            act = np.array([np.concatenate([members for _, members in groups])
                            for _, groups in parts], dtype=np.intp)
            slot = np.zeros((nb, m), dtype=np.intp)
            slot[np.arange(nb)[:, None], act] = np.arange(act.shape[1])
            j = slot[member, var]
            self.stacks.append(_Stack(parts, act, member, p, q, j, value))
            entries.append((var, size + member * d * d + p * d + q,
                            pairs + member * act.shape[1] + j, value.conj()))
            size, pairs = size + nb * d * d, pairs + act.size
        self.var, self.flat, self.row, self.conj_value = (
            np.concatenate(column) for column in zip(*entries))
        self.row_var = np.concatenate([s.active.ravel() for s in self.stacks])
        self.split = np.cumsum([len(s.names) * s.dim ** 2 for s in self.stacks])
        # the most roundings in one entry of S(y) or of the primal operator:
        # its products, their sum, and t or du
        self.depth = int(max(np.bincount(self.flat).max(),
                             np.bincount(self.var).max())) + 3
        self.mat = np.empty((m + 1, m + 1))
        self.idle = np.flatnonzero(np.bincount(self.var, minlength=m) == 0)
        self.eyes = [np.broadcast_to(np.eye(s.dim), (len(s.names), s.dim, s.dim))
                     for s in self.stacks]
        unit = self.apply(self.eyes)
        self.c, self.side = -unit[:m], unit[m]
        self.c_mags, self.floor = self.magnitudes(self.eyes), self.gram_floor()

    def evaluate(self, y: np.ndarray) -> list[np.ndarray]:
        """S_k(y) = sum_i x_i A_ki - t I of every member k, as (members, d, d)
        per stack, at y = (x, t): x is real, so each entry is the conjugate of
        sum_i x_i conj(A_ki)."""
        xv, size = y[self.var], self.split[-1]
        s = np.bincount(self.flat, weights=xv * self.conj_value.real,
                        minlength=size).astype(complex)
        s.imag = -np.bincount(self.flat, weights=xv * self.conj_value.imag,
                              minlength=size)
        out = []
        for stack, part in zip(self.stacks, np.split(s, self.split[:-1])):
            d = stack.dim
            out.append(part.reshape(-1, d, d))
            part.reshape(-1, d * d)[:, ::d + 1] -= y[self.m]
        return out

    def apply(self, us, du=0.0) -> np.ndarray:
        """The primal operator at the Hermitian blocks us, plus du on the
        variables: -Re tr(A_ki U_k) summed over the members k of each
        variable, and the sum of tr U_k for t. Every trace is
        tr(A_i U) = sum conj(A_i) * U over the entries, as A_i is Hermitian.
        """
        u = np.concatenate([u.ravel() for u in us])
        traces = np.bincount(self.row, weights=(u[self.flat]
                                                * self.conj_value).real,
                             minlength=self.row_var.size)
        out = np.bincount(self.row_var, weights=-traces, minlength=self.m + 1)
        out[:self.m] += du
        out[self.m] = sum(np.trace(u, axis1=1, axis2=2).real.sum() for u in us)
        return out

    def magnitudes(self, us) -> np.ndarray:
        """Per variable, the sum of the magnitudes of the products that
        ``apply`` sums at the Hermitian blocks us, |Re u Re a| + |Im u Im a|
        over the entries."""
        u = np.concatenate([u.ravel() for u in us])[self.flat]
        return np.bincount(self.row_var, weights=np.bincount(
            self.row, weights=np.abs(u.real * self.conj_value.real)
            + np.abs(u.imag * self.conj_value.imag), minlength=self.row_var.size),
            minlength=self.m)

    def gram(self) -> np.ndarray:
        """The Gram matrix Re tr(A_i A_j) summed over the constraints, in the
        operator's one matrix, which the next call of ``schur`` overwrites.
        Each A_j is Hermitian, so the entry is Re sum conj(a_i) a_j over the
        positions where both have an entry: every pair of entries at a
        position adds its product, positions in order, a run of pairs within
        ``_CHUNK_BYTES`` at a time. A variable in no constraint has 1 on its
        diagonal."""
        m, mat = self.m, self.mat.reshape(-1)
        order = np.argsort(self.flat, kind="stable")
        var, at = self.var[order], self.flat[order]
        re, im = self.conj_value.real[order], self.conj_value.imag[order]
        # per entry: the first entry at its position, the count there, and
        # the pairs of the entries before it
        first = np.flatnonzero(np.diff(at, prepend=-1))
        count = np.diff(first, append=at.size)
        first, count = np.repeat(first, count), np.repeat(count, count)
        ends = np.cumsum(count)
        starts = ends - count
        mat.fill(0.0)
        lo, run = 0, _CHUNK_BYTES // 64
        while lo < at.size:
            hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + run, "right")))
            left = np.repeat(np.arange(lo, hi), count[lo:hi])
            right = first[left] + np.arange(starts[lo], ends[hi - 1]) - starts[left]
            np.add.at(mat, var[left] * (m + 1) + var[right],
                      re[left] * re[right] + im[left] * im[right])
            lo = hi
        gram = self.mat[:m, :m]
        gram[self.idle, self.idle] = 1.0
        return gram

    def gram_floor(self) -> float:
        """A proved lower bound on sigma_min^2, the least eigenvalue of the
        Gram matrix, so that the norm of G(x) is at least sigma_min ||x||; 0
        when none is proved. An entry of the Gram matrix sums at most as many
        terms as a variable has entries, each of two products, so in fewer
        than ``depth`` roundings, over magnitudes |Re a_i Re a_j| + |Im a_i
        Im a_j| <= |a_i| |a_j|: by Cauchy-Schwarz entry (i, j) errs by at
        most gamma sqrt(G_ii G_jj), and the error by at most gamma tr G in
        spectral norm, doubled to cover the rounding of the diagonal and its
        sum. The floors tried are the least diagonal entry over 4, 16, ...
        while they exceed that error."""
        # formed in its own call, so that its index arrays are freed before
        # the ladder's Choleskys copy the matrix
        gram = self.gram()
        error = 2.0 * gamma_k(self.depth) * np.trace(gram)
        floor = np.min(gram.diagonal()) / 4.0
        while floor > error:
            if proved_positive_definite(gram, floor + error):
                return floor
            floor /= 4.0
        return 0.0

    def schur(self, ws, weight: float) -> np.ndarray:
        """The (m + 1)^2 Schur complement at the NT scaling matrices ws of
        the semidefinite blocks and the weight u0 / s0 of the trace cone, in
        the operator's one matrix, which the next call overwrites: every
        stack's Re tr(A_j W A_i W), members that share a variable adding up,
        the t row and column -Re tr(A_i W W), the primal operator at W^2,
        and the (t, t) entry sum ||W_k||_F^2, averaged with its transpose
        a band of rows at a time, each band adding v v^T, v = sqrt(weight) c,
        16 rows at a time so that no product of M's size is made and M stays
        symmetric. A variable in no constraint has 1 on its diagonal, and
        its step is 0."""
        mat, v = self.mat, np.sqrt(weight) * np.append(self.c, 0.0)
        mat.fill(0.0)
        for stack, w in zip(self.stacks, ws):
            stack.add_schur(w, mat)
        mat[-1] = mat[:, -1] = self.apply([w @ w for w in ws])
        mat[-1, -1] = sum(np.vdot(w, w).real for w in ws)
        step = max(1, _CHUNK_BYTES // (8 * len(mat)))
        for lo in range(0, len(mat), step):
            band = mat[lo:lo + step, lo:] + mat[lo:, lo:lo + step].T
            band /= 2.0
            for i in range(0, len(band), 16):
                band[i:i + 16] += np.outer(v[lo:lo + step][i:i + 16], v[lo:])
            mat[lo:lo + step, lo:] = band
            mat[lo:, lo:lo + step] = band.T
        mat[self.idle, self.idle] = 1.0
        return mat


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


def _max_linear_step(v: float, dv: float) -> float:
    return -v / dv if dv < 0.0 else np.inf


def _cholesky(mats, what: str):
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


class _Iterate:
    """The primal X (one (members, d, d) array per stack) and u0, with
    ``residual`` b - A(X, u0), the violation of the primal equations, and
    the dual y = (x, t) with S = S(y) and the cone's slack s0 = D - c^T x."""

    def __init__(self, op: _Operator):
        self.op = op
        self.set_primal([eye.astype(complex) for eye in op.eyes], 1.0)
        self.nu = sum(s.dim * len(s.names) for s in op.stacks) + 1
        self.set_dual(np.append(np.zeros(op.m), -1.0))

    def set_primal(self, xs, u0):
        self.xs, self.u0 = xs, u0
        self.residual = -self.op.apply(xs, u0 * self.op.c)
        self.residual[self.op.m] += 1.0

    def set_dual(self, y):
        self.y = y
        self.ss = self.op.evaluate(y)
        self.s0 = self.op.side - self.op.c @ y[:self.op.m]

    def complementarity(self) -> float:
        return (sum(_inner(x, s) for x, s in zip(self.xs, self.ss))
                + self.u0 * self.s0)


def _iterate_once(it: _Iterate, clock):
    """One Mehrotra predictor-corrector step from it along the NT direction;
    returns the primal and dual step lengths taken."""
    op, m = it.op, it.op.m
    tick = time.perf_counter()
    gs, lams = [], []
    for x, s in zip(it.xs, it.ss):
        lx, ls = _cholesky(x, "a primal block"), _cholesky(s, "a dual block")
        _, lam, vh = np.linalg.svd(_herm(ls) @ lx)
        gs.append(lx @ _herm(vh) / np.sqrt(lam)[:, None, :])
        lams.append(lam)
    schur = op.schur([g @ _herm(g) for g in gs], it.u0 / it.s0)
    clock["schur_seconds"] += time.perf_counter() - tick
    mu = it.complementarity() / it.nu

    def direction(rhs, zs, r0):
        """dy, the scaled dX and dS per stack, ds0 and du0, for the scaled
        complementarity right-hand sides zs = dX~ + dS~ and r0."""
        tock = time.perf_counter()
        try:
            dy = np.linalg.solve(schur, rhs)
        except np.linalg.LinAlgError:
            raise NumericalError("the Schur complement is singular") from None
        clock["factor_seconds"] += time.perf_counter() - tock
        dss = [_herm(g) @ s @ g for s, g in zip(op.evaluate(dy), gs)]
        ds0 = -float(op.c @ dy[:m])
        return (dy, [z - ds for z, ds in zip(zs, dss)], dss,
                ds0, r0 - it.u0 / it.s0 * ds0)

    def step_lengths(dxs, dss, ds0, du0):
        cones = [_max_steps(lam, a, b) for lam, a, b in zip(lams, dxs, dss)]
        return (min([p for p, _ in cones] + [_max_linear_step(it.u0, du0)]),
                min([d for _, d in cones] + [_max_linear_step(it.s0, ds0)]))

    tick, solving = time.perf_counter(), clock["factor_seconds"]
    # predictor, dX~ + dS~ = -diag(lambda), du0 = -u0 - u0 ds0 / s0: the
    # Schur right-hand side is b - A(X, u0) + A(X, u0) = b
    diags = [lam[:, :, None] * eye for lam, eye in zip(lams, op.eyes)]
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    dy, dxs, dss, ds0, du0 = direction(rhs, [-z for z in diags], -it.u0)
    ap, ad = (min(1.0, a) for a in step_lengths(dxs, dss, ds0, du0))
    mu_aff = (sum(_inner(z + ap * a, z + ad * b)
                  for z, a, b in zip(diags, dxs, dss))
              + (it.u0 + ap * du0) * (it.s0 + ad * ds0)) / it.nu
    # the centering weight and step fraction of SDPT3
    sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** max(1.0, 3.0 * min(ap, ad) ** 2))
    fraction = 0.9 + 0.09 * min(ap, ad)
    # corrector: (D dZ + dZ D) / 2 = sigma mu I - D^2 - H(dX~ dS~) of the
    # predictor for dZ = dX~ + dS~, H the Hermitian part
    zs = []
    for lam, eye, a, b in zip(lams, op.eyes, dxs, dss):
        prod = a @ b
        zs.append((sigma * mu / lam - lam)[:, :, None] * eye
                  - (prod + _herm(prod)) / (lam[:, :, None] + lam[:, None, :]))
    r0 = (sigma * mu - du0 * ds0) / it.s0 - it.u0
    rhs = it.residual - op.apply([g @ z @ _herm(g) for g, z in zip(gs, zs)],
                                 r0 * op.c)
    dy, dxs, dss, ds0, du0 = direction(rhs, zs, r0)
    ap, ad = (min(1.0, fraction * a) for a in step_lengths(dxs, dss, ds0, du0))
    if not (np.all(np.isfinite(dy)) and np.isfinite(ap) and np.isfinite(ad)):
        raise NumericalError("the step is not finite")
    it.set_primal([x + ap * (g @ d @ _herm(g)) for x, g, d in zip(it.xs, gs, dxs)],
                  it.u0 + ap * du0)
    it.set_dual(it.y + ad * dy)
    # less the two solves, which are the factor phase
    clock["step_seconds"] += (time.perf_counter() - tick
                              - (clock["factor_seconds"] - solving))
    return float(ap), float(ad)


def _proves_margin(it: _Iterate) -> bool:
    """Whether every G_k(x) - t I of the iterate is proved positive definite,
    so that its x attains its t. An entry of S_k(y) sums at most
    ``op.depth`` roundings, so it errs by at most gamma times the same sum
    over magnitudes, |x_i| (|Re a| + |Im a|) and |t| on the diagonal; the
    real image of the error is at most its largest row sum in spectral
    norm."""
    op = it.op
    mags = np.bincount(op.flat, weights=np.abs(it.y[op.var]) * (
        np.abs(op.conj_value.real) + np.abs(op.conj_value.imag)),
        minlength=op.split[-1])
    g, t = gamma_k(op.depth), abs(float(it.y[op.m]))
    return all(proved_positive_definite(
        s, g * (part.reshape(s.shape).sum(axis=2).max(axis=1) + t))
        for s, part in zip(it.ss, np.split(mags, op.split[:-1])))


def _dual_bound(it: _Iterate) -> float:
    """A verified upper bound on every t >= 0 that some x in the trace cone
    attains, by weak duality at the iterate's primal. For Hermitian
    Z_k >= 0 and u0 >= 0, sum_k <Z_k, G_k(x) - t I> + u0 (D - c^T x) >= 0
    gives

        t sum_k tr Z_k <= u0 D + ||x|| ||A*(Z) - u0 c||,

    where ||x|| <= D / sigma_min: each G_k(x) >= t I >= 0, so the norm of
    G(x) is at most sum_k tr G_k(x) = c^T x <= D, and at least sigma_min ||x||
    by ``op.floor``. Z_k is the Hermitian part of X_k, proved positive
    definite, or the bound is inf, as it is with no floor. The operator's
    rounding is bounded as in ``_proves_margin``, u0 c erring from u0 times
    the exact traces by gamma u0 ``c_mags`` and in its product and sum by
    twice that, and the sums of the bound, at most ``nu + m + 8`` roundings
    of nonnegative terms, are inflated by gamma."""
    op, m = it.op, it.op.m
    zs = [(x + _herm(x)) / 2.0 for x in it.xs]
    if not (op.floor > 0.0 and it.u0 >= 0.0
            and all(proved_positive_definite(z) for z in zs)):
        return np.inf
    out = op.apply(zs, it.u0 * op.c)
    if not out[m] > 0.0:
        return np.inf
    slack = np.abs(out[:m]) + gamma_k(op.depth) * (
        op.magnitudes(zs) + 3.0 * it.u0 * op.c_mags)
    g = gamma_k(it.nu + m + 8)
    return float((it.u0 + np.sqrt(slack @ slack / op.floor)) * op.side / out[m]
                 * (1.0 + g) / (1.0 - g))


def solve_feasibility(sdp: StandardSdp, config: SolverConfig | None = None
                      ) -> FeasibilityResult:
    """Run the primal-dual method from y = (0, -1) until a proof holds, or
    else the gap and the primal residual meet their targets or the
    iteration cap is reached.

    After each iteration the run tries one proof: while t is below the
    margin tolerance, that the dual bound is too (``_dual_bound``), and once
    t reaches it at the best iterate so far, that the iterate attains it
    (``_proves_margin``). A bound try is skipped with no Gram floor, and
    while (u0 D + D ||r[:m]|| / sigma_min) / (1 - r[m]), r the iterate's
    residual, exceeds twice the tolerance: in exact arithmetic the bound is
    at least that quotient, and the factor 2 covers the rounding of sums
    taken in another order. Every iterate is dual feasible, so the reported
    margin, the best t over the iterates, is attained by the reported x,
    and either proof agrees with the verdict of a longer run. The margin
    upper bound is the dual bound at the last iterate. A numerical
    breakdown ends the run at the last iterate and names its cause; the
    status is ``numerical_failure`` only when no iteration completed. Runs
    are bitwise deterministic.
    """
    cfg = config or SolverConfig()
    start = time.perf_counter()
    op = _Operator(sdp)
    clock = {"setup_seconds": time.perf_counter() - start, **dict.fromkeys(
        ("schur_seconds", "factor_seconds", "step_seconds"), 0.0)}
    m = sdp.num_vars
    gap_target = min(0.05 * cfg.margin_tolerance, 1e-8)
    it = _Iterate(op)
    trace: list[IterationRecord] = []
    best, best_x, cause, proof = None, None, None, "undecided"
    while len(trace) < cfg.max_outer_iters:
        try:
            ap, ad = _iterate_once(it, clock)
        except NumericalError as exc:
            cause = str(exc)
            break
        x, t = it.y[:m], float(it.y[m])
        bound = float(it.u0 * op.side)
        residual = float(np.max(np.abs(it.residual)))
        # every G_k(x) = S_k + t I
        eigs = t + np.concatenate([np.linalg.eigvalsh(s)[:, 0] for s in it.ss])
        trace.append(IterationRecord(len(trace) + 1, t, bound, bound - t,
                                     residual, ap, ad, float(eigs.min())))
        if best is None or t > best.t:
            best, best_x, best_eigs = trace[-1], x, eigs
        if t < cfg.margin_tolerance:
            r, weight = it.residual[:m], 1.0 - it.residual[m]
            hopeless = not op.floor > 0.0 or weight > 0.0 and (
                (it.u0 + np.sqrt(r @ r / op.floor)) * op.side / weight
                > 2.0 * cfg.margin_tolerance)
            if not hopeless and _dual_bound(it) < cfg.margin_tolerance:
                proof = "infeasible"
                break
        elif best is trace[-1] and _proves_margin(it):
            proof = "feasible"
            break
        if trace[-1].gap <= gap_target and residual <= _RESIDUAL_TOLERANCE:
            break
    upper = _dual_bound(it)
    wall = time.perf_counter() - start
    if best is None:
        return FeasibilityResult(
            status="numerical_failure", margin=-np.inf, x=None,
            per_constraint_min_eig={}, iterations=0, wall_time=wall,
            failure_cause=cause, phase_seconds=clock)
    eigs = dict(zip([n for s in op.stacks for n in s.names], best_eigs.tolist()))
    return FeasibilityResult(
        status=("feasible" if best.t >= cfg.margin_tolerance
                else "infeasible_at_tolerance"),
        margin=best.t, x=best_x,
        per_constraint_min_eig={l.name: eigs[l.name] for l in sdp.lmis},
        iterations=len(trace), wall_time=wall, gap=best.gap, trace=trace,
        failure_cause=cause, phase_seconds=clock, proof=proof,
        margin_upper_bound=upper)
