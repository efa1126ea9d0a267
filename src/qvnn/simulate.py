"""Fixed-step delay differential equation integration for the network model.

State convention matches the algebra layer: a quaternion n-vector is a
(2, n) complex array, row 0 holding w + x i and row 1 holding y + z i.

The dynamics integrated are

    dx/dt = -C x(t - delta) + A f(x(t)) + B f(x(t - d1(t) - d2(t))) + u,

with f the componentwise gain * tanh activation (applied to each of the four
real components separately, one gain per neuron). Integration is classical
RK4 under the method of steps: delayed values come from cubic Hermite
interpolation of the committed solution, so the scheme keeps its full order
as long as every delay argument lands on committed data. Every evaluation
of step k, the derivative at the new node k + 1 included, reads nodes 0..k
only; that final stage takes the new value as its stage state. When a
clamped time-varying delay touches zero the argument coincides with the
stage time and the stage state itself is used; arguments strictly inside
the step (possible only while a delay crosses below the step size) fall
back to a linear blend of node k and the stage state, a transient, local
degradation.

``integrate`` advances any number of members together in one loop, on a
(members, 4n) real state. Each member starts from a constant initial state
and has its own divergence time; the others go on without it. Under the
method of steps, a delayed term that reads only committed nodes is known
before a step starts: the loop runs in waves of steps whose delayed terms
are all known when the wave starts, evaluates those terms for the whole
wave at once, and folds them into the RK4 terms that the wave owns, so
that a stage is one tanh and one product with A. Where the transmission
delay is exactly 0, the delayed state is the stage state itself, and a
stage is one tanh and one product with A + B.

A trajectory is one grid from t = 0 whose first node is the start; x(u) is
that node for every u < 0.

A driven network (a nonzero input u) is integrated about its rest point
y_eq, the solution of C y = (A + B) f(y) + u, which ``integrate`` computes
once per call. In the deviation v = x - y_eq the input cancels and the
activation becomes f(v + y_eq) - f(y_eq), per component, exactly 0 at 0.
Starts and every stored state are deviations, and each trajectory carries
y_eq as its ``rest``; an undriven network rests at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import NetworkModel, physical_memory
from .qmatrix import QuatMatrix, mat_vec

DEFAULT_DIVERGENCE_LIMIT = 1e6
_EDGE_SLACK = 1e-9
_TAIL_FRACTION = 0.1         # trailing share of the run that final_sup covers
_EQUILIBRIUM_DAMPING = 0.5
_EQUILIBRIUM_TOL = 1e-12
_EQUILIBRIUM_ITERS = 10000


def activation(values: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """gain * tanh on each of the four real components, per neuron column."""
    pair = np.asarray(values, dtype=complex)
    out = np.tanh(pair.real) + 1j * np.tanh(pair.imag)
    return out * np.asarray(gains, dtype=float)[None, :]


def _hermite_weights(tau, step: float) -> np.ndarray:
    """Cubic Hermite weights on [value, derivative] of a cell's two nodes,
    at fractions ``tau`` of the way through the cell (trailing axis of 4)."""
    # (1 + 2 tau)(1 - tau)^2, step tau (1 - tau)^2, tau^2 (3 - 2 tau) and
    # step tau^2 (tau - 1), with the shared factors computed once
    weights = np.empty(np.shape(tau) + (4,))
    two_tau = 2.0 * tau
    square = np.square(1.0 - tau)
    np.multiply(1.0 + two_tau, square, out=weights[..., 0])
    step_tau = step * tau
    np.multiply(step_tau, square, out=weights[..., 1])
    np.multiply(tau * tau, 3.0 - two_tau, out=weights[..., 2])
    step_tau *= tau
    np.multiply(step_tau, tau - 1.0, out=weights[..., 3])
    return weights


@dataclass
class Trajectory:
    """One committed orbit on one grid: ``values`` and ``derivs`` hold x and
    its derivative at the grid ``times`` 0, step, 2 step, ..., and
    x(u) = ``values[0]``, the start, for every u < 0. x is the deviation from
    ``rest``, the network's (2, n) rest point: zeros for an undriven network.

    ``diverged_at`` is the grid time at which the state passed the divergence
    limit (the grid ends one step before it), or None. ``blended_lookups``
    counts the delay lookups that fell back to a linear blend while the
    committed steps were computed.
    """

    model: NetworkModel
    step: float
    values: np.ndarray
    derivs: np.ndarray
    rest: np.ndarray
    diverged_at: float | None = None
    blended_lookups: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))


def _modulus_series(values: np.ndarray) -> np.ndarray:
    """Max quaternion modulus across neurons at each node of (nodes, 2, n)."""
    return np.max(np.sqrt(np.abs(values[:, 0, :]) ** 2
                          + np.abs(values[:, 1, :]) ** 2), axis=1)


# Inside ``integrate`` a (2, n) state pair is stored in its real form, its 4n
# real components in memory order: row, neuron, real/imaginary part. Viewing
# such an array as complex gives the pair back without a copy.


def _per_component(per_neuron: np.ndarray) -> np.ndarray:
    """A per-neuron real vector repeated over the four components."""
    return np.tile(np.repeat(per_neuron, 2), 2)


def _real_operator(mat: QuatMatrix, gains: np.ndarray) -> np.ndarray:
    """M with real_form(A (gains * tanh x)) = tanh(real_form x) @ M."""
    dim = 4 * mat.rows
    basis = np.eye(dim).view(complex).reshape(dim, 2, mat.rows)
    images = np.array([mat_vec(mat, e) for e in basis])
    return images.view(float).reshape(dim, dim) * _per_component(gains)[:, None]


def _lookup_stencils(model: NetworkModel, times: np.ndarray,
                     committed: np.ndarray, step: float):
    """How the RHS evaluations at ``times`` read their two delayed states.

    An evaluation at stage time t, with grid nodes 0..``committed`` stored,
    looks up x(t - delta) and x(t - d1(t) - d2(t)). Each lookup is a stencil
    on the node buffer of ``integrate``: four weights on [value, derivative]
    of node r and of node r + 1, plus a weight on the stage state. Hermite
    cells cover the committed nodes; an argument before t = 0 reads node 0,
    the start; an argument equal to the stage time takes the stage state;
    an argument strictly inside the uncommitted step blends the last
    committed node with the stage state linearly.

    Returns, with a trailing axis of 2 lookups (leak, transmission): the
    flat buffer row 2 r, the weights (..., 2, 4), the stage weight, and the
    linear-blend mask.
    """
    stage_t = times[..., None]
    done = committed[..., None]
    t_end = done * step
    u = np.empty(np.shape(times) + (2,))
    np.subtract(times, model.delta, out=u[..., 0])
    np.subtract(times, model.delay1(times), out=u[..., 1])
    u[..., 1] -= model.delay2(times)
    before = u < 0.0
    stored = u <= t_end + _EDGE_SLACK          # before t = 0 or in the grid
    later = ~stored
    at_stage = later & (np.abs(u - stage_t) <= _EDGE_SLACK)
    blend = later ^ at_stage                   # later and not at the stage

    offset = u / step
    cell = np.floor(offset)
    np.maximum(cell, 0.0, out=cell)
    np.minimum(cell, np.maximum(done - 1, 0), out=cell)
    weights = _hermite_weights(offset - cell, step)

    # lookups that read one node directly: all of node 0 before t = 0, or
    # while it is the only node (cell is 0 for both); none of the last
    # committed node at the stage time, or its linear blend with the stage
    # state inside the uncommitted step
    first = done == 0
    whole = before | (stored & first)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (u - t_end) / (stage_t - t_end)
    node = np.where(stored, cell.astype(int), done)
    weights[later | before | first] = 0.0
    weights[..., 0] += np.where(blend, 1.0 - frac, whole)
    stage = np.where(blend, frac, at_stage.astype(float))
    return 2 * node, weights, stage, blend


def _step_tables(model: NetworkModel, ks: np.ndarray, step: float):
    """The delayed lookups of steps ``ks``.

    Step k evaluates the right-hand side at two stage times, t_k + h/2 (the
    two middle stages) and t_k + h (the end stage, then the derivative at
    the new node with the new value as stage state), each with nodes 0..k
    committed, so no lookup reads a node past k. Its four lookups, leak at
    both times then transmission at both times, each weigh four consecutive
    flat buffer rows: [value, derivative] of nodes r and r + 1, from row
    2 r (see ``_lookup_stencils``).

    Returns, per step: the (4, 4) buffer rows of the four lookups, their
    (4, 4) weights, the stage weights (2 times, 2 lookups), and how many of
    the step's eight evaluated lookups are linear blends.
    """
    rows, weights, stage, blend = _lookup_stencils(
        model, (ks * step)[:, None] + np.array([step / 2.0, step]),
        ks[:, None], step)
    count = len(ks)
    return (rows.transpose(0, 2, 1).reshape(count, 4, 1) + np.arange(4),
            weights.transpose(0, 2, 1, 3).reshape(count, 4, 4), stage,
            2 * blend.sum(axis=(1, 2)))


def _waves(ks: np.ndarray, rows: np.ndarray, weights: np.ndarray,
           longest: int) -> list[int]:
    """The waves of the steps ``ks``, from their ``_step_tables`` rows and
    weights: maximal runs of at most ``longest`` steps whose stored lookup
    parts weigh only nodes committed when the run starts, nodes 0..k for a
    run from step k. Returns the bounds, as indices into ``ks`` from 0 to
    ``len(ks)``.

    Step k reads no node past k, so the running maximum of the last node
    each step reads passes the first node of a wave only after that wave.
    """
    read = np.where(weights != 0.0, rows, 0).max(axis=(1, 2)) // 2
    reach = np.maximum.accumulate(read)
    bounds = [0]
    while bounds[-1] < len(ks):
        bounds.append(min(bounds[-1] + longest, int(
            np.count_nonzero(reach <= ks[bounds[-1]]))))
    return bounds


# Steps per stencil table: small enough that the tables and their
# temporaries add no memory next to the trajectories themselves.
_CHUNK_STEPS = 128
# Half the floats of the wave buffers, which bounds the length of a wave:
# together they take at most 128 KiB unless a wave of one step needs more
_WAVE_FLOATS = 8192


def require_node_memory(model: NetworkModel, members: int, horizon: float,
                        step: float) -> None:
    """Refuse a grid whose node buffer for ``members`` runs would not fit in
    physical memory, before anything is allocated."""
    if step <= 0 or horizon <= 0:
        raise InputError("horizon and step must be positive")
    # float64 values and derivatives of 4n components per member and node
    need = (horizon / step + 1.0) * 2 * members * 4 * model.n * 8.0
    memory = physical_memory()
    if not need <= memory:
        raise InputError(f"a grid of horizon {horizon:g} at step {step:g} "
                         f"needs {need:.3g} bytes of nodes for {members} "
                         f"members, more than the {memory:.3g} bytes of "
                         "physical memory")


def integrate(model: NetworkModel, starts, horizon: float, step: float,
              divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT
              ) -> list[Trajectory]:
    """Integrate the delayed dynamics from each start, all in one RK4 loop.

    Each start is a (2, n) state pair, the member's deviation from the
    network's rest point at every time up to 0; the result holds one
    Trajectory per start, in order, each carrying that rest point. A member
    diverges at the first grid time where a component's complex modulus
    passes ``divergence_limit`` or stops being finite: its trajectory ends at the
    last node before that time, which is kept in ``diverged_at``. The other
    members go on; the loop ends at the horizon or when every member has
    diverged.

    Where a delay lookup reads does not depend on the state, so the lookups
    are precomputed per chunk of steps (see ``_step_tables``), and the chunk
    is split into waves (see ``_waves``): runs of steps whose stored lookup
    parts read only nodes committed when the run starts, no longer than the
    wave buffers hold (``_WAVE_FLOATS``). A wave owns its RK4 terms: step i
    of a wave reads the rows [c_prev, y, a1, a2, a3, a4, c_mid, c_end] from
    row 7 i of one buffer, c_prev being the previous step's c_end, so that
    k1 = a1 + c_prev, k2 and k3 are a2 and a3 + c_mid, and k4 = a4 + c_end.
    When the wave starts, its c rows are filled for all its steps at once
    with the state-independent part of the right-hand side at both stage
    times, c = f(x_d) B - C x_leak, summed from the committed buffer rows.
    A stage of a step is then one row of the RK4 tableau, one tanh and one
    product with the step's operator on the (members, 4n) real state,
    a_j = tanh(stage state) @ op, with the gains folded into A and B; the
    step writes its new value, and a1 = tanh(y_next) @ op, into the rows of
    the next step. The operator is A, or A + B on a step whose transmission
    lookup reads the stage state with weight 1 at both stage times and whose
    leak lookup is stored: its delay is 0, and its c is -C x_leak, as
    f(0) = 0. Any other step with a stage weight evaluates
    tanh([y | x_d + g y]) @ [A; B] - C x_leak whole instead, with its c
    rows 0. A driven network takes tanh(v + rest) - tanh(rest) per
    component before each product. Once a wave is done, its new values and
    their derivatives a1 + c_prev go to the node buffer, and the values are
    screened for divergence together: each member's first crossing among
    them is kept. No step of a wave reads a node of that wave. A grid that
    ``require_node_memory`` refuses is refused before anything is
    allocated.
    """
    n, members = model.n, len(starts)
    dim = 4 * n
    width = members * dim
    require_node_memory(model, members, horizon, step)
    # the horizon rounded up to whole steps, at least one: a grid has a cell
    steps = max(int(math.ceil(horizon / step - _EDGE_SLACK)), 1)

    # node buffer: [node, value or derivative, member, real component]
    nodes = np.zeros((steps + 1, 2, members, dim))
    pairs = nodes.view(complex).reshape(nodes.shape[:3] + (2, n))
    flat = nodes.reshape(2 * len(nodes), width)
    for s, start in enumerate(starts):
        try:
            start = np.asarray(start, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InputError(f"each start must be a (2, {n}) state pair: "
                             f"{exc}") from None
        if start.shape != (2, n):
            raise InputError(f"each start must be a (2, {n}) state pair, "
                             f"got shape {start.shape}")
        pairs[0, 0, s] = start

    leak = _per_component(model.c_diag)
    ab = np.vstack([_real_operator(model.a_mat, model.gamma_diag),
                    _real_operator(model.b_mat, model.gamma_diag)])
    a_op, b_op = ab[:dim], ab[dim:]
    # the operator of a step whose transmission delay is 0
    ab_sum = a_op + b_op
    rest = np.zeros((2, n), dtype=complex)
    if model.external_input is not None and np.any(model.external_input):
        # deviation coordinates: the input cancels, and f(v) = act(v + y_eq)
        # - act(y_eq), taken per component before any product: -C v is
        # never rounded away against the input
        rest = find_equilibrium(model)
        shift = np.ascontiguousarray(rest, dtype=complex).view(float).ravel()
        rest_act = np.tanh(shift)

        def activate(values, out):
            """f of ``values`` (trailing axis of 4n) into ``out``, the gains
            being folded into A and B."""
            np.add(values, shift, out=out)
            np.tanh(out, out=out)
            out -= rest_act
    else:
        activate = np.tanh

    # work arrays, written in place: [y | x_d] per member and its activation,
    # for a right-hand side evaluated whole; a stage state and its activation
    z = np.empty((members, 2, dim))
    z_stage, z_delayed = z[:, 0], z[:, 1]
    act = np.empty_like(z)
    act_flat = act.reshape(members, 2 * dim)
    state = np.empty((members, dim))
    state_flat = state.reshape(width)
    act_state = np.empty_like(state)
    # the wave buffers: ``parts``, per step the stored parts of its four
    # lookups (the leak parts become leak * them), and ``terms``, the
    # blocks of seven rows of its steps and of the step after the wave
    # (see above), whose first rows take each lookup's buffer rows, then
    # f(x_d) and f(x_d) B, when the wave starts. Together they hold at most
    # 2 _WAVE_FLOATS floats, or the 18 rows of a wave of one step
    longest = max(1, min(_CHUNK_STEPS,
                         (2 * _WAVE_FLOATS // max(width, 1) - 7) // 11))
    parts = np.empty((longest, 4, members, dim))
    terms = np.empty((longest + 1, 7, members, dim))
    # a2..a4 enter the earlier stage states of their step with weight 0
    # before it writes them, so they start at 0 (0 * nan is nan)
    terms[:, 3:6] = 0.0
    term_rows = terms.reshape(7 * longest + 7, members, dim)
    term_flat = terms.reshape(7 * longest + 7, width)
    # per step of a wave: its block, the rows of a2, a3 and a4, its new
    # value, as flat and as state, and the a1 of the next step
    slots = [(term_flat[b:b + 8], *term_rows[b + 3:b + 6], term_flat[b + 8],
              term_rows[b + 8], term_rows[b + 9])
             for b in range(0, 7 * longest, 7)]
    # the RK4 tableau on a block: the stage states of k2, k3 and k4, then
    # the new value. Products are taken with the bound ``dot`` methods of
    # fixed arrays, which skip the dispatch that ``np.dot`` runs in Python
    h = step
    to_2, to_3, to_4, to_next = [np.array(row).dot for row in (
        [h / 2.0, 1.0, h / 2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, h / 2.0, 0.0, 0.0, h / 2.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, h, 0.0, h, 0.0],
        [h / 6.0, 1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0, 2.0 * h / 3.0,
         h / 6.0])]
    act_dot = act_state.dot

    def rhs(y, x_d, base_at, g, out):
        """f([y | x_d]) @ [A; B] - leak x_leak at stage state y, into
        ``out``: ``base_at`` is leak * the stored part of x_leak, and ``g``
        holds the two lookups' stage weights."""
        g_leak, g_d = g
        z_stage[...] = y
        z_delayed[...] = x_d + g_d * y if g_d else x_d
        activate(z, act)
        act_flat.dot(ab, out)
        out -= base_at
        if g_leak:
            out -= (g_leak * leak) * y

    # while the sum of squares of a wave's new values stays below
    # limit^2 / 2, every complex modulus stays below the limit, with room
    # for rounding; only a wave that fails this one reduction checks each
    # member's moduli at each of its nodes
    screen = (0.5 * divergence_limit * divergence_limit
              if divergence_limit > 0.0 else -math.inf)
    alive = np.ones(members, dtype=bool)
    last = np.full(members, steps)             # last committed node
    diverged_at: list[float | None] = [None] * members
    blended = np.zeros(members, dtype=np.int64)   # linear-blend lookups
    # a diverged member's state runs on as inf/nan, unread and unreported
    with np.errstate(over="ignore", invalid="ignore"):
        # at t = 0 both lookups read the start
        start_values = nodes[0, 0]
        rhs(start_values, start_values, leak * start_values, (0.0, 0.0),
            nodes[0, 1])
        for k0 in range(0, steps, _CHUNK_STEPS):
            ks = np.arange(k0, min(k0 + _CHUNK_STEPS, steps))
            rows, weights, stage, blend = _step_tables(model, ks, step)
            # each step's operator, None where it evaluates its right-hand
            # side whole: a step whose transmission lookup is the stage
            # state at both times and whose leak lookup is stored has delay
            # 0; every other stage weight lies inside the step
            zero_delay = ((stage[:, :, 0] == 0.0)
                          & (stage[:, :, 1] == 1.0)).all(axis=1)
            whole = stage.any(axis=(1, 2)) & ~zero_delay
            ops = [None if w else ab_sum if d else a_op
                   for w, d in zip(whole.tolist(), zero_delay.tolist())]
            bounds = _waves(ks, rows, weights, longest)
            for w, e in zip(bounds, bounds[1:]):
                # every lookup part the wave stores reads committed nodes:
                # they are summed for all its steps at once, one lookup at a
                # time, its four buffer rows gathered into the terms and
                # weighed by one product
                count, k = e - w, k0 + w
                gathered = term_flat[:4 * count].reshape(count, 4, width)
                stored = parts[:count].reshape(count, 4, width)
                for lookup in range(4):
                    flat.take(rows[w:e, lookup], 0, gathered, "clip")
                    np.matmul(weights[w:e, lookup, None], gathered,
                              out=stored[:, lookup, None])
                base, x_d = parts[:count, :2], parts[:count, 2:]
                base *= leak
                # c at both stage times into the c rows of every step, which
                # a step that evaluates its right-hand side whole sets to 0.
                # f(x_d) B lies in rows that some c rows overlap, so numpy
                # reads it whole before it writes them
                f_x_d = term_rows[:2 * count].reshape(count, 2, members, dim)
                activate(x_d, f_x_d)
                product = term_rows[2 * count:4 * count]
                f_x_d.reshape(2 * count * members, dim).dot(
                    b_op, product.reshape(2 * count * members, dim))
                c_rows = term_rows[6:6 + 7 * count].reshape(
                    count, 7, members, dim)[:, :2]
                np.subtract(product.reshape(count, 2, members, dim), base,
                            out=c_rows)
                c_rows[whole[w:e]] = 0.0
                # the first step starts from node k: c_prev 0, and a1 its
                # derivative
                terms[0, 0] = 0.0
                terms[0, 1:3] = nodes[k]
                for i, op in enumerate(ops[w:e]):
                    block, a2, a3, a4, y_next, y_state, a1_next = slots[i]
                    if op is None:
                        g = stage[w + i].tolist()
                        for row, out, at in ((to_2, a2, 0), (to_3, a3, 0),
                                             (to_4, a4, 1)):
                            row(block, state_flat)
                            rhs(state, x_d[i, at], base[i, at], g[at], out)
                        to_next(block, y_next)
                        rhs(y_state, x_d[i, 1], base[i, 1], g[1], a1_next)
                        continue
                    # a plain step: per stage a tableau product, tanh and a
                    # product with op, twelve numpy calls when undriven
                    to_2(block, state_flat)
                    activate(state, act_state)
                    act_dot(op, a2)
                    to_3(block, state_flat)
                    activate(state, act_state)
                    act_dot(op, a3)
                    to_4(block, state_flat)
                    activate(state, act_state)
                    act_dot(op, a4)
                    to_next(block, y_next)
                    activate(y_state, act_state)
                    act_dot(op, a1_next)
                # the new nodes: values, and derivatives a1 + c_prev
                new = nodes[k + 1:k + count + 1]
                new[:, 0] = terms[1:count + 1, 1]
                np.add(terms[1:count + 1, 2], terms[1:count + 1, 0],
                       out=new[:, 1])
                # not (<) also catches nan
                if not np.einsum("ijk,ijk->", new[:, 0], new[:, 0]) < screen:
                    moduli = np.abs(pairs[k + 1:k + count + 1, 0])
                    crossed = ~(moduli.max(axis=(2, 3)) <= divergence_limit)
                    crossed &= alive
                    # each member's first crossing in the wave
                    for s in np.flatnonzero(crossed.any(axis=0)):
                        first = k + int(np.flatnonzero(crossed[:, s])[0])
                        last[s] = first
                        diverged_at[s] = (first + 1) * step
                        alive[s] = False
                    if not alive.any():
                        break
            # each member counts the chunk's steps before its last node
            blended += np.append(0, blend.cumsum())[np.clip(last - k0, 0, len(ks))]
            if not alive.any():
                break

    return [Trajectory(
        model=model, step=step, values=pairs[:end + 1, 0, s],
        derivs=pairs[:end + 1, 1, s], rest=rest,
        diverged_at=diverged_at[s], blended_lookups=int(blended[s]))
        for s, end in enumerate(last.tolist())]


@dataclass
class ConvergenceMetrics:
    final_sup: float            # max modulus over the trailing window
    peak: float                 # max modulus over the whole run, t >= 0
    time_to_threshold: float | None
    envelope_bounded: bool      # no new modulus records after the run starts


def convergence_metrics(traj: Trajectory, threshold: float = 1e-3
                        ) -> ConvergenceMetrics:
    """Deviation-from-equilibrium statistics on the committed grid."""
    series = _modulus_series(traj.values)
    tail = max(int(len(series) * (1.0 - _TAIL_FRACTION)), 0)
    final_sup = float(np.max(series[tail:]))
    peak = float(np.max(series))
    # the run stays below the threshold from the node after the last one
    # that is not below it (at or above it, or NaN)
    not_below = np.flatnonzero(~(series < threshold))
    first = not_below[-1] + 1 if not_below.size else 0
    time_to = float(traj.times[first]) if first < len(series) else None
    # the start is the first node
    envelope_bounded = peak <= float(series[0]) * (1.0 + 1e-9) + 1e-12
    return ConvergenceMetrics(final_sup=final_sup, peak=peak,
                              time_to_threshold=time_to,
                              envelope_bounded=envelope_bounded)


def find_equilibrium(model: NetworkModel) -> np.ndarray:
    """Fixed point of C x = (A + B) f(x) + u by damped iteration."""
    u_ext = (np.zeros((2, model.n), dtype=complex)
             if model.external_input is None else model.external_input)
    c_inv = 1.0 / model.c_diag[None, :]
    x = np.zeros((2, model.n), dtype=complex)
    for _ in range(_EQUILIBRIUM_ITERS):
        fx = activation(x, model.gamma_diag)
        target = c_inv * (mat_vec(model.a_mat, fx)
                          + mat_vec(model.b_mat, fx) + u_ext)
        x_new = ((1.0 - _EQUILIBRIUM_DAMPING) * x
                 + _EQUILIBRIUM_DAMPING * target)
        scale = max(1.0, np.max(np.abs(x_new)))
        if np.max(np.abs(x_new - x)) <= _EQUILIBRIUM_TOL * scale:
            return x_new
        x = x_new
    raise InputError(f"equilibrium iteration did not converge in "
                     f"{_EQUILIBRIUM_ITERS} damped steps")
