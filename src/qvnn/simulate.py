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
wave at once, and folds them into the RK4 tableau, so that a stage is one
tanh and one product with A.

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
    return np.stack([(1.0 + 2.0 * tau) * (1.0 - tau) ** 2,
                     step * tau * (1.0 - tau) ** 2,
                     tau * tau * (3.0 - 2.0 * tau),
                     step * tau * tau * (tau - 1.0)], axis=-1)


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


# Inside ``integrate`` a (2, n) state pair is stored as its 4n real components
# in memory order: row, neuron, real/imaginary part. Viewing such an array as
# complex gives the pair back without a copy.


def _real_form(pair: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(pair, dtype=complex).view(float).ravel()


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
    u = np.stack([times - model.delta,
                  times - model.delay1(times) - model.delay2(times)], axis=-1)
    t_end = done * step
    before = u < 0.0
    in_grid = ~before & (u <= t_end + _EDGE_SLACK)
    at_stage = ~(before | in_grid) & (np.abs(u - stage_t) <= _EDGE_SLACK)
    blend = ~(before | in_grid | at_stage)

    offset = u / step
    cell = np.clip(np.floor(offset), 0.0, np.maximum(done - 1, 0))
    weights = _hermite_weights(offset - cell, step)

    # lookups that read one node directly: all of node 0 before t = 0, or
    # while it is the only node (cell is 0 for both); none of the last
    # committed node at the stage time, or its linear blend with the stage
    # state inside the uncommitted step
    whole = before | (in_grid & (done == 0))
    direct = whole | at_stage | blend
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (u - t_end) / (stage_t - t_end)
    node = np.where(at_stage | blend, done, cell.astype(int))
    weights[direct] = 0.0
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
    t = ks * step
    rows, weights, stage, blend = _lookup_stencils(
        model, np.stack([t + step / 2.0, t + step], 1),
        np.stack([ks, ks], 1), step)
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
# Floats per wave buffer, which bounds the length of a wave: the two
# buffers take at most 128 KiB whatever the number of members
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
    wave buffers hold (``_WAVE_FLOATS``). For all steps of a wave at once,
    the state-independent part of each right-hand side at both stage
    times, c = f(x_d) B - C x_leak, is summed from the committed buffer
    rows. A stage of a step is then one row of the RK4 tableau on
    [y, k1, a2, a3, a4, c_mid, c_end], one tanh and one product with A on
    the (members, 4n) real state, a_j = tanh(stage state) @ A, with the
    gains folded into A and B; the derivative at the new node is
    tanh(y_next) @ A + c_end. A step with a stage weight, whose delay lies
    inside it, evaluates tanh([y | x_d + g y]) @ [A; B] - C x_leak whole
    instead, with the c terms 0. A driven network takes tanh(v + rest) -
    tanh(rest) per component before each product. Once a wave is done, its
    new values are screened for divergence together, and each member's
    first crossing among them is kept. A grid that ``require_node_memory``
    refuses is refused before anything is allocated.
    """
    n, members = model.n, len(starts)
    dim = 4 * n
    require_node_memory(model, members, horizon, step)
    # the horizon rounded up to whole steps, at least one: a grid has a cell
    steps = max(int(math.ceil(horizon / step - _EDGE_SLACK)), 1)

    # node buffer: [node, value or derivative, member, real component]
    nodes = np.zeros((steps + 1, 2, members, dim))
    pairs = nodes.view(complex).reshape(nodes.shape[:3] + (2, n))
    flat = nodes.reshape(2 * len(nodes), members * dim)
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
    shift = None
    rest = np.zeros((2, n), dtype=complex)
    if model.external_input is not None and np.any(model.external_input):
        # deviation coordinates: the input cancels, and f(v) = act(v + y_eq)
        # - act(y_eq), taken per component before any product: -C v is
        # never rounded away against the input
        rest = find_equilibrium(model)
        shift = _real_form(rest)
        rest_act = np.tanh(shift)

    def activate(values, out):
        """f of ``values`` (trailing axis of 4n) into ``out``, the gains
        being folded into A and B."""
        if shift is None:
            np.tanh(values, out=out)
        else:
            np.add(values, shift, out=out)
            np.tanh(out, out=out)
            out -= rest_act

    # work arrays, written in place: [y | x_d] per member and its activation;
    # a stage state and its activation; and the RK4 terms [y, k1, a2, a3,
    # a4, c_mid, c_end], where a_j is tanh(stage state) A, or the whole k_j
    # on a step with stage weights, which then sets the c terms to 0. a2..a4
    # enter the first step's stage states with weight 0 before it writes
    # them, so they start at 0 (0 * nan is nan)
    z = np.empty((members, 2, dim))
    z_flat, z_stage, z_delayed = z.reshape(members, 2 * dim), z[:, 0], z[:, 1]
    act = np.empty_like(z)
    act_flat = act.reshape(members, 2 * dim)
    state = np.empty((members, dim))
    state_flat = state.reshape(-1)
    act_state = np.empty_like(state)
    # per step of a wave: ``parts``, the stored parts of its four lookups
    # (the leak parts become leak * them), and ``work``, first its gathered
    # buffer rows, then f of its two stored transmission parts and
    # c = f(x_d) B - leak x_leak at both stage times
    longest = max(1, min(_CHUNK_STEPS,
                         _WAVE_FLOATS // (4 * dim * max(members, 1))))
    parts = np.empty((longest, 2, 2, members, dim))
    work = np.empty_like(parts)
    parts_rows = parts.reshape(longest, 4, members * dim)
    work_rows = work.reshape(longest, 4, members * dim)
    terms = np.zeros((7, members * dim))
    k_later = terms[2:5].reshape(3, members, dim)
    # the RK4 tableau on the terms: the stage states of k2, k3 and k4, then
    # the new value; k_j = a_j + c at its stage time
    h = step
    tableau = np.array([
        [1.0, h / 2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, h / 2.0, 0.0, 0.0, h / 2.0, 0.0],
        [1.0, 0.0, 0.0, h, 0.0, h, 0.0],
        [1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0, 2.0 * h / 3.0, h / 6.0]])

    def rhs(y, x_d, base_at, g, out):
        """f([y | x_d]) @ [A; B] - leak x_leak at stage state y, into
        ``out``: ``base_at`` is leak * the stored part of x_leak, and ``g``
        holds the two lookups' stage weights."""
        g_leak, g_d = g
        z_stage[...] = y
        z_delayed[...] = x_d + g_d * y if g_d else x_d
        activate(z, act)
        np.dot(act_flat, ab, out=out)
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
    blends = []                                # linear-blend lookups per step
    # a diverged member's state runs on as inf/nan, unread and unreported
    with np.errstate(over="ignore", invalid="ignore"):
        # at t = 0 both lookups read the start
        start_values = nodes[0, 0]
        rhs(start_values, start_values, leak * start_values, (0.0, 0.0),
            nodes[0, 1])
        for k0 in range(0, steps, _CHUNK_STEPS):
            ks = np.arange(k0, min(k0 + _CHUNK_STEPS, steps))
            rows, weights, stage, blend = _step_tables(model, ks, step)
            blends.append(blend)
            weighted = stage.any(axis=(1, 2)).tolist()
            bounds = _waves(ks, rows, weights, longest)
            for w, e in zip(bounds, bounds[1:]):
                # every lookup part the wave stores reads committed nodes:
                # they are summed for all its steps at once, one buffer row
                # of each stencil at a time, and so is c at both stage times
                count = e - w
                parts_rows[:count] = 0.0
                for j in range(4):
                    np.take(flat, rows[w:e, :, j], axis=0,
                            out=work_rows[:count], mode="clip")
                    work_rows[:count] *= weights[w:e, :, j, None]
                    parts_rows[:count] += work_rows[:count]
                leak_parts, consts = parts[:count, 0], work[:count, 1]
                leak_parts *= leak
                activate(parts[:count, 1], work[:count, 0])
                np.matmul(work[:count, 0], b_op, out=consts)
                consts -= leak_parts
                for i in range(count):
                    k = k0 + w + i
                    terms[:2] = flat[2 * k:2 * k + 2]
                    if weighted[w + i]:
                        g = stage[w + i].tolist()
                        terms[5:] = 0.0
                        x_d, base = parts[i, 1], parts[i, 0]
                        for j, at in enumerate((0, 0, 1)):
                            np.dot(tableau[j], terms, out=state_flat)
                            rhs(state, x_d[at], base[at], g[at],
                                k_later[j])
                    else:
                        terms[5:] = work_rows[i, 2:]
                        for j in range(3):
                            np.dot(tableau[j], terms, out=state_flat)
                            activate(state, act_state)
                            np.dot(act_state, a_op, out=k_later[j])
                    y_next = nodes[k + 1, 0]
                    np.dot(tableau[3], terms, out=y_next.reshape(-1))
                    if weighted[w + i]:
                        rhs(y_next, x_d[1], base[1], g[1],
                            nodes[k + 1, 1])
                    else:
                        activate(y_next, act_state)
                        np.dot(act_state, a_op, out=nodes[k + 1, 1])
                        nodes[k + 1, 1] += consts[i, 1]
                new = nodes[k0 + w + 1:k0 + e + 1, 0]
                # not (<) also catches nan
                if not np.einsum("ijk,ijk->", new, new) < screen:
                    moduli = np.abs(pairs[k0 + w + 1:k0 + e + 1, 0])
                    crossed = ~(moduli.max(axis=(2, 3)) <= divergence_limit)
                    crossed &= alive
                    # each member's first crossing in the wave
                    for s in np.flatnonzero(crossed.any(axis=0)):
                        k = k0 + w + int(np.flatnonzero(crossed[:, s])[0])
                        last[s] = k
                        diverged_at[s] = (k + 1) * step
                        alive[s] = False
                    if not alive.any():
                        break
            if not alive.any():
                break

    blended = np.concatenate([[0]] + blends).cumsum()
    return [Trajectory(
        model=model, step=step, values=pairs[:end + 1, 0, s],
        derivs=pairs[:end + 1, 1, s], rest=rest,
        diverged_at=diverged_at[s], blended_lookups=int(blended[end]))
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
