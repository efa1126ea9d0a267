"""Fixed-step delay differential equation integration for the network model.

State convention matches the algebra layer: a quaternion n-vector is a
(2, n) complex array, row 0 holding w + x i and row 1 holding y + z i.

The dynamics integrated are

    dx/dt = -C x(t - delta) + A f(x(t)) + B f(x(t - d1(t) - d2(t))) + u,

with f the componentwise gain * tanh activation (applied to each of the four
real components separately, one gain per neuron). Integration is classical
RK4 under the method of steps: delayed values come from cubic Hermite
interpolation of the committed solution, so the scheme keeps its full order
as long as every delay argument lands on committed data. When a clamped
time-varying delay touches zero the argument coincides with the current
stage time and the stage state itself is used; arguments strictly inside the
as-yet-uncommitted step (possible only while a delay crosses below the step
size) fall back to a linear blend, a transient, local degradation.

``integrate`` advances any number of members together in one loop, on a
(members, 4n) real state. Each member starts from a constant initial state
and has its own divergence time; the others go on without it.

Models carrying a nonzero equilibrium (produced by ``equilibrium_shift``)
are integrated in deviation coordinates: the activation becomes
f(v) = act(v + y_eq) - act(y_eq), which vanishes at zero exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumError, InputError
from .model import NetworkModel
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
    """One committed orbit: x(u) = ``start`` for every u < 0, and ``values``
    and ``derivs`` hold x and its derivative at the grid times 0, step, ...,
    horizon, with ``values[0]`` = ``start``.

    ``diverged_at`` is the grid time at which the state passed the divergence
    limit (the grid ends one step before it), or None. ``blended_lookups``
    counts the delay lookups that fell back to a linear blend while the
    committed steps were computed.
    """

    model: NetworkModel
    step: float
    start: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    diverged_at: float | None = None
    blended_lookups: int = 0

    @property
    def horizon(self) -> float:
        return self.step * (len(self.values) - 1)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))

    def state(self, u) -> np.ndarray:
        """x(u) for u in [-lookback, horizon]: ``start`` before t = 0, and
        cubic Hermite interpolation of the grid from there on. An array of
        times gives one (2, n) state per time."""
        u = np.asarray(u, dtype=float)
        lo, slack = -self.model.lookback(), _EDGE_SLACK * self.step
        inside = (lo - slack <= u) & (u <= self.horizon + slack)
        if not np.all(inside):
            bad = u[~inside].flat[0]
            raise InputError(f"lookup at t={bad:.6g} is outside the stored "
                             f"interval [{lo:.6g}, {self.horizon:.6g}]")
        if len(self.values) == 1:
            return np.broadcast_to(self.start, u.shape + self.start.shape).copy()
        offset = u / self.step
        cell = np.clip(offset.astype(int), 0, len(self.values) - 2)
        w = _hermite_weights(offset - cell, self.step)[..., None, None, :]
        x = (w[..., 0] * self.values[cell] + w[..., 1] * self.derivs[cell]
             + w[..., 2] * self.values[cell + 1]
             + w[..., 3] * self.derivs[cell + 1])
        return np.where((u < 0.0)[..., None, None], self.start, x)


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


# Steps per stencil table: small enough that the tables and their
# temporaries add no memory next to the trajectories themselves.
_CHUNK_STEPS = 128


def integrate(model: NetworkModel, starts, horizon: float, step: float,
              divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT
              ) -> list[Trajectory]:
    """Integrate the delayed dynamics from each start, all in one RK4 loop.

    Each start is a (2, n) state pair, the member's state at every time up
    to 0; the result holds one Trajectory per start, in order. A member
    diverges at the first grid time where a component's complex modulus
    passes ``divergence_limit`` or stops being finite: its trajectory ends at the
    last node before that time, which is kept in ``diverged_at``. The other
    members go on; the loop ends at the horizon or when every member has
    diverged.

    Delay lookups do not depend on the state, so they are precomputed per
    chunk of steps as stencils (see ``_lookup_stencils``), and every
    right-hand side is a few array operations on the (members, 4n) real
    state, with A and B as real 4n x 4n matrices with the gains folded in.
    A grid whose node buffer would not fit in physical memory is refused
    before anything is allocated.
    """
    if step <= 0 or horizon <= 0:
        raise InputError("horizon and step must be positive")
    n, members = model.n, len(starts)
    dim = 4 * n
    need = (horizon / step + 1.0) * 2 * members * dim * 8.0   # float64 nodes
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not need <= memory:
        raise InputError(f"a grid of horizon {horizon:g} at step {step:g} "
                         f"needs {need:.3g} bytes of nodes for {members} "
                         f"members, more than the {memory:.3g} bytes of "
                         "physical memory")
    steps = int(math.ceil(horizon / step - _EDGE_SLACK))

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
    a_op = _real_operator(model.a_mat, model.gamma_diag)
    b_op = _real_operator(model.b_mat, model.gamma_diag)
    drive = (np.zeros(dim) if model.external_input is None
             else _real_form(model.external_input))
    if model.equilibrium is None:
        act = np.tanh
    else:
        # deviation coordinates: f(v) = act(v + y_eq) - act(y_eq)
        shift = _real_form(model.equilibrium)
        drive = drive - np.tanh(shift) @ (a_op + b_op)

        def act(v):
            return np.tanh(v + shift)

    def stored(rows, weights):
        """The node-buffer part of the two lookups of one evaluation."""
        return ((weights[0] @ flat[rows[0]:rows[0] + 4]).reshape(members, dim),
                (weights[1] @ flat[rows[1]:rows[1] + 4]).reshape(members, dim))

    def rhs(y, lookups, stage):
        x_leak, x_d = lookups
        if stage[0]:
            x_leak = x_leak + stage[0] * y
        if stage[1]:
            x_d = x_d + stage[1] * y
        return drive - leak * x_leak + act(y) @ a_op + act(x_d) @ b_op

    alive = np.ones(members, dtype=bool)
    last = np.full(members, steps)             # last committed node
    diverged_at: list[float | None] = [None] * members
    blends = []                                # linear-blend lookups per step
    rows, weights, stage, _ = _lookup_stencils(
        model, np.zeros(1), np.zeros(1, dtype=int), step)
    # a diverged member's state runs on as inf/nan, unread and unreported
    with np.errstate(over="ignore", invalid="ignore"):
        nodes[0, 1] = rhs(nodes[0, 0], stored(rows[0], weights[0]),
                          stage[0].tolist())
        for k0 in range(0, steps, _CHUNK_STEPS):
            if not alive.any():
                break
            ks = np.arange(k0, min(k0 + _CHUNK_STEPS, steps))
            t = ks * step
            # per step: the two middle stages, the end stage, and the
            # derivative at the new node once it is committed
            rows, weights, stage, blend = _lookup_stencils(
                model, np.stack([t + step / 2.0, t + step, (ks + 1) * step], 1),
                np.stack([ks, ks, ks + 1], 1), step)
            blends.append(blend.sum(axis=2) @ [2, 1, 1])
            for i, k in enumerate(ks.tolist()):
                r, w, g = rows[i].tolist(), weights[i], stage[i].tolist()
                y = nodes[k, 0]
                k1 = nodes[k, 1]
                mid = stored(r[0], w[0])       # shared by both middle stages
                k2 = rhs(y + (step / 2.0) * k1, mid, g[0])
                k3 = rhs(y + (step / 2.0) * k2, mid, g[0])
                k4 = rhs(y + step * k3, stored(r[1], w[1]), g[1])
                y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # not (<=) also catches nan
                crossed = ~(np.abs(y_next.view(complex)).max(axis=1)
                            <= divergence_limit) & alive
                if crossed.any():
                    for s in np.flatnonzero(crossed):
                        last[s] = k
                        diverged_at[s] = (k + 1) * step
                    alive &= ~crossed
                    if not alive.any():
                        break
                nodes[k + 1, 0] = y_next
                nodes[k + 1, 1] = rhs(y_next, stored(r[2], w[2]), g[2])

    blended = np.concatenate([[0]] + blends).cumsum()
    return [Trajectory(
        model=model, step=step, start=pairs[0, 0, s],
        values=pairs[:end + 1, 0, s], derivs=pairs[:end + 1, 1, s],
        diverged_at=diverged_at[s], blended_lookups=int(blended[end]))
        for s, end in enumerate(last.tolist())]


@dataclass
class ConvergenceMetrics:
    final_sup: float            # max modulus over the trailing window
    peak: float                 # max modulus over the whole run, t >= 0
    time_to_threshold: float | None
    threshold: float
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
    start_peak = float(_modulus_series(traj.start[None])[0])
    envelope_bounded = peak <= start_peak * (1.0 + 1e-9) + 1e-12
    return ConvergenceMetrics(final_sup=final_sup, peak=peak,
                              time_to_threshold=time_to, threshold=threshold,
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
    raise EquilibriumError(f"equilibrium iteration did not converge in "
                           f"{_EQUILIBRIUM_ITERS} damped steps")


def equilibrium_shift(model: NetworkModel) -> NetworkModel:
    """Recast the driven network in deviation coordinates about its rest point.

    The returned model has no external input; its activation is interpreted
    by ``integrate`` as f(v) = act(v + y_eq) - act(y_eq), which is zero at the
    origin exactly and keeps the same per-neuron Lipschitz gains.
    """
    return dataclasses.replace(model, external_input=None,
                               equilibrium=find_equilibrium(model))
