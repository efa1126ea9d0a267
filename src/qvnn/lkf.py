"""Lyapunov-Krasovskii functional evaluation along simulated trajectories.

The functional has four parts, sampled at grid nodes and evaluated with
the certificate matrices on the nodes of a trajectory's deviation x from
its rest point (x = ``values[0]`` before t = 0), with f(x) standing for
the activation's deviation f(x + rest) - f(rest):

    V1 = (x(t) - C int_{t-delta}^t x)^* P1 (same),
    V2 = int_{t-delta}^t x^* P2 x  +  delta * double integral of x^* P3 x,
    V3 = windows [t-d1(t), t], [t-d(t), t], [t-d1, t], [t-d, t] of
         x^* Q x and f(x)^* Q f(x) forms,
    V4 = double integrals of xdot^* R1 xdot and xdot^* R2 xdot, which read
         only t >= 0: initial data are constant, so xdot is 0 before that.

Each double integral collapses to a single weighted integral by switching
the order of integration; the weights are the affine functions written in
the code. All quadratic forms are real by Hermitian symmetry and are
computed through the complex embedding in one vectorized pass over the
grid, and every window integral is evaluated for all sample times at once.

Quadrature is composite Simpson on whole grid cells plus linearly
interpolated trapezoid slivers at window edges, which keeps every window
integral O(h^3) accurate without assuming window widths are grid multiples.
The Simpson rule is that of ``scipy.integrate.simpson``, written as weights
on sums of the grid values: 2 on the nodes of the window's first node
parity, 4 on the others, less 1 at each end, all over 3; an even node count
puts the last interval's (-1, 8, 5) / 12 correction on the last three
nodes, and two nodes are the trapezoid. Each window's two parity sums run
over its own nodes only, so its error is a few roundings of those nodes. A
window taken as the difference of two running sums from the start of the
grid would be the difference of two long prefixes instead, and lose
relative accuracy as the functional decays. A weighted integrand
(s - origin_k) f is summed as (s - ref) f plus (ref - origin_k) f, with one
reference per chunk of windows, for the same reason. Windows are evaluated
``_CHUNK_WINDOWS`` at a time, which bounds the temporaries and the span of
that weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lmi import DecisionVars
from .qmatrix import qv_embed
from .simulate import Trajectory, activation

_EDGE = 1e-9
_CHUNK_WINDOWS = 512    # windows evaluated together, which bounds temporaries


def _parity_sums(times, flat, first, end, origin):
    """Sums over nodes first..end of each window, of those of first's parity
    and of the others, (windows, width): each window summed over its own
    nodes, from one ``reduceat`` per parity over the chunk's nodes."""
    lo, hi = int(first.min()), int(end.max()) + 1
    part = flat[lo:hi]
    if origin is not None:
        # (s - origin_k) f is (s - ref) f + (ref - origin_k) f, with one
        # reference for the chunk, which keeps the weights near the windows
        ref = origin[0]
        part = np.stack([part, (times[lo:hi] - ref)[:, None] * part], axis=1)
    # zero rows after the nodes make every bound below an index of its parity
    padded = np.zeros((len(part) + 2,) + part.shape[1:])
    padded[:len(part)] = part
    r0, r1 = first - lo, end - lo
    sums = []
    for p in (0, 1):
        start, stop = (r0 - p + 1) // 2, (r1 - p) // 2 + 1
        total = np.add.reduceat(padded[p::2], np.stack([start, stop], 1).ravel(),
                                axis=0)[::2]
        total[start >= stop] = 0.0
        if origin is not None:
            total = total[:, 1] + (ref - origin)[:, None] * total[:, 0]
        sums.append(total)
    odd = (r0 % 2 == 1)[:, None]
    return np.where(odd, sums[1], sums[0]), np.where(odd, sums[0], sums[1])


def _simpson_windows(times, flat, a, b, origin):
    """``window_quad`` of the flat values (nodes, width), for one chunk."""
    step, lo, last = times[1] - times[0], times[0], len(flat) - 1

    def node(j):
        """The integrand at node j of each window, (windows, width)."""
        if origin is None:
            return flat[j]
        return flat[j] * (times[j] - origin)[:, None]

    def interp(pos):
        cell = np.clip(np.floor(pos).astype(int), 0, last - 1)
        frac = (pos - cell)[:, None]
        return (1.0 - frac) * node(cell) + frac * node(cell + 1)

    pa = (a - lo) / step
    pb = (b - lo) / step
    i0 = np.clip(np.ceil(pa - 1e-9), 0, last).astype(int)
    i1 = np.clip(np.floor(pb + 1e-9), 0, last).astype(int)
    count = (i1 - i0 + 1)[:, None]
    even = count % 2 == 0
    # composite Simpson over i0..end, an odd number of nodes (end is kept
    # off the nodes before i0 where a thin window makes the count < 2)
    end = np.maximum(i1 - even[:, 0], i0)
    same, other = _parity_sums(times, flat, i0, end, origin)
    g0, g_end, g1 = node(i0), node(end), node(i1)
    core = step / 3.0 * (2.0 * same + 4.0 * other - g0 - g_end)
    # the last interval of an even node count
    g_a = node(np.maximum(i1 - 1, 0))
    g_b = node(np.maximum(i1 - 2, 0))
    tail = np.where(count == 2, step / 2.0 * (g_a + g1),
                    step / 12.0 * (-g_b + 8.0 * g_a + 5.0 * g1))
    core = np.where(count == 2, 0.0, core) + np.where(even, tail, 0.0)
    edge_a, edge_b = interp(pa), interp(pb)
    wa = ((i0 - pa) * step)[:, None]
    wb = ((pb - i1) * step)[:, None]
    core = core + np.where(wa > _EDGE * step, wa * (edge_a + g0) / 2.0, 0.0)
    core = core + np.where(wb > _EDGE * step, wb * (g1 + edge_b) / 2.0, 0.0)
    thin = (b - a)[:, None] * (edge_a + edge_b) / 2.0
    return np.where((i1 <= i0)[:, None], thin, core)


def window_quad(times: np.ndarray, values: np.ndarray, a, b,
                origin=None) -> np.ndarray:
    """Integrals of uniformly sampled values over the windows [a_k, b_k].

    ``values`` may be real or complex with any trailing shape; integration is
    along axis 0, and the result has one row per window. With ``origin`` the
    integrand is (s - origin_k) * values(s), the weight of one collapsed
    double integral. The weight is affine in s on both sides of the
    origin, so the interpolated window edges keep the O(h^3) accuracy.
    """
    times = np.asarray(times, dtype=float)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if np.any(b < a):
        raise InputError("integration bounds are reversed")
    lo, hi = times[0], times[-1]
    outside = ((a < lo - _EDGE * max(1.0, abs(lo)))
               | (b > hi + _EDGE * max(1.0, abs(hi))))
    if outside.any():
        k = int(np.argmax(outside))
        raise InputError(f"window [{a[k]:.6g}, {b[k]:.6g}] is outside the "
                         f"sampled span [{lo:.6g}, {hi:.6g}]")
    values = np.asarray(values)
    flat = np.ascontiguousarray(values).reshape(len(values), -1)
    flat = (flat.view(float) if np.iscomplexobj(flat)
            else flat.astype(float, copy=False))
    if origin is not None:
        origin = np.broadcast_to(np.asarray(origin, dtype=float), a.shape)
    out = np.empty((len(a), flat.shape[1]))
    for k in range(0, len(a), _CHUNK_WINDOWS):
        part = slice(k, k + _CHUNK_WINDOWS)
        out[part] = _simpson_windows(times, flat, a[part], b[part],
                                     None if origin is None else origin[part])
    if np.iscomplexobj(values):
        out = out.view(complex)
    return out.reshape((len(a),) + values.shape[1:])


@dataclass
class LyapunovTrace:
    times: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.v1 + self.v2 + self.v3 + self.v4

    def max_increase(self) -> float:
        """Largest step-to-step rise of the total (0 for a monotone trace)."""
        diffs = np.diff(self.total)
        return float(np.max(diffs)) if len(diffs) else 0.0


def _batched_form(chi: np.ndarray, states: np.ndarray) -> np.ndarray:
    """x^* M x at each state, from the complex embedding ``chi`` of M: the
    real part of e^H (chi e) for the embedding e of x, summed over the real
    and imaginary parts of both, so that no conjugate or three-operand
    product is formed."""
    emb = qv_embed(states)
    return np.einsum("ni,ni->n", emb.view(float), (emb @ chi.T).view(float))


def lkf_trace(traj: Trajectory, dv: DecisionVars,
              stride: int = 10) -> LyapunovTrace:
    """The functional of ``dv`` at every ``stride``-th node of ``traj``.

    The functional is linear in the certificate's matrices. It is traced
    with them divided by the power of two at their largest entry, which is
    exact, and scaled back at the end, so that a certificate near the top
    of the float range gives its functional wherever that is finite.
    """
    if stride < 1:
        raise InputError("stride must be at least 1")
    model = traj.model
    if dv.n != model.n:
        raise InputError(f"certificate is for n = {dv.n}, the model has "
                         f"n = {model.n}")
    chis = {name: getattr(dv, name).complex_embed() for name in
            ("p1", "p2", "p3", "q1", "q2", "q3", "q4", "q5", "q6", "r1", "r2")}
    largest = max(float(np.max(np.abs(chi))) for chi in chis.values())
    # 2^(e - 1) <= largest < 2^e; any power of two for 0, inf or nan
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    chis = {name: chi / scale for name, chi in chis.items()}
    # the grid reaches back over the lookback window, where x is the start;
    # Simpson panels that straddle t = 0 read these nodes too
    step = traj.step
    back = max(int(np.ceil(model.lookback() / step - _EDGE)), 1)
    grid = np.concatenate([-back * step + step * np.arange(back), traj.times])
    states = np.concatenate([[traj.values[0]] * back, traj.values])
    f_states = (activation((states + traj.rest).reshape(-1, model.n),
                           model.gamma_diag).reshape(states.shape)
                - activation(traj.rest, model.gamma_diag))
    x_forms = {name: _batched_form(chis[name], states)
               for name in ("p2", "p3", "q1", "q3", "q5", "q6")}
    f_forms = {name: _batched_form(chis[name], f_states)
               for name in ("q2", "q4")}
    r_forms = {name: _batched_form(chis[name], traj.derivs)
               for name in ("r1", "r2")}

    t = traj.times[::stride]
    delta = model.delta
    d1b, d2b, db = model.d1_bound, model.d2_bound, model.d_bound
    d1t = model.delay1(t)
    dt = d1t + model.delay2(t)

    ix = window_quad(grid, states, t - delta, t)
    v1 = _batched_form(chis["p1"], traj.values[::stride] - model.c_diag * ix)

    v2 = window_quad(grid, x_forms["p2"], t - delta, t)
    v2 += delta * window_quad(grid, x_forms["p3"], t - delta, t,
                              origin=t - delta)

    v3 = window_quad(grid, x_forms["q1"], t - d1t, t)
    v3 += window_quad(grid, f_forms["q2"], t - d1t, t)
    v3 += window_quad(grid, x_forms["q3"], t - dt, t)
    v3 += window_quad(grid, f_forms["q4"], t - dt, t)
    v3 += window_quad(grid, x_forms["q5"], t - d1b, t)
    v3 += window_quad(grid, x_forms["q6"], t - db, t)

    def deriv_quad(name, lag_a, lag_b, weighted):
        """Integral of a derivative form over [t - lag_a, t - lag_b], which
        reads only s >= 0, weighted by s - (t - lag_a) if asked."""
        a = np.maximum(t - lag_a, 0.0)
        return window_quad(traj.times, r_forms[name], a,
                           np.maximum(t - lag_b, a),
                           origin=t - lag_a if weighted else None)

    v4 = d1b * deriv_quad("r1", d1b, 0.0, weighted=True)
    if d2b > 0:
        v4 += d2b * deriv_quad("r2", db, d1b, weighted=True)
        v4 += d2b * d2b * deriv_quad("r2", d1b, 0.0, weighted=False)
    return LyapunovTrace(times=t, v1=scale * v1, v2=scale * v2,
                         v3=scale * v3, v4=scale * v4)
