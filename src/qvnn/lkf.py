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

Each double integral collapses to one integral weighted by s - (window
start) by switching the order of integration. V2..V4 are one table of
windows: each is integrated once, for all sample times, over the stacked
forms of its terms. Each form is made once, in one vectorized pass over the
grid through the complex embedding, and is real by Hermitian symmetry.

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
from .lmi import HERMITIAN_NAMES, DecisionVars
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
    chis = {name: getattr(dv, name).complex_embed() for name in HERMITIAN_NAMES}
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

    t = traj.times[::stride]
    delta = model.delta
    d1b, d2b, db = model.d1_bound, model.d2_bound, model.d_bound
    d1t = model.delay1(t)
    dt = d1t + model.delay2(t)

    v = np.zeros((4, len(t)))    # V1..V4
    ix = window_quad(grid, states, t - delta, t)
    v[0] = _batched_form(chis["p1"], traj.values[::stride] - model.c_diag * ix)

    # V2..V4: windows [t - start, t - end], weighted by s - (t - start) or not;
    # a term is (part, factor, matrix, signal), a signal (nodes, values, floor)
    x, fx = (grid, states, -np.inf), (grid, f_states, -np.inf)
    xdot = (traj.times, traj.derivs, 0.0)    # read from s >= 0 only
    windows = [
        (delta, 0.0, False, [(2, 1.0, "p2", x)]),
        (delta, 0.0, True, [(2, delta, "p3", x)]),
        (d1t, 0.0, False, [(3, 1.0, "q1", x), (3, 1.0, "q2", fx)]),
        (dt, 0.0, False, [(3, 1.0, "q3", x), (3, 1.0, "q4", fx)]),
        (d1b, 0.0, False, [(3, 1.0, "q5", x)]),
        (db, 0.0, False, [(3, 1.0, "q6", x)]),
        (d1b, 0.0, True, [(4, d1b, "r1", xdot)]),
        (db, d1b, True, [(4, d2b, "r2", xdot)]),
        (d1b, 0.0, False, [(4, d2b * d2b, "r2", xdot)]),
    ]
    forms = {name: _batched_form(chis[name], signal[1]) for name, signal in
             {term[2]: term[3] for *_, terms in windows for term in terms}.items()}
    for start, end, weighted, terms in windows:
        # a term whose factor is 0 (R2's at d2 = 0) is not integrated
        terms = [term for term in terms if term[1] != 0.0]
        if terms:
            nodes, _, floor = terms[0][3]
            a = np.maximum(t - start, floor)
            got = window_quad(nodes, np.stack([forms[term[2]] for term in terms], 1),
                              a, np.maximum(t - end, a),
                              origin=t - start if weighted else None)
            for (part, factor, _, _), column in zip(terms, got.T):
                v[part - 1] += factor * column
    return LyapunovTrace(t, *(scale * v))
