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
nodes, and two nodes are the trapezoid. The sums restart every ``_BLOCK``
nodes. A window reads the partial sums of its two end blocks and the totals
of the blocks between them, so its error is a few roundings of its own
nodes. Running sums from the start of the grid would make each window the
difference of two long prefixes instead, and lose relative accuracy as the
functional decays. Windows are evaluated ``_CHUNK_WINDOWS`` at a time, so
the temporaries stay no larger than the sums themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InputError
from .lmi import DecisionVars
from .qmatrix import HermitianQuatMatrix, qv_embed
from .simulate import Trajectory, activation

_EDGE = 1e-9
_BLOCK = 64             # grid nodes per restart of the window sums; even
_CHUNK_WINDOWS = 512    # windows evaluated together, which bounds temporaries
_PARITY = np.arange(2)


class _BlockSums:
    """Grid values (nodes, width) with running sums, one per node parity,
    that restart every ``_BLOCK`` nodes.

    For a weighted integrand (s - origin) f(s), which is (s - block start) f
    plus (block start - origin) f, the sums of (s - block start) f are kept
    too, so one table serves every origin.
    """

    def __init__(self, times: np.ndarray, flat: np.ndarray, weighted: bool):
        self.times, self.flat = times, flat
        nodes = len(flat)
        channels = flat[:, None]
        if weighted:
            start = times[::_BLOCK].repeat(_BLOCK)[:nodes]
            channels = np.stack([flat, (times - start)[:, None] * flat], axis=1)
        blocks = -(-nodes // _BLOCK)
        padded = np.zeros((blocks * _BLOCK,) + channels.shape[1:])
        padded[:nodes] = channels
        # sums[b, k, p]: the first k nodes of parity p in block b
        self.sums = np.zeros((blocks, _BLOCK // 2 + 1, 2) + channels.shape[1:])
        np.cumsum(padded.reshape((blocks, _BLOCK // 2, 2) + channels.shape[1:]),
                  axis=1, out=self.sums[:, 1:])

    def head(self, block, count, origin):
        """Sums of each parity over the first ``count`` nodes of ``block``,
        (windows, 2, width)."""
        part = self.sums[block[:, None], (count[:, None] + 1 - _PARITY) // 2,
                         _PARITY]
        if origin is None:
            return part[:, :, 0]
        shift = self.times[block * _BLOCK] - origin
        return part[:, :, 1] + shift[:, None, None] * part[:, :, 0]

    def parity_sums(self, first, end, origin):
        """Sums over nodes first..end of those of first's parity and of the
        others: the two end blocks' partial sums and the totals between."""
        b0, r0 = np.divmod(first, _BLOCK)
        b1, r1 = np.divmod(end, _BLOCK)
        total = self.head(b1, r1 + 1, origin) - self.head(b0, r0, origin)
        full = np.full_like(b0, _BLOCK)
        for k in range(int(np.max(b1 - b0, initial=0))):
            inside = (b0 + k < b1)[:, None, None]
            total += np.where(inside, self.head(np.minimum(b0 + k, b1), full,
                                                origin), 0.0)
        rows = np.arange(len(first))
        return total[rows, first % 2], total[rows, 1 - first % 2]


def _simpson_windows(sums: _BlockSums, a, b, origin):
    """``window_quad`` of the flat values behind ``sums``, for one chunk."""
    times, flat = sums.times, sums.flat
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
    same, other = sums.parity_sums(i0, end, origin)
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
        raise CoverageError(f"window [{a[k]:.6g}, {b[k]:.6g}] is outside the "
                            f"sampled span [{lo:.6g}, {hi:.6g}]")
    values = np.asarray(values)
    flat = np.ascontiguousarray(values).reshape(len(values), -1)
    flat = (flat.view(float) if np.iscomplexobj(flat)
            else flat.astype(float, copy=False))
    if origin is not None:
        origin = np.broadcast_to(np.asarray(origin, dtype=float), a.shape)
    sums = _BlockSums(times, flat, weighted=origin is not None)
    out = np.empty((len(a), flat.shape[1]))
    for k in range(0, len(a), _CHUNK_WINDOWS):
        part = slice(k, k + _CHUNK_WINDOWS)
        out[part] = _simpson_windows(sums, a[part], b[part],
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


def _batched_form(matrix: HermitianQuatMatrix, states: np.ndarray) -> np.ndarray:
    chi = matrix.complex_embed()
    emb = qv_embed(states)
    return np.einsum("ni,ij,nj->n", np.conj(emb), chi, emb).real


def lkf_trace(traj: Trajectory, dv: DecisionVars,
              stride: int = 10) -> LyapunovTrace:
    """The functional of ``dv`` at every ``stride``-th node of ``traj``."""
    if stride < 1:
        raise InputError("stride must be at least 1")
    model = traj.model
    if dv.n != model.n:
        raise InputError(f"certificate is for n = {dv.n}, the model has "
                         f"n = {model.n}")
    # the grid reaches back over the lookback window, where x is the start;
    # Simpson panels that straddle t = 0 read these nodes too
    step = traj.step
    back = max(int(np.ceil(model.lookback() / step - _EDGE)), 1)
    grid = np.concatenate([-back * step + step * np.arange(back), traj.times])
    states = np.concatenate([[traj.values[0]] * back, traj.values])
    f_states = (activation((states + traj.rest).reshape(-1, model.n),
                           model.gamma_diag).reshape(states.shape)
                - activation(traj.rest, model.gamma_diag))
    x_forms = {name: _batched_form(getattr(dv, name), states)
               for name in ("p2", "p3", "q1", "q3", "q5", "q6")}
    f_forms = {name: _batched_form(getattr(dv, name), f_states)
               for name in ("q2", "q4")}
    r_forms = {name: _batched_form(getattr(dv, name), traj.derivs)
               for name in ("r1", "r2")}

    t = traj.times[::stride]
    delta = model.delta
    d1b, d2b, db = model.d1_bound, model.d2_bound, model.d_bound
    d1t = model.delay1(t)
    dt = d1t + model.delay2(t)

    ix = window_quad(grid, states, t - delta, t)
    v1 = _batched_form(dv.p1, traj.values[::stride] - model.c_diag * ix)

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
    return LyapunovTrace(times=t, v1=v1, v2=v2, v3=v3, v4=v4)
