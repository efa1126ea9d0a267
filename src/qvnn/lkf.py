"""Lyapunov-Krasovskii functional evaluation along simulated trajectories.

The functional has four parts, evaluated with the certificate matrices:

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
sample grid. Quadrature is composite Simpson on whole grid cells plus
linearly interpolated trapezoid slivers at window edges, which keeps every
window integral O(h^3) accurate without assuming window widths are grid
multiples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import CoverageError, InputError
from .lmi import DecisionVars
from .model import NetworkModel
from .qmatrix import HermitianQuatMatrix, qv_embed
from .simulate import Trajectory, activation

_EDGE = 1e-9


def grid_quad(times: np.ndarray, values: np.ndarray, a: float, b: float):
    """Integrate uniformly sampled values over [a, b] inside the grid span.

    ``values`` may be real or complex with any trailing shape; integration is
    along axis 0. Whole cells use composite Simpson; fractional end cells use
    the trapezoid rule on linearly interpolated endpoint values.
    """
    if b < a:
        raise InputError("integration bounds are reversed")
    step = times[1] - times[0]
    lo, hi = times[0], times[-1]
    if a < lo - _EDGE * max(1.0, abs(lo)) or b > hi + _EDGE * max(1.0, abs(hi)):
        raise CoverageError(f"window [{a:.6g}, {b:.6g}] is outside the sampled "
                            f"span [{lo:.6g}, {hi:.6g}]")
    pa = (a - lo) / step
    pb = (b - lo) / step
    last = len(times) - 1

    def interp(pos: float):
        cell = min(max(int(np.floor(pos)), 0), last - 1)
        frac = pos - cell
        return (1.0 - frac) * values[cell] + frac * values[cell + 1]

    i0 = int(np.ceil(pa - 1e-9))
    i1 = int(np.floor(pb + 1e-9))
    i0 = min(max(i0, 0), last)
    i1 = min(max(i1, 0), last)
    if i1 <= i0:
        return (b - a) * (interp(pa) + interp(pb)) / 2.0
    core = simpson(values[i0:i1 + 1], dx=step, axis=0)
    wa = (i0 - pa) * step
    if wa > _EDGE * step:
        core = core + wa * (interp(pa) + values[i0]) / 2.0
    wb = (pb - i1) * step
    if wb > _EDGE * step:
        core = core + wb * (values[i1] + interp(pb)) / 2.0
    return core


@dataclass
class LkfSample:
    t: float
    v1: float
    v2: float
    v3: float
    v4: float

    @property
    def total(self) -> float:
        return self.v1 + self.v2 + self.v3 + self.v4


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


class LkfEvaluator:
    """Precomputes pointwise quadratic forms over one trajectory's grid."""

    def __init__(self, traj: Trajectory, model: NetworkModel,
                 dv: DecisionVars):
        if model.n != traj.model.n:
            raise InputError("trajectory and model dimensions differ")
        self.traj = traj
        self.model = model
        self.dv = dv
        # the grid reaches back over the lookback window, where x = start;
        # Simpson panels that straddle t = 0 read these nodes too
        step = traj.step
        back = max(int(np.ceil(model.lookback() / step - _EDGE)), 1)
        self.times = np.concatenate([-back * step + step * np.arange(back),
                                     traj.times])
        states = np.concatenate([[traj.start] * back, traj.values])
        if model.equilibrium is None:
            f_states = activation(states.reshape(-1, model.n),
                                  model.gamma_diag).reshape(states.shape)
        else:
            base = activation(model.equilibrium, model.gamma_diag)
            f_states = (activation((states + model.equilibrium[None])
                                   .reshape(-1, model.n), model.gamma_diag)
                        .reshape(states.shape) - base[None])
        self.states = states
        self.x_forms = {name: _batched_form(getattr(dv, name), states)
                        for name in ("p2", "p3", "q1", "q3", "q5", "q6")}
        self.f_forms = {name: _batched_form(getattr(dv, name), f_states)
                        for name in ("q2", "q4")}
        self.r_forms = {name: _batched_form(getattr(dv, name), traj.derivs)
                        for name in ("r1", "r2")}
        self.p1_chi = dv.p1.complex_embed()

    def _deriv_quad(self, name: str, a: float, b: float, weight=None):
        """Integral of a derivative form over [a, b]; xdot is 0 before t=0."""
        a = max(a, 0.0)
        if b <= a:
            return 0.0
        times = self.traj.times
        vals = self.r_forms[name]
        data = vals if weight is None else vals * weight(times)
        return float(grid_quad(times, data, a, b))

    def __call__(self, t: float) -> LkfSample:
        model = self.model
        if t - model.lookback() < self.times[0] - _EDGE:
            raise CoverageError(f"evaluating at t={t:.6g} needs data back to "
                                f"{t - model.lookback():.6g}, before the "
                                f"lookback window")
        if t > self.traj.horizon + _EDGE:
            raise CoverageError(f"t={t:.6g} is past the simulated horizon")
        delta = model.delta
        d1b, db = model.d1_bound, model.d_bound
        d1t = model.delay1(t)
        dt = d1t + model.delay2(t)

        x_t = self.traj.state(t)
        ix = grid_quad(self.times, self.states, t - delta, t)
        v_vec = x_t - model.c_diag[None, :] * ix
        emb = qv_embed(v_vec)
        v1 = float((np.conj(emb) @ self.p1_chi @ emb).real)

        v2 = float(grid_quad(self.times, self.x_forms["p2"], t - delta, t))
        w_p3 = self.x_forms["p3"] * np.clip(self.times - (t - delta), 0.0, None)
        v2 += delta * float(grid_quad(self.times, w_p3, t - delta, t))

        v3 = float(grid_quad(self.times, self.x_forms["q1"], t - d1t, t))
        v3 += float(grid_quad(self.times, self.f_forms["q2"], t - d1t, t))
        v3 += float(grid_quad(self.times, self.x_forms["q3"], t - dt, t))
        v3 += float(grid_quad(self.times, self.f_forms["q4"], t - dt, t))
        v3 += float(grid_quad(self.times, self.x_forms["q5"], t - d1b, t))
        v3 += float(grid_quad(self.times, self.x_forms["q6"], t - db, t))

        v4 = d1b * self._deriv_quad("r1", t - d1b, t,
                                    weight=lambda s: s - (t - d1b))
        d2b = model.d2_bound
        if d2b > 0:
            v4 += d2b * self._deriv_quad("r2", t - db, t - d1b,
                                         weight=lambda s: s - (t - db))
            v4 += d2b * d2b * self._deriv_quad("r2", t - d1b, t)
        return LkfSample(t=t, v1=v1, v2=v2, v3=v3, v4=v4)


def lkf_trace(traj: Trajectory, model: NetworkModel, dv: DecisionVars,
              stride: int = 10) -> LyapunovTrace:
    """Sample the functional along the trajectory every ``stride`` nodes."""
    if stride < 1:
        raise InputError("stride must be at least 1")
    ev = LkfEvaluator(traj, model, dv)
    times = traj.times[::stride]
    samples = [ev(t) for t in times]
    return LyapunovTrace(
        times=times,
        v1=np.array([s.v1 for s in samples]),
        v2=np.array([s.v2 for s in samples]),
        v3=np.array([s.v3 for s in samples]),
        v4=np.array([s.v4 for s in samples]))
