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

Models carrying a nonzero equilibrium (produced by ``equilibrium_shift``)
are integrated in deviation coordinates: the activation becomes
f(v) = act(v + y_eq) - act(y_eq), which vanishes at zero exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EquilibriumError, InputError
from .model import NetworkModel
from .qmatrix import QuatMatrix, qv_modulus

DEFAULT_DIVERGENCE_LIMIT = 1e6
_EDGE_SLACK = 1e-9


def activation(values: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """gain * tanh on each of the four real components, per neuron column."""
    pair = np.asarray(values, dtype=complex)
    out = np.tanh(pair.real) + 1j * np.tanh(pair.imag)
    return out * np.asarray(gains, dtype=float)[None, :]


class HistoryBuffer:
    """Uniform-grid cubic Hermite interpolant over one time interval."""

    __slots__ = ("t0", "step", "values", "derivs")

    def __init__(self, t0: float, step: float, values: np.ndarray,
                 derivs: np.ndarray):
        self.t0 = float(t0)
        self.step = float(step)
        self.values = values
        self.derivs = derivs

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def __call__(self, u: float) -> np.ndarray:
        offset = (u - self.t0) / self.step
        last = len(self.values) - 1
        if offset < -_EDGE_SLACK or offset > last + _EDGE_SLACK:
            raise InputError(f"lookup at t={u:.6g} is outside the stored "
                             f"interval [{self.t0:.6g}, {self.t_end:.6g}]")
        cell = min(max(int(math.floor(offset)), 0), last - 1) if last else 0
        if last == 0:
            return self.values[0]
        tau = offset - cell
        h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
        h10 = tau * (1.0 - tau) ** 2
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return (h00 * self.values[cell] + h01 * self.values[cell + 1]
                + self.step * (h10 * self.derivs[cell]
                               + h11 * self.derivs[cell + 1]))

    def deriv(self, u: float) -> np.ndarray:
        offset = (u - self.t0) / self.step
        last = len(self.values) - 1
        if offset < -_EDGE_SLACK or offset > last + _EDGE_SLACK:
            raise InputError(f"derivative lookup at t={u:.6g} is outside "
                             f"[{self.t0:.6g}, {self.t_end:.6g}]")
        if last == 0:
            return self.derivs[0]
        cell = min(max(int(math.floor(offset)), 0), last - 1)
        tau = offset - cell
        g00 = 6.0 * tau * (tau - 1.0)
        g10 = (3.0 * tau - 1.0) * (tau - 1.0)
        g01 = -g00
        g11 = tau * (3.0 * tau - 2.0)
        return ((g00 * self.values[cell] + g01 * self.values[cell + 1]) / self.step
                + g10 * self.derivs[cell] + g11 * self.derivs[cell + 1])


def _finite_difference_derivs(values: np.ndarray, step: float) -> np.ndarray:
    """Fourth-order derivative estimates on a uniform grid (second-order
    fallback for grids shorter than five nodes). Keeps Hermite interpolation
    of smooth sampled histories at full accuracy."""
    n = len(values)
    derivs = np.zeros_like(values)
    if n == 1:
        return derivs
    if n == 2:
        derivs[0] = derivs[1] = (values[1] - values[0]) / step
        return derivs
    if n < 5:
        derivs[1:-1] = (values[2:] - values[:-2]) / (2.0 * step)
        derivs[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * step)
        derivs[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * step)
        return derivs
    v = values
    derivs[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * step)
    derivs[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2]
                 + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * step)
    derivs[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2]
                 - 6.0 * v[3] + v[4]) / (12.0 * step)
    derivs[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3]
                  + 6.0 * v[-4] - v[-5]) / (12.0 * step)
    derivs[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3]
                  - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * step)
    return derivs


@dataclass
class Trajectory:
    """Committed solution: a history segment glued to the integrated one."""

    model: NetworkModel
    step: float
    history: HistoryBuffer
    solution: HistoryBuffer

    @property
    def horizon(self) -> float:
        return self.solution.t_end

    @property
    def times(self) -> np.ndarray:
        return self.solution.t0 + self.step * np.arange(len(self.solution.values))

    @property
    def values(self) -> np.ndarray:
        return self.solution.values

    def state(self, u: float) -> np.ndarray:
        return self.history(u) if u < self.solution.t0 else self.solution(u)

    def state_deriv(self, u: float) -> np.ndarray:
        return self.history.deriv(u) if u < self.solution.t0 else self.solution.deriv(u)

    def modulus_series(self) -> np.ndarray:
        """Max quaternion modulus across neurons at each committed node."""
        vals = self.solution.values
        return np.max(np.sqrt(np.abs(vals[:, 0, :]) ** 2
                              + np.abs(vals[:, 1, :]) ** 2), axis=1)


def constant_history(pair: np.ndarray):
    arr = np.array(pair, dtype=complex)

    def fn(_t: float) -> np.ndarray:
        return arr
    return fn


def _rhs_factory(model: NetworkModel):
    c = model.c_diag[None, :]
    a_mat = model.a_mat
    b_mat = model.b_mat
    gains = model.gamma_diag
    u_ext = (np.zeros((2, model.n), dtype=complex)
             if model.external_input is None else model.external_input)
    shift = model.equilibrium
    if shift is None:
        act = lambda pair: activation(pair, gains)
    else:
        base = activation(shift, gains)

        def act(pair):
            return activation(pair + shift, gains) - base

    def rhs(t: float, state: np.ndarray, lookup) -> np.ndarray:
        x_leak = lookup(t - model.delta)
        x_d = lookup(t - model.delay1(t) - model.delay2(t))
        return (-c * x_leak
                + mat_vec_pair(a_mat, act(state))
                + mat_vec_pair(b_mat, act(x_d))
                + u_ext)
    return rhs


def mat_vec_pair(mat: QuatMatrix, pair: np.ndarray) -> np.ndarray:
    v1, v2 = pair[0], pair[1]
    return np.stack([mat.a1 @ v1 - mat.a2 @ np.conj(v2),
                     mat.a1 @ v2 + mat.a2 @ np.conj(v1)])


def integrate(model: NetworkModel, history, horizon: float, step: float,
              divergence_limit: float = DEFAULT_DIVERGENCE_LIMIT) -> Trajectory:
    """Integrate the delayed dynamics from a history function on [-L, 0].

    ``history`` maps a time in [-lookback, 0] to a (2, n) state pair. Raises
    DivergenceError (carrying the offending time) if the state norm passes
    ``divergence_limit`` or stops being finite.
    """
    if step <= 0 or horizon <= 0:
        raise InputError("horizon and step must be positive")
    lookback = model.lookback()
    hist_steps = max(int(math.ceil(lookback / step - _EDGE_SLACK)), 1)
    hist_t0 = -hist_steps * step
    hist_times = hist_t0 + step * np.arange(hist_steps + 1)
    hist_values = np.array([history(t) for t in hist_times], dtype=complex)
    if hist_values.shape[1:] != (2, model.n):
        raise InputError("history must produce (2, n) state pairs")
    hist_seg = HistoryBuffer(hist_t0, step, hist_values,
                       _finite_difference_derivs(hist_values, step))

    steps = int(math.ceil(horizon / step - _EDGE_SLACK))
    values = np.zeros((steps + 1, 2, model.n), dtype=complex)
    derivs = np.zeros_like(values)
    values[0] = hist_values[-1]
    rhs = _rhs_factory(model)

    committed = 0  # index of the last committed node

    def make_lookup(stage_t: float, stage_y: np.ndarray):
        t_end = committed * step

        def lookup(u: float) -> np.ndarray:
            if u < 0.0:
                return hist_seg(u)
            if u <= t_end + _EDGE_SLACK:
                return HistoryBuffer(0.0, step, values[:committed + 1],
                               derivs[:committed + 1])(u)
            if abs(u - stage_t) <= _EDGE_SLACK:
                return stage_y
            # argument inside the uncommitted step: linear blend
            w = (u - t_end) / (stage_t - t_end)
            return (1.0 - w) * values[committed] + w * stage_y
        return lookup

    def eval_rhs(stage_t: float, stage_y: np.ndarray) -> np.ndarray:
        return rhs(stage_t, stage_y, make_lookup(stage_t, stage_y))

    derivs[0] = eval_rhs(0.0, values[0])
    for k in range(steps):
        t = k * step
        y = values[k]
        k1 = derivs[k]
        k2 = eval_rhs(t + step / 2.0, y + (step / 2.0) * k1)
        k3 = eval_rhs(t + step / 2.0, y + (step / 2.0) * k2)
        k4 = eval_rhs(t + step, y + step * k3)
        y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (k + 1) * step
        if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > divergence_limit:
            raise DivergenceError(
                f"state norm exceeded {divergence_limit:g} at t={t_next:.6g}",
                time=t_next)
        values[k + 1] = y_next
        committed = k + 1
        derivs[k + 1] = eval_rhs(t_next, y_next)

    sol_seg = HistoryBuffer(0.0, step, values, derivs)
    return Trajectory(model=model, step=step, history=hist_seg, solution=sol_seg)


@dataclass
class ConvergenceMetrics:
    final_sup: float            # max modulus over the trailing window
    peak: float                 # max modulus over the whole run, t >= 0
    time_to_threshold: float | None
    threshold: float
    envelope_bounded: bool      # no new modulus records after the run starts


def convergence_metrics(traj: Trajectory, threshold: float = 1e-3,
                        tail_fraction: float = 0.1,
                        equilibrium: np.ndarray | None = None) -> ConvergenceMetrics:
    """Deviation-from-equilibrium statistics on the committed grid."""
    vals = traj.solution.values
    if equilibrium is not None:
        vals = vals - np.asarray(equilibrium, dtype=complex)[None, :, :]
    series = np.max(np.sqrt(np.abs(vals[:, 0, :]) ** 2
                            + np.abs(vals[:, 1, :]) ** 2), axis=1)
    times = traj.times
    tail = max(int(len(series) * (1.0 - tail_fraction)), 0)
    final_sup = float(np.max(series[tail:]))
    peak = float(np.max(series))
    below = series < threshold
    time_to = None
    if below[-1]:
        idx = len(below) - 1
        while idx > 0 and below[idx - 1]:
            idx -= 1
        time_to = float(times[idx])
    hist_peak = float(np.max(np.sqrt(
        np.abs(traj.history.values[:, 0, :]) ** 2
        + np.abs(traj.history.values[:, 1, :]) ** 2)))
    envelope_bounded = peak <= hist_peak * (1.0 + 1e-9) + 1e-12
    return ConvergenceMetrics(final_sup=final_sup, peak=peak,
                              time_to_threshold=time_to, threshold=threshold,
                              envelope_bounded=envelope_bounded)


def find_equilibrium(model: NetworkModel, damping: float = 0.5,
                     tol: float = 1e-12, max_iters: int = 10000) -> np.ndarray:
    """Fixed point of C x = (A + B) f(x) + u by damped iteration."""
    u_ext = (np.zeros((2, model.n), dtype=complex)
             if model.external_input is None else model.external_input)
    c_inv = 1.0 / model.c_diag[None, :]
    x = np.zeros((2, model.n), dtype=complex)
    for _ in range(max_iters):
        fx = activation(x, model.gamma_diag)
        target = c_inv * (mat_vec_pair(model.a_mat, fx)
                          + mat_vec_pair(model.b_mat, fx) + u_ext)
        x_new = (1.0 - damping) * x + damping * target
        if np.max(np.abs(x_new - x)) <= tol * max(1.0, np.max(np.abs(x_new))):
            return x_new
        x = x_new
    raise EquilibriumError("equilibrium iteration did not converge; "
                           "try a smaller damping factor")


def equilibrium_shift(model: NetworkModel, equilibrium: np.ndarray | None = None
                      ) -> NetworkModel:
    """Recast the driven network in deviation coordinates about its rest point.

    The returned model has no external input; its activation is interpreted
    by ``integrate`` as f(v) = act(v + y_eq) - act(y_eq), which is zero at the
    origin exactly and keeps the same per-neuron Lipschitz gains.
    """
    y_eq = (find_equilibrium(model) if equilibrium is None
            else np.array(equilibrium, dtype=complex))
    if y_eq.shape != (2, model.n):
        raise InputError("equilibrium must be a (2, n) state pair")
    return dataclasses.replace(model, external_input=None, equilibrium=y_eq)
