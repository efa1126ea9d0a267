"""Lyapunov functional quadrature and evaluation along trajectories."""

import dataclasses

import numpy as np
import pytest

from oracles import (
    grid_quad as scalar_quad,
    quadform,
    random_decision_vars,
    random_hermitian_pd,
    serial_lkf_trace,
)
from qvnn.cli import _start_for_seed
from qvnn.errors import InputError
from qvnn.lkf import LyapunovTrace, lkf_trace, window_quad
from qvnn.lmi import HERMITIAN_NAMES
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import QuatMatrix
from qvnn.simulate import Trajectory, activation, integrate


# ---- windowed quadrature ----------------------------------------------------------


def grid_quad(times, values, a, b):
    """The integral over one window [a, b]."""
    return window_quad(times, values, [a], [b])[0]


def test_grid_quad_is_exact_on_cubics_over_aligned_windows():
    times = np.linspace(0.0, 2.0, 21)
    values = times**3 - times + 2.0
    # antiderivative t^4/4 - t^2/2 + 2t
    exact = lambda t: t**4 / 4.0 - t**2 / 2.0 + 2.0 * t
    for a, b in [(0.0, 2.0), (0.3, 1.7), (0.5, 0.5)]:
        assert grid_quad(times, values, a, b) == pytest.approx(
            exact(b) - exact(a), abs=1e-12)


def test_grid_quad_is_exact_on_linear_fractional_windows():
    times = np.linspace(-1.0, 1.0, 9)
    values = 3.0 * times + 1.0
    exact = lambda t: 1.5 * t**2 + t
    for a, b in [(-0.93, 0.81), (-0.2, -0.07), (0.33, 0.34)]:
        assert grid_quad(times, values, a, b) == pytest.approx(
            exact(b) - exact(a), abs=1e-12)


def test_grid_quad_converges_on_smooth_fractional_windows():
    a, b = 0.123, 1.877
    exact = np.cos(a) - np.cos(b)
    errs = []
    for m in (20, 40, 80):
        times = np.linspace(0.0, 2.0, m + 1)
        errs.append(abs(grid_quad(times, np.sin(times), a, b) - exact))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 5.0
    assert errs[1] / errs[2] > 5.0


def test_grid_quad_handles_trailing_axes():
    times = np.linspace(0.0, 1.0, 11)
    values = np.stack([times, times**2], axis=1).reshape(11, 2, 1)
    out = grid_quad(times, values, 0.0, 1.0)
    assert out.shape == (2, 1)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert out[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_grid_quad_rejects_bad_windows():
    times = np.linspace(0.0, 1.0, 11)
    values = np.ones_like(times)
    with pytest.raises(InputError):
        grid_quad(times, values, 0.8, 0.2)
    with pytest.raises(InputError):
        grid_quad(times, values, -0.5, 0.5)
    with pytest.raises(InputError):
        grid_quad(times, values, 0.5, 1.5)
    # one bad window among good ones refuses the batch
    with pytest.raises(InputError):
        window_quad(times, values, [0.1, 0.8], [0.3, 0.2])
    with pytest.raises(InputError):
        window_quad(times, values, [0.1, 0.5], [0.3, 1.5])


# Windows on a grid of 300 nodes from -0.5, step 0.01.
BRANCH_WINDOWS = [
    (0.1234, 0.1284),   # thin: both ends inside one cell
    (-0.4937, -0.4912),  # thin, in the first cell
    (0.2, 0.2),         # zero width, on a node
    (2.485, 2.489),     # thin, in the last cell
    (-0.5, -0.49),      # two nodes (trapezoid), at the grid start
    (0.3, 0.31),        # two nodes
    (0.3, 0.32),        # three nodes
    (0.3, 0.33),        # four nodes: the even-count correction
    (0.3, 0.35),        # six nodes
    (0.3051, 0.3449),   # four nodes and slivers at both ends
    (0.3051, 0.3349),   # three nodes and slivers at both ends
    (0.13, 1.42),       # 130 nodes from an odd node
    (0.14, 1.41),       # 128 nodes from an even node
    (-0.4937, 2.4841),  # nearly the whole span, slivers at both ends
    (-0.5, 2.49),       # the whole span, an even node count
    (-0.5, 2.48),       # the whole span less one node, odd
]


def branch_grid(nodes=300):
    times = 0.01 * np.arange(nodes) - 0.5
    wave = 1.5 + np.sin(3.0 * times)
    values = (np.stack([wave, 2.0 - np.cos(times)], axis=1)[:, :, None]
              * np.array([1.0 + 0.5j, 0.3 + 2.0j])[None, None, :])
    return times, values


def test_window_sums_match_the_scalar_rule_on_every_branch():
    times, values = branch_grid()
    a, b = np.array(BRANCH_WINDOWS).T
    batched = window_quad(times, values, a, b)
    assert batched.shape == (len(a),) + values.shape[1:]
    for k, (lo, hi) in enumerate(BRANCH_WINDOWS):
        np.testing.assert_allclose(batched[k], scalar_quad(times, values, lo, hi),
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nodes", [300, 40, 200_001])
def test_weighted_window_sums_match_the_scalar_rule(nodes):
    # the integrand (s - a) f(s) of a collapsed double integral, also on a
    # grid shorter than the windows' span, and with the windows on the last
    # 300 nodes of a long grid, far from its start
    times, values = branch_grid(nodes)
    shift = 0.01 * max(nodes - 300, 0)
    windows = [(lo + shift, hi + shift) for lo, hi in BRANCH_WINDOWS
               if hi + shift <= times[-1]]
    a, b = np.array(windows).T
    batched = window_quad(times, values, a, b, origin=a)
    for k, (lo, hi) in enumerate(windows):
        weight = times - lo
        expected = scalar_quad(times, values * weight[:, None, None], lo, hi)
        np.testing.assert_allclose(batched[k], expected, rtol=1e-12,
                                   atol=1e-15)


# ---- evaluation on constructed trajectories ----------------------------------------


def lkf_model():
    return NetworkModel(
        n=1, c_diag=np.array([2.0]),
        a_mat=QuatMatrix.from_real(np.array([[0.5]])),
        b_mat=QuatMatrix.from_real(np.array([[0.5]])),
        delta=0.5, d1_bound=0.25, d2_bound=0.25, mu1=0.0, mu2=0.0,
        gamma_diag=np.array([1.5]),
        delay1=DelaySpec(offset=0.25),
        delay2=DelaySpec(offset=0.25),
    )


def frozen_trajectory(model, pair, step=0.05, horizon=2.0):
    """A hand-built trajectory that sits at ``pair`` for all time."""
    n_sol = int(round(horizon / step)) + 1
    values = np.array([pair] * n_sol, dtype=complex)
    return Trajectory(model=model, step=step, values=values,
                      derivs=np.zeros_like(values),
                      rest=np.zeros((2, model.n), dtype=complex))


def test_functional_vanishes_on_the_zero_trajectory():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(3), 1)
    traj = frozen_trajectory(model, np.zeros((2, 1)))
    trace = lkf_trace(traj, dv, stride=1)
    assert np.all(trace.v1 == 0.0)
    assert np.all(trace.v2 == 0.0)
    assert np.all(trace.v3 == 0.0)
    assert np.all(trace.v4 == 0.0)
    assert np.all(trace.total == 0.0)


def test_constant_state_matches_closed_forms():
    # every window integral of a constant is width * the pointwise form; at
    # step 0.04 delta / step = 12.5, so the P3 window starts inside a cell
    model = lkf_model()
    rng = np.random.default_rng(11)
    dv = random_decision_vars(rng, 1)
    pair = np.array([[0.7 + 0.3j], [-0.4 + 0.6j]])
    t = 1.0
    delta = model.delta
    shifted = pair - delta * model.c_diag[None, :] * pair
    v1 = quadform(dv.p1, shifted)
    v2 = delta * quadform(dv.p2, pair) + delta * (delta**2 / 2.0) * quadform(dv.p3, pair)
    f_pair = activation(pair, model.gamma_diag)
    d1t = model.delay1(t)
    dt = d1t + model.delay2(t)
    v3 = (d1t * (quadform(dv.q1, pair) + quadform(dv.q2, f_pair))
          + dt * (quadform(dv.q3, pair) + quadform(dv.q4, f_pair))
          + model.d1_bound * quadform(dv.q5, pair)
          + model.d_bound * quadform(dv.q6, pair))

    for step in (0.05, 0.04):
        traj = frozen_trajectory(model, pair, step=step)
        trace = lkf_trace(traj, dv, stride=round(t / step))
        assert trace.times[1] == pytest.approx(t)
        sample = LyapunovTrace(*(getattr(trace, name)[1]
                                 for name in ("times", "v1", "v2", "v3", "v4")))
        assert sample.v1 == pytest.approx(v1, rel=1e-10, abs=1e-12)
        assert sample.v2 == pytest.approx(v2, rel=1e-10, abs=1e-12)
        assert sample.v3 == pytest.approx(v3, rel=1e-10, abs=1e-12)
        assert sample.v4 == pytest.approx(0.0, abs=1e-12)
        assert sample.total == pytest.approx(v1 + v2 + v3, rel=1e-10)


def test_coverage_errors_flag_unusable_times():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(5), 1)
    traj = frozen_trajectory(model, np.array([[0.1 + 0j], [0j]]))
    forms = np.ones(len(traj.times))
    with pytest.raises(InputError):
        # needs data before the stored grid
        window_quad(traj.times, forms, [0.5, -0.1], [1.0, 0.4])
    with pytest.raises(InputError):
        window_quad(traj.times, forms, [1.0], [traj.times[-1] + 0.5])
    # the trace pads the grid back over the lookback window, so its first
    # sample, at t = 0, reads only covered data
    trace = lkf_trace(traj, dv, stride=1)
    assert trace.times[0] == 0.0
    assert np.all(np.isfinite(trace.total))


def test_trace_helpers_and_validation():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(7), 1)
    traj = frozen_trajectory(model, np.array([[0.2 + 0.1j], [0j]]))
    with pytest.raises(InputError):
        lkf_trace(traj, dv, stride=0)
    trace = lkf_trace(traj, dv, stride=8)
    assert trace.times[0] == pytest.approx(0.0)
    np.testing.assert_allclose(trace.total, trace.v1 + trace.v2 + trace.v3 + trace.v4)
    # frozen state: the functional is constant along the run
    assert trace.max_increase() <= 1e-12
    assert np.ptp(trace.total) <= 1e-10 * max(1.0, abs(trace.total[0]))


def test_max_increase_reports_the_worst_step():
    trace = LyapunovTrace(
        times=np.arange(4.0),
        v1=np.array([4.0, 3.0, 2.5, 2.5]),
        v2=np.zeros(4), v3=np.zeros(4),
        v4=np.array([0.0, 0.0, 0.8, 0.0]))
    assert trace.max_increase() == pytest.approx(0.3)
    empty = LyapunovTrace(times=np.array([0.0]), v1=np.array([1.0]),
                          v2=np.zeros(1), v3=np.zeros(1), v4=np.zeros(1))
    assert empty.max_increase() == 0.0


def test_dimension_mismatch_is_rejected():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(9), 2)
    traj = frozen_trajectory(model, np.array([[0.1 + 0j], [0j]]))
    with pytest.raises(InputError, match="certificate is for n = 2"):
        lkf_trace(traj, dv)


# ---- certificate functional along a stable run --------------------------------------


def test_certified_functional_decays_along_a_stable_run(stable_model, stable_solution):
    _, dv = stable_solution
    (traj,) = integrate(stable_model,
                        [np.array([[0.6 - 0.3j, -0.4 + 0.2j],
                                   [0.5 + 0.5j, 0.3 - 0.6j]])],
                        horizon=6.0, step=2e-3)
    trace = lkf_trace(traj, dv, stride=50)
    v0 = trace.total[0]
    assert v0 > 0.0
    assert np.all(trace.total > 0.0)
    assert trace.max_increase() <= 1e-6 * v0
    assert trace.total[-1] < 0.05 * v0


def test_functional_starts_with_no_derivative_energy(stable_model,
                                                     stable_solution):
    # the initial data are constant, so no window of V4 holds energy at t = 0
    _, dv = stable_solution
    starts = [_start_for_seed(stable_model, seed)
              for seed in range(10)]
    for traj in integrate(stable_model, starts, horizon=0.2, step=1e-3):
        trace = lkf_trace(traj, dv, stride=50)
        assert trace.v4[0] == 0.0
        assert np.all(trace.v4[1:] > 0.0)


# ---- the batched trace against the scalar oracle ------------------------------------


def assert_parts_match(trace, reference):
    """Every part at every sample within 1e-12 relative of the oracle."""
    np.testing.assert_array_equal(trace.times, reference.times)
    for part in ("v1", "v2", "v3", "v4"):
        got, want = getattr(trace, part), getattr(reference, part)
        worst = np.max(np.abs(got - want) - 1e-12 * np.abs(want))
        assert worst <= 0.0, f"{part} differs from the oracle by {worst:.3e}"


@pytest.mark.parametrize("horizon, step, strides",
                         [(1.5, 1e-3, (1, 20)), (6.0, 2e-3, (1,))])
def test_batched_trace_matches_the_scalar_oracle(stable_model, stable_solution,
                                                 horizon, step, strides):
    _, dv = stable_solution
    starts = [_start_for_seed(stable_model, seed)
              for seed in range(10)]
    for traj in integrate(stable_model, starts, horizon, step):
        for stride in strides:
            assert_parts_match(lkf_trace(traj, dv, stride),
                               serial_lkf_trace(traj, dv, stride))


def pd_decision_vars(rng, n):
    """Random variables whose Hermitian matrices are positive definite, so
    every window integral of a form is positive."""
    dv = random_decision_vars(rng, n)
    return dataclasses.replace(dv, **{name: random_hermitian_pd(rng, n)
                                      for name in HERMITIAN_NAMES})


@pytest.mark.parametrize("d2", [0.0, 0.0567])
def test_batched_trace_matches_the_oracle_on_off_grid_delays(d2):
    # no delay is a grid multiple, so windows end in slivers and the R2
    # window [t - d, t - d1] ends inside a cell; r-windows are clipped at
    # t = 0 until t = d; d2 = 0 drops the R2 terms
    rng = np.random.default_rng(17)
    model = NetworkModel(
        n=2, c_diag=np.array([2.5, 1.5]),
        a_mat=QuatMatrix.from_real(np.array([[0.3, -0.2], [0.1, 0.4]])),
        b_mat=QuatMatrix.from_real(np.array([[-0.2, 0.1], [0.3, 0.2]])),
        delta=0.0123, d1_bound=0.2345, d2_bound=d2, mu1=0.6, mu2=0.0,
        gamma_diag=np.array([0.8, 1.2]),
        delay1=DelaySpec(amplitude=0.15, offset=0.0845, omega=4.0),
        delay2=DelaySpec(offset=d2))
    dv = pd_decision_vars(rng, 2)
    (traj,) = integrate(model, [_start_for_seed(model, 4)],
                        horizon=0.6, step=1e-3)
    assert_parts_match(lkf_trace(traj, dv, stride=1),
                       serial_lkf_trace(traj, dv, stride=1))


def test_batched_trace_matches_the_oracle_on_a_driven_model(stable_model,
                                                            stable_solution):
    _, dv = stable_solution
    drive = np.array([[0.4 - 0.2j, 0.1 + 0.3j], [-0.3 + 0.1j, 0.2 - 0.4j]])
    model = dataclasses.replace(stable_model, external_input=drive)
    starts = [_start_for_seed(model, seed) for seed in (0, 1)]
    for traj in integrate(model, starts, horizon=1.0, step=1e-3):
        assert np.any(traj.rest != 0.0)
        assert_parts_match(lkf_trace(traj, dv, stride=1),
                           serial_lkf_trace(traj, dv, stride=1))
