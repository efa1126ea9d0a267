"""Lyapunov functional quadrature and evaluation along trajectories."""

import numpy as np
import pytest

from oracles import evaluate_lkf, quadform, random_decision_vars
from qvnn.cli import _start_for_seed
from qvnn.errors import CoverageError, InputError
from qvnn.lkf import LkfEvaluator, LyapunovTrace, grid_quad, lkf_trace
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import QuatMatrix
from qvnn.simulate import Trajectory, activation, integrate


# ---- windowed quadrature ----------------------------------------------------------


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
    with pytest.raises(CoverageError):
        grid_quad(times, values, -0.5, 0.5)
    with pytest.raises(CoverageError):
        grid_quad(times, values, 0.5, 1.5)


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
    return Trajectory(model=model, step=step, start=values[0], values=values,
                      derivs=np.zeros_like(values))


def test_functional_vanishes_on_the_zero_trajectory():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(3), 1)
    traj = frozen_trajectory(model, np.zeros((2, 1)))
    sample = evaluate_lkf(traj, model, dv, 1.0)
    assert sample.v1 == 0.0
    assert sample.v2 == 0.0
    assert sample.v3 == 0.0
    assert sample.v4 == 0.0
    assert sample.total == 0.0


def test_constant_state_matches_closed_forms():
    # every window integral of a constant is width * the pointwise form
    model = lkf_model()
    rng = np.random.default_rng(11)
    dv = random_decision_vars(rng, 1)
    pair = np.array([[0.7 + 0.3j], [-0.4 + 0.6j]])
    traj = frozen_trajectory(model, pair)
    t = 1.0
    sample = evaluate_lkf(traj, model, dv, t)

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

    assert sample.v1 == pytest.approx(v1, rel=1e-10, abs=1e-12)
    assert sample.v2 == pytest.approx(v2, rel=1e-10, abs=1e-12)
    assert sample.v3 == pytest.approx(v3, rel=1e-10, abs=1e-12)
    assert sample.v4 == pytest.approx(0.0, abs=1e-12)
    assert sample.total == pytest.approx(v1 + v2 + v3, rel=1e-10)


def test_coverage_errors_flag_unusable_times():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(5), 1)
    traj = frozen_trajectory(model, np.array([[0.1 + 0j], [0j]]))
    ev = LkfEvaluator(traj, model, dv)
    with pytest.raises(CoverageError):
        ev(-0.1)  # needs data before the stored history
    with pytest.raises(CoverageError):
        ev(traj.horizon + 0.5)
    sample = ev(0.0)
    assert np.isfinite(sample.total)


def test_trace_helpers_and_validation():
    model = lkf_model()
    dv = random_decision_vars(np.random.default_rng(7), 1)
    traj = frozen_trajectory(model, np.array([[0.2 + 0.1j], [0j]]))
    with pytest.raises(InputError):
        lkf_trace(traj, model, dv, stride=0)
    trace = lkf_trace(traj, model, dv, stride=8)
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
    with pytest.raises((InputError, AttributeError, ValueError)):
        LkfEvaluator(traj, model, dv)(1.0)


# ---- certificate functional along a stable run --------------------------------------


def test_certified_functional_decays_along_a_stable_run(stable_model, stable_solution):
    _, dv = stable_solution
    (traj,) = integrate(stable_model,
                        [np.array([[0.6 - 0.3j, -0.4 + 0.2j],
                                   [0.5 + 0.5j, 0.3 - 0.6j]])],
                        horizon=6.0, step=2e-3)
    trace = lkf_trace(traj, stable_model, dv, stride=50)
    v0 = trace.total[0]
    assert v0 > 0.0
    assert np.all(trace.total > 0.0)
    assert trace.max_increase() <= 1e-6 * v0
    assert trace.total[-1] < 0.05 * v0


def test_functional_starts_with_no_derivative_energy(stable_model,
                                                     stable_solution):
    # the initial data are constant, so no window of V4 holds energy at t = 0
    _, dv = stable_solution
    starts = [_start_for_seed(stable_model, seed, zero=False)
              for seed in range(10)]
    for traj in integrate(stable_model, starts, horizon=0.2, step=1e-3):
        trace = lkf_trace(traj, stable_model, dv, stride=50)
        assert trace.v4[0] == 0.0
        assert np.all(trace.v4[1:] > 0.0)
