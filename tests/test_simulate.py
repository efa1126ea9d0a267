"""Delay-differential integration, initial states, and convergence metrics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import order_fixture_model
from oracles import DivergenceError, quat_zeros, qv_modulus, serial_integrate
from qvnn.errors import InputError
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import QuatMatrix, mat_vec, qv_from_components
from qvnn.simulate import (
    _CHUNK_STEPS,
    _EDGE_SLACK,
    _WAVE_FLOATS,
    Trajectory,
    _hermite_weights,
    _lookup_stencils,
    _modulus_series,
    _step_tables,
    _waves,
    activation,
    convergence_metrics,
    find_equilibrium,
    integrate,
)


def scalar_model(**overrides):
    base = dict(
        n=1, c_diag=np.array([2.0]),
        a_mat=QuatMatrix.from_real(np.array([[0.5]])),
        b_mat=QuatMatrix.from_real(np.array([[0.5]])),
        delta=0.25, d1_bound=0.25, d2_bound=0.125, mu1=0.0, mu2=0.0,
        gamma_diag=np.array([1.0]),
        delay1=DelaySpec(offset=0.25),
        delay2=DelaySpec(offset=0.125),
    )
    base.update(overrides)
    return NetworkModel(**base)


def driven_scalar_model():
    return scalar_model(external_input=np.array([[0.8 + 0.1j], [0.2 + 0j]]))


# ---- activation ----------------------------------------------------------------


def test_activation_vanishes_at_origin_and_saturates():
    gains = np.array([0.2, 2.0])
    zero = activation(np.zeros((2, 2), dtype=complex), gains)
    assert np.all(zero == 0.0)
    huge = activation(np.full((2, 2), 50.0 + 50.0j), gains)
    np.testing.assert_allclose(huge[:, 0], 0.2 + 0.2j, atol=1e-12)
    np.testing.assert_allclose(huge[:, 1], 2.0 + 2.0j, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_activation_is_gain_lipschitz(seed):
    rng = np.random.default_rng(seed)
    gains = rng.uniform(0.1, 3.0, size=3)
    u = rng.normal(size=(2, 3)) * 3 + 1j * rng.normal(size=(2, 3)) * 3
    v = rng.normal(size=(2, 3)) * 3 + 1j * rng.normal(size=(2, 3)) * 3
    lhs = qv_modulus(activation(u, gains) - activation(v, gains))
    rhs = gains * qv_modulus(u - v)
    assert np.all(lhs <= rhs + 1e-12)


def test_activation_lipschitz_bound_is_tight_near_zero():
    gains = np.array([1.7])
    eps = 1e-6
    u = np.full((2, 1), eps, dtype=complex)
    ratio = qv_modulus(activation(u, gains))[0] / qv_modulus(u)[0]
    assert ratio == pytest.approx(1.7, rel=1e-9)


# ---- delayed lookups ---------------------------------------------------------------


def test_history_buffer_reproduces_cubics_exactly():
    # the Hermite weights of the integrator's delay stencils are exact on
    # cubic polynomials with exact derivatives, at any fraction of a cell
    ts = np.linspace(0.0, 1.0, 6)
    step = ts[1] - ts[0]
    poly = lambda t: t**3 - 2.0 * t**2 + 0.5 * t + 1.0
    dpoly = lambda t: 3.0 * t**2 - 4.0 * t + 0.5
    u = np.linspace(0.0, 1.0, 41)
    cell = np.minimum((u / step).astype(int), len(ts) - 2)
    weights = _hermite_weights(u / step - cell, step)
    ends = np.stack([poly(ts[cell]), dpoly(ts[cell]),
                     poly(ts[cell + 1]), dpoly(ts[cell + 1])], axis=-1)
    np.testing.assert_allclose(np.sum(weights * ends, axis=-1), poly(u),
                               rtol=0, atol=1e-14)


# ---- integration ----------------------------------------------------------------


def test_zero_history_stays_at_the_origin():
    model = scalar_model()
    (traj,) = integrate(model, [np.zeros((2, 1))], 1.0, 1e-2)
    assert np.max(np.abs(traj.values)) <= 1e-14


def test_integrate_validates_inputs():
    model = scalar_model()
    start = np.zeros((2, 1))
    with pytest.raises(InputError):
        integrate(model, [start], horizon=0.0, step=1e-2)
    with pytest.raises(InputError):
        integrate(model, [start], horizon=1.0, step=0.0)
    # a ragged list of starts, and a start that would broadcast
    for bad in (np.zeros((2, 3)), np.zeros(1)):
        with pytest.raises(InputError, match="state pair"):
            integrate(model, [start, bad], 1.0, 1e-2)
    # a start that is itself ragged
    with pytest.raises(InputError, match="state pair"):
        integrate(model, [[[0.0], []]], 1.0, 1e-2)


def test_integrate_refuses_a_grid_larger_than_memory(monkeypatch):
    # 1e15 steps, and a step so small that horizon / step overflows: both
    # are refused before the node buffer is allocated
    def no_buffer(*args, **kwargs):
        raise AssertionError("allocated before the size was checked")

    model, start = scalar_model(), np.zeros((2, 1))
    monkeypatch.setattr(np, "zeros", no_buffer)
    for step in (1e-15, 1e-320):
        with pytest.raises(InputError, match="physical memory"):
            integrate(model, [start], 1.0, step)


def test_history_holds_the_start_with_zero_derivative(stable_model):
    # the start is the first node, and no history nodes are stored
    starts = seeded_starts(2, range(10))
    trajs = integrate(stable_model, starts, 0.5, 1e-3)
    for start, traj in zip(starts, trajs):
        assert np.all(traj.values[0] == start)
        assert len(traj.values) == len(traj.derivs) == 501
    # a lookup before t = 0 reads node 0's value with weight 1; its
    # derivative and the stage state weigh nothing
    t = np.array([0.0, 5e-4, 1e-3, 0.01])
    assert np.all(t < stable_model.delta)
    rows, weights, stage, blend = _lookup_stencils(
        stable_model, t, np.round(t / 1e-3).astype(int), 1e-3)
    assert np.all(rows == 0)
    assert np.all(weights == [1.0, 0.0, 0.0, 0.0])
    assert not np.any(stage) and not np.any(blend)


def test_trajectory_grid_and_state_agree():
    model = scalar_model()
    (traj,) = integrate(model, [np.array([[0.4 + 0.1j], [0.2j]])],
                        horizon=1.0, step=0.05)
    assert len(traj.times) == len(traj.values) == len(traj.derivs) == 21
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    series = _modulus_series(traj.values)
    assert series.shape == (len(traj.times),)
    assert np.all(series >= 0.0)


def test_divergence_reports_first_crossing_time():
    # strong delayed self-excitation blows up fast once tanh saturates
    model = scalar_model(
        c_diag=np.array([0.05]),
        b_mat=QuatMatrix.from_real(np.array([[40.0]])),
        gamma_diag=np.array([3.0]))
    (traj,) = integrate(model, [np.array([[1.0 + 0j], [0j]])],
                        horizon=50.0, step=1e-2, divergence_limit=100.0)
    assert traj.diverged_at is not None
    assert 0.0 < traj.diverged_at < 50.0


def reference_integrate(model, pair0, horizon, step):
    """Independent same-scheme reimplementation for constant-delay models.

    Only handles constant delay waveforms on a grid the delays divide evenly,
    which is all the consistency check needs.
    """
    tau_leak = model.delta
    tau_d = model.delay1(0.0) + model.delay2(0.0)
    lookback = model.lookback()
    hist_steps = max(int(math.ceil(lookback / step - 1e-9)), 1)
    total = int(math.ceil(horizon / step - 1e-9))
    gains = model.gamma_diag

    hist_vals = np.array([pair0] * (hist_steps + 1), dtype=complex)
    hist_derivs = np.zeros_like(hist_vals)  # constant history
    hist_t0 = -hist_steps * step

    values = np.zeros((total + 1, 2, model.n), dtype=complex)
    derivs = np.zeros_like(values)
    values[0] = pair0

    def hermite(vals, dvs, t0, u):
        offset = (u - t0) / step
        cell = min(max(int(math.floor(offset + 1e-12)), 0), len(vals) - 2)
        tau = offset - cell
        h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
        h10 = tau * (1.0 - tau) ** 2
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return (h00 * vals[cell] + h01 * vals[cell + 1]
                + step * (h10 * dvs[cell] + h11 * dvs[cell + 1]))

    def act(pair):
        return (np.tanh(pair.real) + 1j * np.tanh(pair.imag)) * gains[None, :]

    def rhs(t, state, committed):
        def look(u):
            if u < 0.0:
                return hermite(hist_vals, hist_derivs, hist_t0, u)
            return hermite(values[:committed + 1], derivs[:committed + 1],
                           0.0, u)
        return (-model.c_diag[None, :] * look(t - tau_leak)
                + mat_vec(model.a_mat, act(state))
                + mat_vec(model.b_mat, act(look(t - tau_d))))

    derivs[0] = rhs(0.0, values[0], 0)
    for k in range(total):
        t = k * step
        y = values[k]
        k1 = derivs[k]
        k2 = rhs(t + step / 2.0, y + (step / 2.0) * k1, k)
        k3 = rhs(t + step / 2.0, y + (step / 2.0) * k2, k)
        k4 = rhs(t + step, y + step * k3, k)
        values[k + 1] = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        derivs[k + 1] = rhs((k + 1) * step, values[k + 1], k + 1)
    return values


def test_constant_delay_run_matches_independent_reimplementation():
    model = order_fixture_model()
    pair0 = np.array([[0.9 + 0.4j], [-0.6 + 0.7j]])
    step = 1.0 / 16.0  # delays are integer multiples of the step
    (traj,) = integrate(model, [pair0], horizon=2.0, step=step)
    ref = reference_integrate(model, pair0, horizon=2.0, step=step)
    assert np.max(np.abs(traj.values - ref)) < 1e-10


def test_convergence_order_meets_scheme_design(order_study):
    steps, errors, slope = order_study
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert slope >= 3.5, (steps, errors, slope)


# ---- the batched loop against the serial oracle -----------------------------------


def seeded_starts(n, seeds):
    """Constant initial states drawn as ``qvnn simulate`` draws them."""
    out = []
    for seed in seeds:
        parts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4, n))
        out.append(np.stack([parts[0] + 1j * parts[1],
                             parts[2] + 1j * parts[3]]))
    return out


def assert_matches_serial(model, starts, horizon, step, **kwargs):
    """Every batched member equals its serial run to 1e-12; a diverged member
    stops at the serial divergence time exactly, and its committed part
    equals a serial run up to its last node."""
    trajs = integrate(model, starts, horizon, step, **kwargs)
    assert len(trajs) == len(starts)
    for start, traj in zip(starts, trajs):
        try:
            ref = serial_integrate(model, start, horizon, step, **kwargs)
        except DivergenceError as exc:
            assert traj.diverged_at == exc.time
            last = traj.times[-1]
            assert last == pytest.approx(exc.time - step)
            ref = serial_integrate(model, start, last, step, **kwargs)
        else:
            assert traj.diverged_at is None
        assert traj.values.shape == ref.values.shape
        assert np.array_equal(traj.rest, ref.rest)
        np.testing.assert_allclose(traj.values, ref.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.derivs, ref.derivs, rtol=0, atol=1e-12)
    return trajs


def test_batched_stable_members_match_serial(stable_model):
    trajs = assert_matches_serial(stable_model, seeded_starts(2, range(10)),
                                  horizon=1.0, step=5e-3)
    assert all(t.diverged_at is None for t in trajs)


@pytest.mark.parametrize("delta", [0.0, 4e-4])
def test_a_leak_delay_within_one_step_matches_serial(stable_model, delta):
    # the leak lookup then reads the stage state itself, in part or whole
    model = dataclasses.replace(stable_model, delta=delta)
    assert_matches_serial(model, seeded_starts(2, range(2)), horizon=2.0,
                          step=1e-3)


def test_divergent_members_do_not_stop_the_others():
    # c * delta = 3 > pi/2: the leak alone is unstable, so every nonzero orbit
    # grows, and only the large starts pass the limit within the horizon
    model = scalar_model(c_diag=np.array([3.0]), delta=1.0)
    amplitudes = (1.0, 1e-9, 0.5, 0.0, 1e-7)
    starts = [np.array([[a + 0.3j * a], [0.2 * a + 0j]]) for a in amplitudes]
    trajs = assert_matches_serial(model, starts, horizon=10.0, step=0.02,
                                  divergence_limit=50.0)
    diverged = [t.diverged_at is not None for t in trajs]
    assert diverged == [True, False, True, False, False]
    assert trajs[0].diverged_at != trajs[2].diverged_at
    assert all(t.times[-1] == pytest.approx(10.0)
               for t, d in zip(trajs, diverged) if not d)


def test_clamped_delays_take_the_stage_and_blend_lookups():
    # d1 = max(0.3 sin 4t, 0) sits at zero for half of each period and
    # crosses below one step on the way, so lookups hit the stage state
    # and the linear blend as well as committed cells
    model = scalar_model(
        delta=0.1, d1_bound=0.3, d2_bound=0.0, mu1=1.2,
        delay1=DelaySpec(amplitude=0.3, omega=4.0),
        delay2=DelaySpec(offset=0.0))
    step = 0.01
    stage_times = np.arange(0.0, 2.0, step / 2.0)
    assert np.any(model.delay1(stage_times) == 0.0)
    trajs = assert_matches_serial(model, seeded_starts(1, range(3)),
                                  horizon=2.0, step=step)
    assert all(t.blended_lookups > 0 for t in trajs)


def integrator_waves(model, members, horizon, step):
    """The waves of ``integrate``'s steps over ``horizon`` for ``members``
    starts, each as its steps and their ``_step_tables`` rows, weights and
    stage weights."""
    steps = math.ceil(horizon / step - _EDGE_SLACK)
    longest = min(_CHUNK_STEPS, _WAVE_FLOATS // (16 * members * model.n))
    for k0 in range(0, steps, _CHUNK_STEPS):
        ks = np.arange(k0, min(k0 + _CHUNK_STEPS, steps))
        rows, weights, stage, _ = _step_tables(model, ks, step)
        bounds = _waves(ks, rows, weights, longest)
        for w, e in zip(bounds, bounds[1:]):
            yield ks[w:e], rows[w:e], weights[w:e], stage[w:e]


def test_the_final_stage_reads_only_committed_nodes():
    # two clamped delays fall through (0, h) at a grid time, where the
    # derivative at the new node is evaluated; the small start keeps tanh
    # linear, so what the lookups read shows in the orbit. The first,
    # d1 = max(0.3 sin 4t, 0), does so at 0.78. The second, a leak delay of
    # 1.5 and d1 + d2 = max(3 sin t, 0) + max(0.03 sin 2t, 0), first reaches
    # past a chunk of steps, so that a wave is a whole chunk; then it drops
    # to 0 at pi and d2 rises slowly through (0, 2h), so that waves of one
    # step, and stage-weighted steps that start a wave, occur
    short = scalar_model(
        delta=0.1, d1_bound=0.3, d2_bound=0.0, mu1=1.2,
        delay1=DelaySpec(amplitude=0.3, omega=4.0),
        delay2=DelaySpec(offset=0.0))
    long = scalar_model(
        c_diag=np.array([0.5]), delta=1.5, d1_bound=3.0, d2_bound=0.03,
        mu1=3.0, mu2=0.06, delay1=DelaySpec(amplitude=3.0),
        delay2=DelaySpec(amplitude=0.03, omega=2.0))
    step = 0.01
    for model, horizon in ((short, 2.0), (long, 3.6)):
        ks = np.arange(round(horizon / step))
        grid_times = (ks + 1) * step
        grid_delay = model.delay1(grid_times) + model.delay2(grid_times)
        assert np.any((grid_delay > 0.0) & (grid_delay < step))

        # no lookup of step k weighs a buffer row past 2k + 1, the
        # derivative at node k
        rows, weights, _, _ = _step_tables(model, ks, step)
        weighed = np.where(weights != 0.0, rows, -1)
        assert np.all(weighed.max(axis=(1, 2)) <= 2 * ks + 1)

        # a wave's stored parts, summed when it starts at step k, weigh no
        # buffer row past 2k + 1 either
        lengths, weighted_first = [], False
        for wave, wave_rows, wave_weights, stage in integrator_waves(
                model, 2, horizon, step):
            weighed = np.where(wave_weights != 0.0, wave_rows, -1)
            assert weighed.max() <= 2 * wave[0] + 1
            lengths.append(len(wave))
            weighted_first |= bool(stage[0].any())

        starts = [0.05 * s for s in seeded_starts(1, range(2))]
        trajs = assert_matches_serial(model, starts, horizon, step)

        # each stage time serves two evaluations; the end time's two are
        # the end stage and the derivative at the new node
        t = ks[:, None] * step
        times = t + np.array([step / 2.0, step])
        lookups = np.stack([times - model.delta,
                            times - model.delay1(times) - model.delay2(times)])
        blend = ((lookups > t + _EDGE_SLACK)
                 & (np.abs(lookups - times) > _EDGE_SLACK))
        assert blend[:, :, 1].sum() > 0
        assert all(traj.blended_lookups == 2 * blend.sum() for traj in trajs)
    assert {1, _CHUNK_STEPS} <= set(lengths)
    assert weighted_first


def test_members_crossing_within_one_wave_stop_at_their_serial_times():
    # the unstable leak of test_divergent_members_do_not_stop_the_others:
    # these starts cross the limit at the last, a middle and the first step
    # of one wave, whose new values are screened together once it is done
    model = scalar_model(c_diag=np.array([3.0]), delta=1.0)
    step, horizon, limit = 0.02, 10.0, 50.0

    def run(amplitudes):
        waves = [(int(wave[0]), int(wave[-1])) for wave, *_ in
                 integrator_waves(model, len(amplitudes), horizon, step)]
        starts = [np.array([[a + 0.3j * a], [0.2 * a + 0j]])
                  for a in amplitudes]
        trajs = assert_matches_serial(model, starts, horizon, step,
                                      divergence_limit=limit)
        # the step whose new value crossed, and the wave it belongs to
        crossed = [round(t.diverged_at / step) - 1 for t in trajs
                   if t.diverged_at is not None]
        for k, traj in zip(crossed, trajs):
            assert len(traj.values) == k + 1
        wave = next(w for w in waves if w[0] <= crossed[0] <= w[1])
        assert all(wave[0] <= k <= wave[1] for k in crossed)
        return trajs, crossed, wave

    # with a member that never diverges, which runs to the horizon
    trajs, crossed, wave = run((0.6, 0.7, 0.97, 0.0))
    assert crossed == [wave[1], crossed[1], wave[0]]
    assert wave[0] < crossed[1] < wave[1]
    assert trajs[3].diverged_at is None
    assert trajs[3].times[-1] == pytest.approx(horizon)
    # every member diverges before the wave's last step: the loop ends with
    # that wave, and no trajectory reports a node past its crossing
    _, crossed, wave = run((0.7, 0.8, 0.97))
    assert max(crossed) < wave[1]


def test_divergence_is_judged_on_the_complex_modulus():
    # with w = x and real coefficients, the orbit keeps w = x, so the
    # modulus of w + x i is sqrt(2) |w|: it passes the limit while every
    # real component is still below it
    model = scalar_model(c_diag=np.array([3.0]), delta=1.0)
    start = np.array([[1.0 + 1.0j], [0j]])
    limit, step = 50.0, 0.02
    with pytest.raises(DivergenceError) as exc:
        serial_integrate(model, start, 10.0, step, divergence_limit=limit)
    crossing = serial_integrate(model, start, exc.value.time, step,
                                divergence_limit=1e9).values[-1]
    assert np.max(np.abs([crossing.real, crossing.imag])) < limit
    assert np.max(np.abs(crossing)) > limit
    (traj,) = integrate(model, [start], 10.0, step, divergence_limit=limit)
    assert traj.diverged_at == exc.value.time


def test_batched_shifted_members_match_serial():
    # both integrate the deviation from the rest point they compute
    assert_matches_serial(driven_scalar_model(), seeded_starts(1, range(4)),
                          horizon=2.0, step=1e-2)


def test_work_arrays_are_written_before_they_are_read(monkeypatch):
    # the loop's work arrays may start as any bytes; nan-filled ones must
    # give the same orbits
    model = driven_scalar_model()
    starts = seeded_starts(1, range(3))
    plain = integrate(model, starts, 1.0, 1e-2)
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float, **_:
                        np.full(shape, np.nan, dtype))
    monkeypatch.setattr(np, "empty_like", lambda a, **_:
                        np.full_like(a, np.nan))
    for traj, again in zip(plain, integrate(model, starts, 1.0, 1e-2)):
        assert np.array_equal(traj.values, again.values)
        assert np.array_equal(traj.derivs, again.derivs)


def test_no_histories_give_no_trajectories():
    assert integrate(scalar_model(), [], 1.0, 1e-2) == []


# ---- convergence metrics ---------------------------------------------------------


def test_metrics_on_a_decaying_run():
    model = scalar_model(delta=0.05,
                         delay1=DelaySpec(offset=0.25))
    (traj,) = integrate(model, [np.array([[0.5 + 0.2j], [0.1j]])],
                        horizon=12.0, step=5e-3)
    metrics = convergence_metrics(traj, threshold=1e-3)
    assert metrics.final_sup < 1e-3
    assert metrics.time_to_threshold is not None
    assert 0.0 < metrics.time_to_threshold < 12.0
    assert metrics.envelope_bounded
    assert metrics.peak <= 0.55


def test_metrics_on_a_growing_run():
    model = scalar_model(
        c_diag=np.array([0.2]),
        b_mat=QuatMatrix.from_real(np.array([[8.0]])),
        gamma_diag=np.array([2.0]))
    (traj,) = integrate(model, [np.array([[0.3 + 0j], [0j]])],
                        horizon=4.0, step=5e-3)
    metrics = convergence_metrics(traj, threshold=1e-3)
    assert metrics.time_to_threshold is None
    assert not metrics.envelope_bounded
    assert metrics.peak > 1.0


def test_metrics_on_the_zero_run():
    model = scalar_model()
    (traj,) = integrate(model, [np.zeros((2, 1))], 1.0, 1e-2)
    metrics = convergence_metrics(traj)
    assert metrics.final_sup <= 1e-14
    assert metrics.peak <= 1e-14
    assert metrics.time_to_threshold == 0.0
    assert metrics.envelope_bounded


@pytest.mark.parametrize("moduli, expected", [
    # below, back at the threshold (not below), then below to the end
    ([0.5, 1e-4, 2e-3, 5e-4, 1e-3, 2e-4, 1e-4], 0.5),
    # below twice, but above at the end
    ([0.5, 1e-4, 2e-4, 2e-3, 1e-4, 2e-3], None),
])
def test_time_to_threshold_starts_the_last_stay_below(moduli, expected):
    values = np.zeros((len(moduli), 2, 1), dtype=complex)
    values[:, 0, 0] = moduli
    traj = Trajectory(model=scalar_model(), step=0.1, values=values,
                      derivs=np.zeros_like(values), rest=np.zeros((2, 1)))
    metrics = convergence_metrics(traj, threshold=1e-3)
    assert metrics.time_to_threshold == expected


# ---- driven networks and equilibria ----------------------------------------------


def test_equilibrium_of_the_undriven_network_is_the_origin():
    eq = find_equilibrium(scalar_model())
    assert np.max(np.abs(eq)) <= 1e-12


def test_equilibrium_of_a_pure_leak_with_constant_drive():
    model = scalar_model(
        a_mat=quat_zeros(1), b_mat=quat_zeros(1),
        c_diag=np.array([1.0]),
        external_input=np.array([[3.0 + 0j], [0j]]))
    eq = find_equilibrium(model)
    np.testing.assert_allclose(eq, [[3.0], [0.0]], atol=1e-12)


def test_shifted_model_rests_at_the_origin():
    # a zero start is the rest point itself: the deviation stays at zero
    (traj,) = integrate(driven_scalar_model(), [np.zeros((2, 1))], 1.0, 1e-2)
    assert np.any(traj.rest != 0.0)
    assert np.max(np.abs(traj.values)) <= 1e-12


def test_a_driven_network_is_measured_from_its_rest_point(stable_model):
    # the drive of test_cli's driven run, on the loaded model itself
    model = dataclasses.replace(stable_model, external_input=qv_from_components(
        np.array([[1.0, 0.5, -0.5, 0.2], [0.3, -0.8, 0.4, 0.1]])))
    (traj,) = integrate(model, [np.zeros((2, 2))], 1.0, 1e-2)
    assert np.max(np.abs(traj.values)) <= 1e-12
    assert np.max(np.abs(traj.derivs)) <= 1e-12
    f = activation(traj.rest, model.gamma_diag)
    residual = (mat_vec(model.a_mat, f) + mat_vec(model.b_mat, f)
                + model.external_input - model.c_diag * traj.rest)
    assert np.max(np.abs(residual)) < 1e-10


def test_a_driven_run_keeps_its_leak_term_near_the_rest_point(stable_model):
    # the driven run of test_cli from seed 0: once C |x| is far below the
    # drive, -C x must still act, so no derivative is exactly 0 and the
    # deviation decays on instead of freezing near 1e-19
    model = dataclasses.replace(stable_model, external_input=qv_from_components(
        np.array([[1.0, 0.5, -0.5, 0.2], [0.3, -0.8, 0.4, 0.1]])))
    (traj,) = integrate(model, seeded_starts(2, [0]), 20.0, 1e-3)
    assert traj.derivs[1:].any(axis=(1, 2)).all()
    assert _modulus_series(traj.values[-1:])[0] < 1e-60


def test_undriven_trajectories_rest_at_the_origin():
    for model in (scalar_model(),
                  scalar_model(external_input=np.zeros((2, 1), complex))):
        (traj,) = integrate(model, seeded_starts(1, [0]), 0.5, 1e-2)
        assert np.array_equal(traj.rest, np.zeros((2, 1)))


def test_shift_agrees_with_driven_dynamics():
    # deviation run + rest point must reproduce the driven run in the
    # original coordinates
    model = driven_scalar_model()
    y_eq = find_equilibrium(model)
    start = np.array([[0.5 - 0.2j], [0.3 + 0.4j]])
    driven = serial_integrate(model, start, 2.0, 1e-2, original=True)
    (deviation,) = integrate(model, [start - y_eq], 2.0, 1e-2)
    assert np.array_equal(deviation.rest, y_eq)
    recomposed = deviation.values + deviation.rest[None]
    assert np.max(np.abs(driven.values - recomposed)) < 1e-9

