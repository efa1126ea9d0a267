"""Primal-dual feasibility solver and its supporting machinery."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

import qvnn.sdp
from conftest import certified_solve
from oracles import (
    affine_lmi,
    alternating_projection_oracle,
    coeff_stack,
    dense_schur,
    exact_lmi_image,
    exact_positive_definite,
    lmi_value,
    random_model,
    real_coeffs,
    shrunk_random_model,
)
from qvnn.errors import InputError, NumericalError
from qvnn.lowering import AffineLmi, StandardSdp, build_sdp
from qvnn.sdp import SolverConfig, scale_problem, solve_feasibility


def interval_toy():
    """Two variables (x, s), constraint diag(x - s, 3s - x) > 0: the ratio
    x / s lies in the interval (1, 3). The trace cone reads 2 s <= 2, and
    the best margin min(x - s, 3s - x) is 1, at (x, s) = (2, 1)."""
    coeffs = np.stack([np.diag([1.0, -1.0]), np.diag([-1.0, 3.0])])
    return StandardSdp(num_vars=2, lmis=[affine_lmi("interval", coeffs)])


def ray_toy():
    """One constraint x I > 0; the trace cone x <= 1 caps the margin at 1."""
    coeffs = np.eye(2)[None]
    return StandardSdp(num_vars=1, lmis=[affine_lmi("ray", coeffs)])


def opposing_toy():
    """x > 0 and -x > 0 cannot hold together; margin must collapse to ~0."""
    one = np.ones((1, 1))
    return StandardSdp(num_vars=1, lmis=[
        affine_lmi("up", one[None]),
        affine_lmi("down", -one[None]),
    ])


def shared_toy():
    """Two constraints of one shape that share the variable y:
    x A + y B > 0 and y C + s D > 0, every coefficient of full support."""
    first = np.stack([[[1.0, 0.5], [0.5, 2.0]], [[-0.3, 1.0], [1.0, 0.4]],
                      np.zeros((2, 2))])
    second = np.stack([np.zeros((2, 2)), [[1.0, 0.5j], [-0.5j, 1.0]],
                       [[0.2, 0.3], [0.3, -0.1]]])
    return StandardSdp(num_vars=3, lmis=[affine_lmi("first", first),
                                         affine_lmi("second", second)])


def three_scale_toy():
    """Three variables of very different scales; the third is in no block.
    G = diag(100 x + 0.01 s, 100 x + 0.02 s), whose trace is at most 2: the
    best margin is 1, at (x, s) = (0.01, 0), where both eigenvalues are 1."""
    coeffs = np.stack([100.0 * np.eye(2), 0.01 * np.diag([1.0, 2.0]),
                       np.zeros((2, 2))])
    return StandardSdp(num_vars=3, lmis=[affine_lmi("a", coeffs)])


def test_interval_toy_finds_the_analytic_center():
    # the run stops at its first proof, with a bracket that holds the optimum
    result = solve_feasibility(interval_toy())
    assert result.status == "feasible" and result.proof == "feasible"
    assert result.margin <= 1.0 <= result.margin_upper_bound
    # at a tolerance equal to the optimum neither proof can hold, and the
    # run goes on to the gap target
    result = solve_feasibility(interval_toy(), SolverConfig(margin_tolerance=1.0))
    assert result.proof == "undecided"
    assert result.margin == pytest.approx(1.0, abs=1e-6)
    assert result.x[0] == pytest.approx(2.0, abs=1e-3)
    assert result.x[1] == pytest.approx(1.0, abs=1e-3)
    assert result.per_constraint_min_eig["interval"] == pytest.approx(1.0,
                                                                      abs=1e-6)


def test_homogeneous_ray_is_capped_by_the_trust_region():
    result = solve_feasibility(ray_toy())
    assert result.status == "feasible" and result.proof == "feasible"
    assert result.margin <= 1.0 <= result.margin_upper_bound
    assert abs(result.x[0]) <= 1.0
    result = solve_feasibility(ray_toy(), SolverConfig(margin_tolerance=1.0))
    assert 0.9 < result.margin <= 1.0
    assert abs(result.x[0]) <= 1.0


def test_opposing_constraints_are_infeasible():
    result = solve_feasibility(opposing_toy())
    assert result.status == "infeasible_at_tolerance"
    assert result.margin < 1e-6
    assert result.margin > -1e-3  # x = 0 is always available


def test_non_symmetric_coefficients_rejected():
    # a non-symmetric real coefficient, and a complex symmetric one that is
    # not Hermitian
    for coeffs in (np.array([[[0.0, 1.0], [0.0, 0.0]]]),
                   np.array([[[0.0, 1j], [1j, 0.0]]])):
        bad = StandardSdp(num_vars=1, lmis=[affine_lmi("skew", coeffs)])
        with pytest.raises(InputError):
            solve_feasibility(bad)


def test_fixed_seed_is_bitwise_deterministic():
    first = solve_feasibility(interval_toy())
    second = solve_feasibility(interval_toy())
    assert first.margin == second.margin
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations
    assert [r.t for r in first.trace] == [r.t for r in second.trace]


def test_reported_margin_is_the_best_trace_point():
    result = solve_feasibility(interval_toy())
    assert result.trace, "expected a nonempty iteration trace"
    best = max(result.trace, key=lambda r: r.t)
    assert result.margin == best.t
    assert result.gap == best.gap
    assert [r.iteration for r in result.trace] == list(
        range(1, result.iterations + 1))


@pytest.mark.parametrize("toy", [interval_toy, ray_toy, opposing_toy,
                                 three_scale_toy, shared_toy])
def test_every_iterate_is_dual_feasible(toy):
    # S = G(x) - t I is evaluated at every iterate, so each t is a margin
    # that its own x attains
    result = solve_feasibility(toy())
    assert result.trace
    assert all(r.min_eig >= r.t - 1e-12 for r in result.trace)
    assert all(0.0 < r.primal_step <= 1.0 and 0.0 < r.dual_step <= 1.0
               for r in result.trace)


@pytest.mark.parametrize("toy", [interval_toy, ray_toy, opposing_toy,
                                 three_scale_toy, shared_toy])
def test_the_run_stops_at_its_first_proof(toy, monkeypatch):
    # one proof a step: the dual bound while t is below the tolerance, unless
    # the screen shows that it cannot hold, the margin once the best t
    # reaches it; the first that holds ends the run, and the dual bound at
    # the last iterate is the reported upper bound
    proves, bound = qvnn.sdp._proves_margin, qvnn.sdp._dual_bound
    step, tries, bounds = qvnn.sdp._iterate_once, [], []

    def iterate(it, clock):
        lengths = step(it, clock)
        bounds.append(bound(it))  # what a bound try at this iterate gives
        return lengths

    def margin(it):
        tries.append(("feasible", len(bounds) - 1, proves(it)))
        return tries[-1][2]

    def upper(it):
        tries.append(("infeasible", len(bounds) - 1, bound(it)))
        return tries[-1][2]

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", iterate)
    monkeypatch.setattr(qvnn.sdp, "_proves_margin", margin)
    monkeypatch.setattr(qvnn.sdp, "_dual_bound", upper)
    result = solve_feasibility(toy())
    assert result.failure_cause is None and result.proof != "undecided"
    *steps, (_, _, last_bound) = tries
    assert last_bound == result.margin_upper_bound
    tried = [i for _, i, _ in steps]
    assert tried == sorted(set(tried)) and tried[-1] == len(result.trace) - 1
    for i, rec in enumerate(result.trace):
        if i not in tried:
            # skipped by the screen: its bound would not have proved anything
            assert rec.t < 1e-6 and bounds[i] >= 1e-6
    for kind, i, _ in steps:
        assert kind == ("feasible" if result.trace[i].t >= 1e-6 else "infeasible")
    held = [won if kind == "feasible" else won < 1e-6 for kind, _, won in steps]
    assert held[-1] and not any(held[:-1])
    assert result.proof == steps[-1][0]
    # the targets of a longer run were not met before
    assert not any(r.gap <= 1e-8 and r.primal_residual <= 1e-9
                   for r in result.trace[:-1])


def small_ray_toy():
    """x diag(1e-8, 2 - 1e-8) > 0: the trace cone is x <= 1, so the optimum
    is 1e-8."""
    return StandardSdp(num_vars=1, lmis=[
        affine_lmi("ray", np.diag([1e-8, 2.0 - 1e-8])[None])])


@pytest.mark.parametrize("toy, optimum", [
    (interval_toy, 1.0), (ray_toy, 1.0), (three_scale_toy, 1.0),
    (small_ray_toy, 1e-8)],
    ids=["interval_toy", "ray_toy", "three_scale_toy", "small_ray_toy"])
def test_the_run_stops_at_the_gap_target(toy, optimum):
    # at a tolerance equal to the optimum neither proof can hold
    result = solve_feasibility(toy(), SolverConfig(margin_tolerance=optimum))
    assert result.failure_cause is None and result.proof == "undecided"
    # the gap target is the smaller of 1e-8 and 5 % of the tolerance
    target = min(1e-8, 0.05 * optimum)
    last = result.trace[-1]
    assert last.bound - last.t <= target
    assert last.primal_residual <= 1e-9
    # the stop is the first iterate that meets both targets
    assert not any(r.gap <= target and r.primal_residual <= 1e-9
                   for r in result.trace[:-1])
    assert result.margin <= optimum <= result.margin_upper_bound
    if target < 1e-8:
        # the tightened target kept the run going past the usual one
        assert any(r.gap <= 1e-8 for r in result.trace[:-1])


def test_trace_min_eig_matches_margin_at_the_optimum():
    result = solve_feasibility(ray_toy(), SolverConfig(margin_tolerance=1.0))
    last = result.trace[-1]
    assert last.min_eig == pytest.approx(last.t, abs=1e-6)


# ---- variable scaling ----------------------------------------------------------


def test_scaling_normalizes_and_maps_back():
    sdp = three_scale_toy()
    scaled, factors = scale_problem(sdp)
    # the Frobenius norm of the real image of chi(C) = diag(C, conj(C)),
    # sqrt(2) sqrt(2) ||C||_F
    np.testing.assert_allclose(factors,
                               [2.0 * np.linalg.norm(100.0 * np.eye(2)),
                                2.0 * np.linalg.norm(0.01 * np.diag([1.0, 2.0])),
                                1.0])
    np.testing.assert_allclose(factors[:2], np.linalg.norm(
        real_coeffs(sdp)[0][:2], axis=(1, 2)))
    # the third variable is in no constraint and keeps the factor 1
    assert factors[2] == 1.0
    x = np.array([0.3, -0.7, 0.0])
    x_scaled = x * factors
    # constraint values are pointwise invariant under the reparameterization
    np.testing.assert_allclose(lmi_value(scaled.lmis[0], x_scaled),
                               lmi_value(sdp.lmis[0], x), atol=1e-12)


def test_scaling_takes_norms_without_overflow(stable_model):
    # delta = 1e100 puts 1e200 on the P3 variables in Omega: squaring it
    # would overflow, and dividing by an infinite factor would zero them
    model = dataclasses.replace(stable_model, delta=1e100)
    sdp = build_sdp(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled, factors = scale_problem(sdp)
    assert np.all(np.isfinite(factors)) and np.all(factors > 0.0)
    assert np.max(factors) > 1e199
    for lmi in scaled.lmis:
        assert np.all(np.isfinite(lmi.value))
        assert np.all(lmi.value != 0.0)


def test_scaling_preserves_the_feasibility_verdict():
    rng = np.random.default_rng(51)
    model = random_model(rng, 1)
    sdp = build_sdp(model)
    raw = solve_feasibility(sdp, SolverConfig(max_outer_iters=40))
    scaled, _ = scale_problem(sdp)
    cooked = solve_feasibility(scaled, SolverConfig(max_outer_iters=40))
    assert raw.status == cooked.status


# ---- certified end-to-end problems ----------------------------------------------


def test_stable_example_certifies(stable_model, stable_solution):
    result, dv = stable_solution
    assert result.status == "feasible"
    assert result.margin >= 1e-6
    assert dv is not None and dv.n == stable_model.n
    assert result.iterations > 0
    assert min(result.per_constraint_min_eig.values()) >= result.margin - 1e-9
    # the iterates: a change that moves them must restate these values
    assert result.iterations == 10 and result.proof == "feasible"
    assert all(r.min_eig >= r.t - 1e-12 for r in result.trace)
    assert result.margin == pytest.approx(7.891042462e-4, rel=1e-9)
    assert result.margin_upper_bound == pytest.approx(1.720902e-3, rel=1e-6)
    # the optimum, the margin of a run to a gap of 1e-8 with both proofs
    # switched off, lies in the bracket
    assert result.margin <= 1.160730980e-3 <= result.margin_upper_bound + 2e-8


def test_reference_example_is_infeasible_at_tolerance(reference_model):
    result, _ = certified_solve(reference_model)
    assert result.status == "infeasible_at_tolerance"
    assert result.proof == "infeasible"
    assert result.margin_upper_bound < 1e-6
    assert result.iterations == 7
    assert result.margin == pytest.approx(-1.38097834e-7, abs=1e-12)
    # the optimum is 0, which x = 0 attains, to within a run's 1e-8 gap
    assert result.margin <= 0.0 <= result.margin_upper_bound


@pytest.mark.parametrize("name, calls, pins", [
    ("stable", 1, (10, 0.0007891042461746302, "feasible", 0.0017209023090003761)),
    ("reference", 2, (7, -1.380978343487353e-07, "infeasible",
                      2.7021240793325084e-08))])
def test_the_screen_skips_only_hopeless_bound_tries(name, calls, pins, request,
                                                   monkeypatch):
    # the last call is the reported upper bound: the screen skips all 9 tries
    # inside the stable run and 6 of the 7 in Sec. 4's, and both runs end
    # as the pins above, to the last bit
    bound, made = qvnn.sdp._dual_bound, []

    def counted(it):
        made.append(it)
        return bound(it)

    monkeypatch.setattr(qvnn.sdp, "_dual_bound", counted)
    result, _ = certified_solve(request.getfixturevalue(f"{name}_model"))
    assert len(made) == calls
    assert (result.iterations, result.margin, result.proof,
            result.margin_upper_bound) == pins


@pytest.mark.parametrize("source", ["stable", (1, 0.05, 0)])
def test_the_margin_proof_agrees_with_exact_elimination(source, request):
    # at the iterate that ended the run, and with t just below and just
    # above the smallest eigenvalue of its G_k(x): the proof holds exactly
    # where every G_k(x) - t I, summed in exact arithmetic from the lowered
    # floats, is positive definite by fraction-free elimination
    model = (request.getfixturevalue(f"{source}_model")
             if isinstance(source, str) else shrunk_random_model(*source))
    scaled, _ = scale_problem(build_sdp(model))
    result = solve_feasibility(scaled)
    assert result.proof == "feasible"
    it = qvnn.sdp._Iterate(qvnn.sdp._Operator(scaled))
    least = min(result.per_constraint_min_eig.values())
    for t in (result.margin, least * (1.0 - 1e-3), least * (1.0 + 1e-3)):
        it.set_dual(np.append(result.x, t))
        exact = all(exact_positive_definite(*exact_lmi_image(lmi, result.x, t))
                    for lmi in scaled.lmis)
        assert exact == (t < least)
        assert qvnn.sdp._proves_margin(it) == exact


@pytest.mark.parametrize("source", ["stable", "reference", 3])
def test_the_gram_matrix_matches_dense_in_any_runs_of_pairs(source, request,
                                                            monkeypatch):
    # the Gram matrix Re tr(A_i A_j) sums each entry's products position by
    # position, whatever the runs of pairs, so that a budget of one pair a
    # run (64 bytes) gives the same bits and the same floor
    if isinstance(source, int):
        model = random_model(np.random.default_rng(300 + source), source)
    else:
        model = request.getfixturevalue(f"{source}_model")
    scaled, _ = scale_problem(build_sdp(model))
    m = scaled.num_vars
    ref = dense_schur(scaled, [np.eye(lmi.dim) for lmi in scaled.lmis])[:m, :m]
    grams, floors = [], []
    for budget in (qvnn.sdp._CHUNK_BYTES, 2 ** 12, 64):
        monkeypatch.setattr(qvnn.sdp, "_CHUNK_BYTES", budget)
        op = qvnn.sdp._Operator(scaled)
        grams.append(op.gram().copy())
        floors.append(op.floor)
    gram = grams[0]
    assert all(np.array_equal(g, gram) for g in grams) and len(set(floors)) == 1
    assert np.array_equal(gram, gram.T)
    assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert 0.0 < floors[0] <= np.linalg.eigvalsh(ref)[0]


def test_the_infeasible_proof_rests_on_a_proved_gram_floor(reference_model,
                                                          monkeypatch):
    # the floor is a lower bound on the least eigenvalue of the Gram matrix,
    # within the ladder's factor 4 of it (0.125 against 0.1649 at Sec. 4);
    # dependent coefficients have none. Without a floor no dual bound holds:
    # Sec. 4 runs on to its gap target, unrefuted
    scaled, _ = scale_problem(build_sdp(reference_model))
    gram = dense_schur(scaled, [np.eye(lmi.dim) for lmi in scaled.lmis])[:-1, :-1]
    least = np.linalg.eigvalsh(gram)[0]
    assert least / 4.0 < qvnn.sdp._Operator(scaled).floor <= least
    twice = StandardSdp(num_vars=2, lmis=[
        affine_lmi("twice", np.stack([np.eye(2), 2.0 * np.eye(2)]))])
    assert qvnn.sdp._Operator(twice).floor == 0.0
    monkeypatch.setattr(qvnn.sdp._Operator, "gram_floor", lambda op: 0.0)
    result = solve_feasibility(scaled)
    assert result.status == "infeasible_at_tolerance"
    assert result.proof == "undecided" and result.margin_upper_bound == np.inf
    assert result.failure_cause is None and result.gap <= 1e-8


def test_a_constraint_definite_by_less_than_its_shift_is_undecided(
        monkeypatch):
    # x diag(1, 1e13) > 0 has, in the trace cone x (1 + 1e13) <= 2, the
    # optimum 2 / (1 + 1e13) at x = that, about 2e-13. At a tolerance 1 %
    # below it every iterate that reaches it has x - t below 2e-15, where
    # S = diag(x - t, 1e13 x - t) is definite, exactly, but by less than the
    # shift of about 1.6e-14: the margin proof is tried and fails every
    # time, and the run ends at its gap target "undecided", never "feasible"
    sdp = StandardSdp(num_vars=1, lmis=[
        affine_lmi("stiff", np.diag([1.0, 1e13])[None])])
    proves, tries = qvnn.sdp._proves_margin, []
    monkeypatch.setattr(qvnn.sdp, "_proves_margin",
                        lambda it: tries.append(proves(it)) or tries[-1])
    tolerance = 0.99 * 2.0 / (1.0 + 1e13)
    result = solve_feasibility(sdp, SolverConfig(margin_tolerance=tolerance))
    assert result.status == "feasible" and result.proof == "undecided"
    assert tries and not any(tries)
    assert result.failure_cause is None and result.gap <= 0.05 * tolerance
    assert exact_positive_definite(*exact_lmi_image(sdp.lmis[0], result.x,
                                                    result.margin))


# ---- alternating-projection second opinion ---------------------------------------


def test_projection_oracle_agrees_on_feasible_ray():
    result = alternating_projection_oracle(ray_toy(), target_margin=0.5)
    assert result.found
    assert result.margin >= 0.25


def test_projection_oracle_agrees_on_infeasible_pair():
    result = alternating_projection_oracle(opposing_toy(), target_margin=0.5)
    assert not result.found
    assert result.margin < 0.25


def test_projection_oracle_validates_target():
    with pytest.raises(InputError):
        alternating_projection_oracle(ray_toy(), target_margin=0.0)


# ---- structured Newton step against the dense reference ----------------------------


def assert_structured_matches_dense(sdp, seed, spread=1.0):
    """The operator's Schur complement and primal operator agree with the
    dense formulas to 1e-12 relative at W = (G_k(x) - t I)^-1, positive
    definite, from near the boundary of the cone to deep inside it, with
    every |x_i| below 0.1 * spread, and the trace cone's weight u0 / s0
    from 0 to 10."""
    rng = np.random.default_rng(seed)
    op = qvnn.sdp._Operator(sdp)
    m = sdp.num_vars
    for gap in (1e-2, 0.1, 2.0):
        x = 0.1 * spread * rng.uniform(-1.0, 1.0, size=m)
        t = min(float(np.linalg.eigvalsh(np.tensordot(x, a, axes=1))[0])
                for a in real_coeffs(sdp)) - gap
        ws = {lmi.name: np.linalg.inv(lmi_value(lmi, x) - t * np.eye(lmi.dim))
              for lmi in sdp.lmis}
        stack_ws = [np.stack([ws[name] for name in s.names]) for s in op.stacks]
        weight = {1e-2: 0.0, 0.1: 0.3, 2.0: 10.0}[gap]
        schur = op.schur(stack_ws, weight)
        schur_ref = dense_schur(sdp, [ws[lmi.name] for lmi in sdp.lmis], weight)
        assert np.max(np.abs(schur - schur_ref)) <= 1e-12 * np.max(np.abs(schur_ref))
        # <B_i, W> with B = (A_1, ..., A_m, -I), negated: the primal equations
        applied = op.apply(stack_ws)
        ref = -sum(np.append(np.einsum("ipq,pq->i", coeff_stack(lmi, m).conj(),
                                       ws[lmi.name]),
                             -np.trace(ws[lmi.name])).real
                   for lmi in sdp.lmis)
        assert np.max(np.abs(applied - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_structured_derivatives_match_dense_on_the_stable_model(stable_model):
    scaled, _ = scale_problem(build_sdp(stable_model))
    assert_structured_matches_dense(scaled, seed=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structured_derivatives_match_dense_on_random_models(n):
    model = random_model(np.random.default_rng(300 + n), n)
    scaled, _ = scale_problem(build_sdp(model))
    assert_structured_matches_dense(scaled, seed=n)


@pytest.mark.parametrize("toy, indefinite, spread", [
    (interval_toy, True, 8.0),
    (ray_toy, False, 1.0),
    (opposing_toy, False, 1.0),
    (three_scale_toy, False, 1.0),
])
def test_structured_derivatives_match_dense_on_toys(toy, indefinite, spread):
    # only the interval toy has a coefficient of both signs, as the
    # criterion's blocks do; it is sampled over most of the box
    sdp = toy()
    assert any(eigs[0] < 0.0 < eigs[-1]
               for a in real_coeffs(sdp)
               for eigs in np.linalg.eigvalsh(a)) == indefinite
    assert_structured_matches_dense(sdp, seed=7, spread=spread)


@pytest.mark.parametrize("source, budget", [
    pytest.param("stable", qvnn.sdp._CHUNK_BYTES, id="stable"),
    pytest.param("reference", qvnn.sdp._CHUNK_BYTES, id="reference"),
    pytest.param(3, 2 ** 16, id="n3-small-chunks"),
])
def test_schur_complement_matches_dense_along_the_solver_iterates(
        source, budget, request, monkeypatch):
    # the solver's W is a chi image only up to rounding that grows with the
    # conditioning, and the Schur complement forms half of each W A_i W: at
    # every iterate it must still match the full trace over both halves. A
    # small budget runs Omega's variables over many chunks, splits most of
    # its groups between two of them and averages M in many bands of rows
    monkeypatch.setattr(qvnn.sdp, "_CHUNK_BYTES", budget)
    if isinstance(source, int):
        model = random_model(np.random.default_rng(300 + source), source)
    else:
        model = request.getfixturevalue(f"{source}_model")
    scaled, _ = scale_problem(build_sdp(model))
    if isinstance(source, int):
        op = qvnn.sdp._Operator(scaled)
        assert max(len(stack.chunks) for stack in op.stacks) > 10
        assert any(sum(len(pieces) for _, pieces in stack.chunks)
                   > len(stack.groups) for stack in op.stacks)
    schur, seen = qvnn.sdp._Operator.schur, []

    def recording(op, ws, weight):
        mat = schur(op, ws, weight)
        seen.append(({name: w for stack, group in zip(op.stacks, ws)
                      for name, w in zip(stack.names, group)}, weight, mat.copy()))
        return mat

    monkeypatch.setattr(qvnn.sdp._Operator, "schur", recording)
    result = solve_feasibility(scaled)
    assert result.failure_cause is None and len(seen) == result.iterations
    for ws, weight, mat in seen:
        ref = dense_schur(scaled, [ws[lmi.name] for lmi in scaled.lmis], weight)
        assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_the_iterate_holds_its_residual_and_the_record_its_min_eig(
        stable_model, monkeypatch):
    # the residual is set once per primal update, for the record and the next
    # corrector, and min_eig is t + lambda_min(S_k) from the S the iterate
    # already holds: at every iterate the first is the operator's fresh
    # b - A(X, u0), and the second the smallest eigenvalue of G_k(x) to
    # 1e-14 of the scale of S_k, the larger of ||G_k(x)|| and |t|
    scaled, _ = scale_problem(build_sdp(stable_model))
    step, seen = qvnn.sdp._iterate_once, []

    def recording(it, clock):
        steps = step(it, clock)
        fresh = -it.op.apply(it.xs, it.u0 * it.op.c)
        fresh[-1] += 1.0
        seen.append((it.residual.copy(), fresh, it.y[:-1].copy()))
        return steps

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", recording)
    result = solve_feasibility(scaled)
    assert result.failure_cause is None and len(seen) == len(result.trace)
    for (held, fresh, x), record in zip(seen, result.trace):
        np.testing.assert_array_equal(held, fresh)
        assert record.primal_residual == np.max(np.abs(held))
        eigs = [np.linalg.eigvalsh(lmi_value(lmi, x)) for lmi in scaled.lmis]
        scale = max([np.max(np.abs(e)) for e in eigs] + [abs(record.t)])
        assert abs(record.min_eig - min(e[0] for e in eigs)) <= 1e-14 * scale


def test_a_constraint_that_is_no_chi_image_is_refused():
    # a chi image has an even side 2 N and is stored by its rows p < N: an
    # odd side, or an entry at row N or below, cannot be one
    one = np.ones(1)
    for dim, entry, message in ((3, 0, "odd side 3"),
                                (4, 8, "top 2 rows of side 4"),
                                (2, 3, "top 1 rows of side 2")):
        lmi = AffineLmi("c", dim, np.array([0]), np.array([entry]), one)
        with pytest.raises(InputError, match=f"constraint c .*{message}"):
            StandardSdp(num_vars=1, lmis=[lmi])


def test_entries_out_of_range_or_order_are_refused():
    # side 4 stores the entries 0..7 of its top two rows: each case breaks
    # one rule, a variable, the order, a repeat, the range or the shapes
    one = np.ones(2)
    for var, entry in (([0, 1], [0, 3]), ([0, 0], [3, 0]), ([0, 0], [0, 0]),
                       ([0, 0], [0, 16]), ([0], [0])):
        lmi = AffineLmi("ray", 4, np.array(var), np.array(entry), one)
        with pytest.raises(InputError, match="constraint ray"):
            StandardSdp(num_vars=1, lmis=[lmi])


def test_members_sharing_a_variable_add_up_in_the_scatter():
    # the constraints share y, so they land in two stacks of one shape, and
    # both reach y's Hessian row, its t entry and the (t, t) entry
    sdp = shared_toy()
    first, second = qvnn.sdp._Operator(sdp).stacks
    assert first.names == ["first"] and second.names == ["second"]
    np.testing.assert_array_equal(first.active, [[0, 1]])
    np.testing.assert_array_equal(second.active, [[1, 2]])
    assert_structured_matches_dense(sdp, seed=11)


def test_members_sharing_a_variable_add_up_across_one_column_chunks(
        monkeypatch):
    # the two members fall in two stacks, and each variable in its own chunk
    monkeypatch.setattr(qvnn.sdp, "_CHUNK_BYTES", 1)
    first, second = qvnn.sdp._Operator(shared_toy()).stacks
    assert len(first.chunks) == len(second.chunks) == 2
    assert_structured_matches_dense(shared_toy(), seed=12)


def test_stacks_hold_one_copy_of_their_members_coefficients(stable_model):
    # every constraint is in exactly one stack, the stacks follow the
    # constraint list, and the operator evaluates every member as it is
    # stored, from one copy of its stored rows and one of the rows below them
    sdp = build_sdp(stable_model)
    assert sum(lmi.var.size for lmi in sdp.lmis) == 1578
    op = qvnn.sdp._Operator(sdp)
    assert [len(stack.names) for stack in op.stacks] == [2, 1, 9, 3]
    assert sorted(n for stack in op.stacks for n in stack.names) == sorted(
        lmi.name for lmi in sdp.lmis)
    assert (op.var.shape == op.flat.shape == op.row.shape
            == op.conj_value.shape == (2 * 1578,))
    by_name = {lmi.name: lmi for lmi in sdp.lmis}
    x = np.random.default_rng(44).normal(size=sdp.num_vars)
    for stack, values in zip(op.stacks, op.evaluate(np.append(x, 0.0))):
        for name, value in zip(stack.names, values):
            np.testing.assert_allclose(value, lmi_value(by_name[name], x),
                                       atol=0.0)


def test_variables_group_under_the_smallest_maximal_row_support(stable_model):
    scaled, _ = scale_problem(build_sdp(stable_model))
    by_name = {lmi.name: lmi for lmi in scaled.lmis}
    for stack in qvnn.sdp._Operator(scaled).stacks:
        rowsets = [frozenset(r.tolist()) for r, *_ in stack.groups]
        assert len(set(rowsets)) == len(rowsets)
        assert not any(a < b for a in rowsets for b in rowsets)
        for name, active in zip(stack.names, stack.active):
            con = by_name[name]
            for rset, (_, cols, *_) in zip(rowsets, stack.groups):
                for i in active[cols]:
                    a = coeff_stack(con, scaled.num_vars)[i]
                    own = frozenset(np.flatnonzero(a.any(axis=0)
                                                   | a.any(axis=1)).tolist())
                    assert own <= rset
                    assert len(rset) == min(len(r) for r in rowsets if own <= r)


def test_solver_factorizes_with_numpy_linalg_only(monkeypatch):
    # scipy links its own OpenBLAS; the solver loop must stay on numpy's
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg called by the solver")

    for name in ("cho_factor", "cho_solve", "cholesky", "solve_triangular", "inv"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    result = solve_feasibility(interval_toy())
    assert result.status == "feasible" and result.proof == "feasible"
    assert result.margin <= 1.0 <= result.margin_upper_bound


# ---- run record ------------------------------------------------------------------


def test_numerical_failure_reports_its_cause(monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalError("the Schur complement is not positive definite")

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", broken)
    result = solve_feasibility(ray_toy())
    assert result.status == "numerical_failure"
    assert result.iterations == 0 and result.x is None
    assert result.failure_cause == "the Schur complement is not positive definite"


@pytest.mark.parametrize("completed", [1, 3])
def test_a_breakdown_ends_the_run_at_the_last_iterate(monkeypatch, completed):
    # the iterates before the breakdown are dual feasible, so the run
    # reports the best of them, its verdict from t, and the cause; at a
    # tolerance equal to the optimum no proof ends the run first
    step = qvnn.sdp._iterate_once
    calls = []

    def breaks_late(*args, **kwargs):
        calls.append(None)
        if len(calls) > completed:
            raise NumericalError("the Schur complement is not positive definite")
        return step(*args, **kwargs)

    monkeypatch.setattr(qvnn.sdp, "_iterate_once", breaks_late)
    result = solve_feasibility(ray_toy(), SolverConfig(margin_tolerance=1.0))
    assert result.iterations == len(result.trace) == completed
    assert result.margin == max(r.t for r in result.trace)
    assert result.status == ("feasible" if result.margin >= 1.0
                             else "infeasible_at_tolerance")
    assert result.proof == "undecided"
    assert result.margin <= 1.0 <= result.margin_upper_bound
    assert result.failure_cause == "the Schur complement is not positive definite"
    assert min(result.per_constraint_min_eig.values()) >= result.margin - 1e-12


def test_a_schur_complement_indefinite_by_rounding_does_not_stop_the_run(
        monkeypatch):
    # near the gap target rounding can leave M indefinite, where a Cholesky
    # factor of M once stopped the run. Here every M has its smallest
    # eigenvalue negated: M is indefinite at every iterate, yet each is
    # solved by LU, twice, and the run ends on its proof as before
    scaled, _ = scale_problem(build_sdp(shrunk_random_model(1, 0.05, 0)))
    plain = solve_feasibility(scaled)
    schur, solve, seen, solves = (qvnn.sdp._Operator.schur,
                                  np.linalg.solve, [], [])

    def flipped(op, ws, weight):
        mat = schur(op, ws, weight)
        lam, vec = np.linalg.eigh(mat)
        mat -= 2.0 * lam[0] * np.outer(vec[:, 0], vec[:, 0])
        seen.append(np.linalg.eigvalsh(mat)[[0, -1]])
        return mat

    def counted(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(qvnn.sdp._Operator, "schur", flipped)
    monkeypatch.setattr(qvnn.sdp.np.linalg, "solve", counted)
    result = solve_feasibility(scaled)
    assert all(lo < 0.0 < hi for lo, hi in seen)
    assert result.failure_cause is None
    assert len(seen) == result.iterations
    assert len(solves) == 2 * result.iterations
    assert (result.status, result.proof) == (plain.status, plain.proof) == (
        "feasible", "feasible")


def test_a_singular_schur_complement_is_a_numerical_failure(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(qvnn.sdp.np.linalg, "solve", singular)
    result = solve_feasibility(interval_toy())
    assert result.status == "numerical_failure"
    assert result.failure_cause == "the Schur complement is singular"


def test_the_iteration_cap_ends_the_run():
    result = solve_feasibility(interval_toy(), SolverConfig(max_outer_iters=2))
    assert result.iterations == len(result.trace) == 2
    assert result.failure_cause is None
    assert result.gap > 1e-8


def test_an_all_zero_constraint_is_refused_by_name():
    ray = ray_toy()
    zero = affine_lmi("zero", np.zeros((1, 2, 2)))
    with pytest.raises(InputError, match="constraint zero"):
        solve_feasibility(StandardSdp(num_vars=1, lmis=ray.lmis + [zero]))


# ---- verdicts of the barrier method this solver replaced ----------------------------


# (n, scale, seed) -> the margin of the log-det barrier solver, rerun from
# the project's history on the criterion with the plain Jensen outer window
BARRIER_MARGINS = {
    (1, 0.05, 0): 3.601775001854957e-03,
    (1, 0.05, 1): 1.4822247593844687e-02,
    (1, 0.3, 0): -4.395605825925432e-09,
    (1, 0.3, 2): 9.998168056530171e-04,
    (2, 0.05, 0): -4.54584385524481e-09,
    (2, 0.05, 1): 7.887541659177028e-04,
    (2, 0.3, 1): -9.226815802648459e-10,
}


@pytest.mark.parametrize("n, scale, seed", sorted(BARRIER_MARGINS))
def test_verdicts_agree_with_the_barrier_method(n, scale, seed):
    # each barrier margin is within its method's gap bound, 1e-8, of the
    # optimum over the box |x_i| <= 1 of the scaled variables, and the
    # margins are homogeneous of degree 1 in x. Rescaled into the box, the
    # run's x attains at most the box optimum; rescaled into the trace
    # cone, c^T x <= ||c||_1 <= D ||c||_1 / D, the box optimizer attains at
    # least (barrier - 1e-8) D / ||c||_1, so the run's verified upper bound
    # is at least that
    barrier = BARRIER_MARGINS[n, scale, seed]
    model = shrunk_random_model(n, scale, seed)
    result, _ = certified_solve(model)
    assert result.status == ("feasible" if barrier >= 1e-6
                             else "infeasible_at_tolerance")
    assert result.proof == ("feasible" if barrier >= 1e-6 else "infeasible")
    assert result.margin / np.max(np.abs(result.x)) <= barrier + 2e-8
    if barrier > 0.0:
        scaled, _ = scale_problem(build_sdp(model))
        c = sum(np.trace(coeff_stack(lmi, scaled.num_vars), axis1=1,
                         axis2=2).real for lmi in scaled.lmis)
        side = sum(lmi.dim for lmi in scaled.lmis)
        assert ((barrier - 2e-8) * side / np.sum(np.abs(c))
                <= result.margin_upper_bound + 2e-8)


@pytest.mark.parametrize("source", ["stable", "reference"])
def test_verdicts_are_scale_free(source, request):
    # the trace cone scales with the variables: rescaled by powers of two
    # from 2^-8 to 2^8, the scaled problem ends with the same status, proof
    # and iteration count, and its margin moves by rounding only
    scaled, _ = scale_problem(build_sdp(request.getfixturevalue(f"{source}_model")))
    factors = 2.0 ** np.random.default_rng(0).integers(-8, 9, size=scaled.num_vars)
    rescaled = StandardSdp(num_vars=scaled.num_vars, lmis=[
        AffineLmi(l.name, l.dim, l.var, l.entry, l.value * factors[l.var])
        for l in scaled.lmis])
    plain, moved = solve_feasibility(scaled), solve_feasibility(rescaled)
    assert (moved.status, moved.proof, moved.iterations) == (
        plain.status, plain.proof, plain.iterations)
    assert moved.margin == pytest.approx(plain.margin, rel=1e-9)
    np.testing.assert_allclose(moved.x * factors, plain.x, rtol=0.0,
                               atol=1e-6 * np.max(np.abs(plain.x)))
