"""Barrier feasibility solver and its supporting machinery."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import qvnn.sdp
from conftest import certified_solve
from oracles import (
    alternating_projection_oracle,
    dense_grad_hess,
    lmi_value,
    random_model,
    real_coeffs,
)
from qvnn.errors import InputError, NumericalError
from qvnn.lowering import AffineLmi, StandardSdp, build_sdp
from qvnn.sdp import SolverConfig, scale_problem, solve_feasibility


def toy_lmi(name, coeffs):
    """A "> 0" constraint from its stack of A_i, stored CSR."""
    return AffineLmi(name, coeffs.shape[1],
                     scipy.sparse.csr_array(coeffs.reshape(len(coeffs), -1)))


def interval_toy():
    """Two variables (x, s), constraint diag(x - s, 3s - x) > 0: the ratio
    x / s lies in the interval (1, 3). In the box |x|, |s| <= 1 the best
    margin is 1 / 2, at (x, s) = (1, 1 / 2)."""
    coeffs = np.stack([np.diag([1.0, -1.0]), np.diag([-1.0, 3.0])])
    return StandardSdp(num_vars=2, lmis=[toy_lmi("interval", coeffs)])


def ray_toy():
    """One constraint x I > 0; the trust region caps the margin."""
    coeffs = np.eye(2)[None]
    return StandardSdp(num_vars=1, lmis=[toy_lmi("ray", coeffs)])


def opposing_toy():
    """x > 0 and -x > 0 cannot hold together; margin must collapse to ~0."""
    one = np.ones((1, 1))
    return StandardSdp(num_vars=1, lmis=[
        toy_lmi("up", one[None]),
        toy_lmi("down", -one[None]),
    ])


def shared_toy():
    """Two constraints of one shape that share the variable y:
    x A + y B > 0 and y C + s D > 0, every coefficient of full support."""
    first = np.stack([[[1.0, 0.5], [0.5, 2.0]], [[-0.3, 1.0], [1.0, 0.4]],
                      np.zeros((2, 2))])
    second = np.stack([np.zeros((2, 2)), [[1.0, 0.5j], [-0.5j, 1.0]],
                       [[0.2, 0.3], [0.3, -0.1]]])
    return StandardSdp(num_vars=3, lmis=[toy_lmi("first", first),
                                         toy_lmi("second", second)])


def three_scale_toy():
    """Three variables of very different scales; the third is in no block."""
    coeffs = np.stack([100.0 * np.eye(2), 0.01 * np.eye(2), np.zeros((2, 2))])
    return StandardSdp(num_vars=3, lmis=[toy_lmi("a", coeffs)])


def test_interval_toy_finds_the_analytic_center():
    result = solve_feasibility(interval_toy())
    assert result.status == "feasible"
    assert result.margin == pytest.approx(0.5, abs=1e-6)
    assert result.x[0] == pytest.approx(1.0, abs=1e-3)
    assert result.x[1] == pytest.approx(0.5, abs=1e-3)
    assert result.per_constraint_min_eig["interval"] == pytest.approx(0.5,
                                                                      abs=1e-6)


def test_homogeneous_ray_is_capped_by_the_trust_region():
    result = solve_feasibility(ray_toy())
    assert result.status == "feasible"
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
        bad = StandardSdp(num_vars=1, lmis=[toy_lmi("skew", coeffs)])
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
    assert result.trace, "expected a nonempty outer trace"
    assert result.margin == pytest.approx(max(r.t for r in result.trace), abs=0.0)
    # barrier weight decreases monotonically across rounds
    weights = [r.barrier_weight for r in result.trace]
    assert all(b < a for a, b in zip(weights, weights[1:]))


def test_trace_min_eig_matches_margin_at_the_optimum():
    result = solve_feasibility(ray_toy())
    last = result.trace[-1]
    assert last.min_eig == pytest.approx(last.t, abs=1e-6)


# ---- variable scaling ----------------------------------------------------------


def test_scaling_normalizes_and_maps_back():
    sdp = three_scale_toy()
    scaled, factors = scale_problem(sdp)
    # the Frobenius norm of the real image, sqrt(2) ||A||_F
    np.testing.assert_allclose(factors,
                               [np.sqrt(2.0) * np.linalg.norm(100.0 * np.eye(2)),
                                np.sqrt(2.0) * np.linalg.norm(0.01 * np.eye(2)),
                                1.0])
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
        assert np.all(np.isfinite(lmi.coeffs.data))
        assert np.all(lmi.coeffs.data != 0.0)


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
    # the central path: a change that moves it must restate these values
    assert (result.iterations, result.outer_rounds) == (96, 14)
    assert result.margin == pytest.approx(1.32154093e-5, rel=1e-9)


def test_reference_example_is_infeasible_at_tolerance(reference_model):
    result, _ = certified_solve(reference_model)
    assert result.status == "infeasible_at_tolerance"
    assert result.margin < 1e-6
    assert (result.iterations, result.outer_rounds) == (86, 14)
    assert result.margin == pytest.approx(-9.2953e-10, abs=1e-13)


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
    """Gradient and Hessian agree with the dense formula to 1e-12 relative at
    interior points from near the boundary of the cone to deep inside it,
    with every |x_i| below 0.1 * spread."""
    rng = np.random.default_rng(seed)
    stacks = qvnn.sdp._stack_constraints(sdp)
    m = sdp.num_vars
    for gap, mu in ((1e-2, 1e-5), (0.1, 0.3), (2.0, 5.0)):
        x = 0.1 * spread * rng.uniform(-1.0, 1.0, size=m)
        t = min(float(np.linalg.eigvalsh(np.tensordot(x, a, axes=1))[0])
                for a in real_coeffs(sdp)) - gap
        z = np.append(x, t)
        chols = qvnn.sdp._in_domain(stacks, z, m)
        assert chols is not None
        grad, hess = qvnn.sdp._grad_hess(stacks, chols, z, m, mu)
        grad_ref, hess_ref = dense_grad_hess(sdp, z, qvnn.sdp._TRUST_RADIUS, mu)
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
        assert np.max(np.abs(hess - hess_ref)) <= 1e-12 * np.max(np.abs(hess_ref))


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
    # criterion's blocks do; it is sampled over most of the box, where the
    # box terms of the barrier are large
    sdp = toy()
    assert any(eigs[0] < 0.0 < eigs[-1]
               for a in real_coeffs(sdp)
               for eigs in np.linalg.eigvalsh(a)) == indefinite
    assert_structured_matches_dense(sdp, seed=7, spread=spread)


def test_members_sharing_a_variable_add_up_in_the_scatter():
    # both constraints land in one stack and both reach y's Hessian row, its
    # t entry and the (t, t) entry through repeated flat indices
    sdp = shared_toy()
    (stack,) = qvnn.sdp._stack_constraints(sdp)
    assert stack.names == ["first", "second"]
    np.testing.assert_array_equal(stack.active, [[0, 1], [1, 2]])
    assert_structured_matches_dense(sdp, seed=11)


def test_stacks_hold_one_copy_of_their_members_coefficients(stable_model):
    # every constraint is in exactly one stack, the stacks follow the
    # constraint list, and each evaluates its members as they are stored,
    # from one block-diagonal copy that its transpose shares
    sdp = build_sdp(stable_model)
    stacks = qvnn.sdp._stack_constraints(sdp)
    assert [len(stack.names) for stack in stacks] == [2, 1, 11, 3]
    assert sorted(n for stack in stacks for n in stack.names) == sorted(
        lmi.name for lmi in sdp.lmis)
    by_name = {lmi.name: lmi for lmi in sdp.lmis}
    x = np.random.default_rng(44).normal(size=sdp.num_vars)
    for stack in stacks:
        assert np.shares_memory(stack.coeffs_conj_t.data, stack.coeffs_conj.data)
        assert stack.coeffs_conj.nnz == sum(by_name[n].coeffs.nnz
                                            for n in stack.names)
        for name, value in zip(stack.names, stack.evaluate(x)):
            np.testing.assert_allclose(value, lmi_value(by_name[name], x),
                                       atol=0.0)


def test_variables_group_under_the_smallest_maximal_row_support(stable_model):
    scaled, _ = scale_problem(build_sdp(stable_model))
    by_name = {lmi.name: lmi for lmi in scaled.lmis}
    for stack in qvnn.sdp._stack_constraints(scaled):
        rowsets = [frozenset(r.tolist()) for r, _, _ in stack.groups]
        assert len(set(rowsets)) == len(rowsets)
        assert not any(a < b for a in rowsets for b in rowsets)
        for name, active in zip(stack.names, stack.active):
            con = by_name[name]
            for rset, (_, cols, _) in zip(rowsets, stack.groups):
                for i in active[cols]:
                    a = con.coeffs[[i]].toarray().reshape(con.dim, con.dim)
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
    assert result.status == "feasible"
    assert result.margin == pytest.approx(0.5, abs=1e-6)


# ---- run record ------------------------------------------------------------------


def test_numerical_failure_reports_its_cause(monkeypatch):
    def broken(*args, **kwargs):
        raise NumericalError("Newton decrement is not finite")

    monkeypatch.setattr(qvnn.sdp, "_newton_center", broken)
    result = solve_feasibility(ray_toy())
    assert result.status == "numerical_failure"
    assert result.failure_cause == "Newton decrement is not finite"


def test_seed_restart_keeps_the_cause_of_the_failed_attempt(monkeypatch):
    center = qvnn.sdp._newton_center
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NumericalError("Hessian factorization failed")
        return center(*args, **kwargs)

    monkeypatch.setattr(qvnn.sdp, "_newton_center", fails_once)
    result = solve_feasibility(ray_toy())
    assert result.status == "feasible"
    assert result.seed_used == 1
    assert result.failure_cause == "Hessian factorization failed"
    monkeypatch.setattr(qvnn.sdp, "_newton_center", center)
    assert solve_feasibility(ray_toy()).failure_cause is None


def test_hessian_regularization_is_recorded_per_round(monkeypatch):
    assert all(rec.max_regularization == 0.0
               for rec in solve_feasibility(three_scale_toy()).trace)
    # refuse every first factorization of the 4 x 4 Newton Hessian, so each
    # step takes the first shift, 1e-12 times max(mean diagonal, 1)
    try_cholesky = qvnn.sdp._try_cholesky
    hessians = []

    def refuse_unshifted(mat):
        if mat.shape == (4, 4):
            hessians.append(None)
            if len(hessians) % 2:
                return None
        return try_cholesky(mat)

    monkeypatch.setattr(qvnn.sdp, "_try_cholesky", refuse_unshifted)
    result = solve_feasibility(three_scale_toy())
    assert result.status == "feasible"
    assert result.trace
    assert all(rec.max_regularization >= 1e-12 for rec in result.trace)


def test_stalled_line_searches_are_counted(monkeypatch):
    assert solve_feasibility(ray_toy()).stalled_line_searches == 0
    # no step length passes the floor, so every centering stalls at once
    monkeypatch.setattr(qvnn.sdp, "_MIN_STEP", 2.0)
    result = solve_feasibility(ray_toy())
    assert result.stalled_line_searches == result.outer_rounds > 0
