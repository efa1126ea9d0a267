"""Criterion assembly: decision variables, block table, certificate checks."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certified_solve
from oracles import (
    assemble_omega,
    constraint_matrix,
    derivation_omega,
    exact_constraints,
    exact_positive_definite,
    hermitian_eigvals,
    part_labels,
    quat_identity,
    random_decision_vars,
    random_hermitian_pd,
    random_model,
    real_parts,
    scaled,
    shrunk_random_model,
    to_vector,
    unit_images,
)
import qvnn.lmi
from qvnn.errors import InputError
from qvnn.lmi import (
    DIAG_NAMES,
    GENERAL_NAMES,
    HERMITIAN_NAMES,
    LAYOUT,
    DecisionVars,
    assemble_blocks,
    omega_terms,
    quat_constraints,
    sum_terms,
    verify_certificate,
)
from qvnn.lowering import build_sdp
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import HermitianQuatMatrix, QuatMatrix, real_diag
from qvnn.sdp import scale_problem, solve_feasibility


def unit_model():
    """Every parameter equal to one; all blocks become small integers."""
    return NetworkModel(
        n=1, c_diag=np.array([1.0]),
        a_mat=QuatMatrix.from_real(np.array([[1.0]])),
        b_mat=QuatMatrix.from_real(np.array([[1.0]])),
        delta=1.0, d1_bound=1.0, d2_bound=1.0, mu1=0.0, mu2=0.0,
        gamma_diag=np.array([1.0]),
        delay1=DelaySpec(offset=1.0),
        delay2=DelaySpec(offset=1.0),
    )


def unit_vars(n=1):
    one = HermitianQuatMatrix(np.ones((n, n), dtype=complex),
                              np.zeros((n, n), dtype=complex))
    gen = QuatMatrix(np.ones((n, n), dtype=complex),
                     np.zeros((n, n), dtype=complex))
    fields = {name: one for name in HERMITIAN_NAMES}
    fields.update({name: gen for name in GENERAL_NAMES})
    fields.update({name: np.ones(n) for name in DIAG_NAMES})
    return DecisionVars(**fields)


# hand-computed value of every authored block at the all-ones point
UNIT_BLOCKS = {
    (1, 1): 4.0, (1, 4): 0.0, (1, 6): 1.0, (1, 8): 1.0, (1, 10): 1.0,
    (1, 11): 1.0,
    (2, 2): 0.0, (2, 3): -2.0, (2, 8): 1.0, (2, 10): 1.0,
    (3, 3): -3.0, (3, 8): 1.0, (3, 10): 1.0,
    (4, 4): 0.0, (4, 6): 0.0,
    (5, 5): 0.0,
    (6, 6): -3.0, (6, 7): 1.0,
    (7, 7): -2.0,
    (8, 8): 1.0, (8, 11): -1.0,
    (9, 9): -2.0,
    (10, 10): -2.0, (10, 11): -1.0,
    (11, 11): -1.0,
}


def test_scalar_counts():
    assert DecisionVars.num_scalars(1) == 30
    assert DecisionVars.num_scalars(2) == 136
    for n in range(1, 6):
        assert DecisionVars.num_scalars(n) == 38 * n * n - 8 * n


def test_var_map_touches_every_scalar_once():
    # the variable map is the one from_vector lays out: each scalar drives
    # exactly one entry (plus its Hermitian mirror), no entry twice
    for n in (1, 2, 3):
        units = unit_images(n)
        labels = part_labels(n)
        assert units.shape == (DecisionVars.num_scalars(n), len(labels))
        assert set(np.unique(units)) <= {-1.0, 0.0, 1.0}
        driven = units != 0.0
        assert np.all(driven.sum(axis=0) <= 1), "an entry is driven twice"
        for row in driven:
            hit = [labels[c] for c in np.flatnonzero(row)]
            if len(hit) == 1:
                continue
            # otherwise an off-diagonal Hermitian entry and its mirror
            assert len(hit) == 2, hit
            (name, comp, i, j), (name2, comp2, i2, j2) = hit
            assert name in HERMITIAN_NAMES and (name2, comp2) == (name, comp)
            assert (i2, j2) == (j, i) and i != j


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_from_vector_reads_every_scalar(n):
    # a count past the layout would leave trailing scalars unread: every
    # scalar drives an entry, and the last one is the imaginary part of
    # s2's a2 at (n, n)
    assert np.all(np.any(unit_images(n) != 0.0, axis=1))
    vec = np.zeros(DecisionVars.num_scalars(n))
    vec[-1] = 1.0
    dv = DecisionVars.from_vector(vec, n)
    assert dv.s2.a2[-1, -1] == 1j
    assert np.count_nonzero(real_parts(dv)) == 1


def test_from_vector_on_a_batch_equals_single_calls():
    n, k = 3, 4
    vecs = np.random.default_rng(36).normal(size=(k, DecisionVars.num_scalars(n)))
    batch = DecisionVars.from_vector(vecs, n)
    assert batch.n == n and batch.p1.a1.shape == (k, n, n)
    parts = real_parts(batch)
    for i in range(k):
        np.testing.assert_array_equal(
            parts[i], real_parts(DecisionVars.from_vector(vecs[i], n)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4))
def test_vectorization_round_trip(seed, n):
    vec = np.random.default_rng(seed).normal(size=DecisionVars.num_scalars(n))
    dv = DecisionVars.from_vector(vec, n)
    np.testing.assert_array_equal(to_vector(dv), vec)


def test_from_vector_rejects_wrong_length():
    with pytest.raises(InputError):
        DecisionVars.from_vector(np.zeros(29), 1)


def test_unit_point_block_values():
    blocks = sum_terms(omega_terms(unit_model()), unit_vars())
    assert set(blocks) == set(UNIT_BLOCKS)
    for key, expected in UNIT_BLOCKS.items():
        blk = blocks[key]
        assert blk.a1[0, 0] == pytest.approx(expected, abs=1e-14), key
        assert abs(blk.a1[0, 0].imag) == 0.0
        assert abs(blk.a2[0, 0]) == 0.0


def test_assembled_matrix_is_hermitian_with_mirrored_blocks():
    rng = np.random.default_rng(31)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    omega = assemble_omega(model, dv)
    assert omega.shape == (22, 22)
    assert omega.hermitian_violation() == 0.0
    blocks = sum_terms(omega_terms(model), dv)
    n = 2
    for (i, j), blk in blocks.items():
        r = slice((i - 1) * n, i * n)
        c = slice((j - 1) * n, j * n)
        if i != j:
            np.testing.assert_allclose(omega.a1[r, c], blk.a1, atol=0.0)
            np.testing.assert_allclose(omega.a1[c, r], blk.a1.conj().T, atol=0.0)


def test_unauthored_blocks_are_exactly_zero():
    rng = np.random.default_rng(32)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    omega = assemble_omega(model, dv)
    n = 2
    authored = {row[0] for row in omega_terms(model)}
    for i in range(1, 12):
        for j in range(i, 12):
            if (i, j) in authored:
                continue
            r = slice((i - 1) * n, i * n)
            c = slice((j - 1) * n, j * n)
            assert np.all(omega.a1[r, c] == 0.0), (i, j)
            assert np.all(omega.a2[r, c] == 0.0), (i, j)


def test_assembly_is_homogeneous_in_the_variables():
    rng = np.random.default_rng(33)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    doubled = assemble_omega(model, scaled(dv, 2.0))
    single = assemble_omega(model, dv)
    assert (doubled - (2.0 * single)).max_abs() < 1e-12
    zero = assemble_omega(model, scaled(dv, 0.0))
    assert zero.max_abs() == 0.0


def test_block_table_matches_derivation_order_assembly():
    # second implementation accumulates the derivation term groups instead of
    # transcribing the finished table
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = 1 + trial % 3
        model = random_model(rng, n)
        dv = random_decision_vars(rng, n)
        ours = assemble_omega(model, dv)
        ref = derivation_omega(model, dv)
        diff = max(np.abs(ours.a1 - ref.a1).max(), np.abs(ours.a2 - ref.a2).max())
        scale = max(1.0, ours.max_abs())
        worst = max(worst, diff / scale)
    assert worst < 1e-12


def test_coupling_assembly():
    rng = np.random.default_rng(34)
    r = random_hermitian_pd(rng, 2)
    w = QuatMatrix(rng.normal(size=(2, 2)) + 0j, rng.normal(size=(2, 2)) + 0j)
    dv = dataclasses.replace(random_decision_vars(rng, 2), r1=r, u=w)
    coupled = constraint_matrix(quat_constraints(random_model(rng, 2), dv)[0])
    assert coupled.shape == (4, 4)
    np.testing.assert_allclose(coupled.a1[:2, :2], r.a1, atol=0.0)
    np.testing.assert_allclose(coupled.a1[:2, 2:], w.a1, atol=0.0)
    np.testing.assert_allclose(coupled.a1[2:, :2], w.a1.conj().T, atol=0.0)
    np.testing.assert_allclose(coupled.a1[2:, 2:], r.a1, atol=0.0)


def test_assemble_blocks_validates_placement():
    blk = quat_identity(2)
    with pytest.raises(InputError):
        assemble_blocks(3, 2, {(2, 1): blk})  # below the diagonal
    with pytest.raises(InputError):
        assemble_blocks(3, 2, {(1, 4): blk})  # outside the grid
    with pytest.raises(InputError):
        assemble_blocks(3, 1, {(1, 1): blk})  # wrong block size


def test_constraint_list_covers_all_families():
    rng = np.random.default_rng(35)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    cons = quat_constraints(model, dv)
    assert [c.name for c in cons] == [
        "coupling_r1_u", "coupling_r2_v", "omega", "p1_pd", "p2_pd",
        "q1_pd", "q2_pd", "q3_pd", "q4_pd", "q5_pd", "q6_pd", "r2_pd",
        "m1_pos", "m2_pos", "m3_pos"]


def test_omega_is_a_table_of_55_terms_in_25_blocks():
    # one row per term, in the upper block triangle of 11 x 11; each names a
    # decision matrix or its adjoint, and V enters the second coupling only
    rows = omega_terms(random_model(np.random.default_rng(37), 2))
    assert len(rows) == 55
    assert {row[0] for row in rows} == set(UNIT_BLOCKS)
    assert len(UNIT_BLOCKS) == 25
    assert all(1 <= i <= j <= 11 for (i, j), *_ in rows)
    names = {row[3].removesuffix("*") for row in rows}
    assert names <= set(LAYOUT) - {"v"}


def test_negating_omega_leaves_a_block_that_aliases_a_variable_alone():
    # -Omega negates each row's scale; the (6, 7) block is R2 itself, and
    # listing its negation must not flip R2 for every other constraint
    rng = np.random.default_rng(36)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    assert [row for row in omega_terms(model) if row[0] == (6, 7)] == [
        ((6, 7), 1.0, None, "r2", None)]
    r2 = dv.r2.a1.copy(), dv.r2.a2.copy()
    cons = {c.name: c for c in quat_constraints(model, dv)}
    for part, before in zip((dv.r2.a1, dv.r2.a2), r2):
        np.testing.assert_array_equal(part, before)
    np.testing.assert_array_equal(cons["omega"].blocks[6, 7].a1, -r2[0])
    np.testing.assert_array_equal(cons["omega"].blocks[6, 7].a2, -r2[1])
    np.testing.assert_array_equal(constraint_matrix(cons["coupling_r2_v"]).a1[:2, :2],
                                  r2[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r1_and_p3_are_principal_blocks_of_listed_constraints(n):
    # R1 and P3 need no constraint of their own: each is a principal block of
    # a listed one, so by Cauchy interlacing its least eigenvalue is no
    # smaller than that constraint's
    for trial in range(5):
        rng = np.random.default_rng(40 + 10 * n + trial)
        model = random_model(rng, n)
        dv = random_decision_vars(rng, n)
        cons = {c.name: constraint_matrix(c) for c in quat_constraints(model, dv)}
        assert "r1_pd" not in cons and "p3_pd" not in cons
        for con, first, block in (("coupling_r1_u", 0, dv.r1),
                                  ("omega", 10 * n, dv.p3)):
            whole = cons[con]
            rows = slice(first, first + n)
            np.testing.assert_array_equal(whole.a1[rows, rows], block.a1)
            np.testing.assert_array_equal(whole.a2[rows, rows], block.a2)
            assert (hermitian_eigvals(block)[0] >= hermitian_eigvals(whole)[0]
                    - 1e-12 * max(1.0, whole.max_abs()))


def test_verify_certificate_accepts_solver_output(stable_model, stable_solution):
    result, dv = stable_solution
    report = verify_certificate(stable_model, dv, margin=0.5 * result.margin)
    assert report.valid
    assert report.worst_margin >= 0.5 * result.margin
    assert len(report.scores) == 15
    assert report.worst_margin == min(report.scores.values())


@pytest.mark.parametrize("point", ["certificate", "random"])
def test_each_recheck_score_is_the_least_eigenvalue_of_its_constraint(
        point, stable_model, stable_solution):
    # the score of each constraint, taken from the complex image that the
    # recheck proves, is that constraint's least eigenvalue, here assembled
    # and embedded apart from the recheck at the unscaled variables
    dv = (stable_solution[1] if point == "certificate"
          else random_decision_vars(np.random.default_rng(5), stable_model.n))
    scores = verify_certificate(stable_model, dv, 0.0).scores
    cons = quat_constraints(stable_model, dv)
    assert set(scores) == {con.name for con in cons}
    for con in cons:
        least = hermitian_eigvals(constraint_matrix(con))[0]
        assert scores[con.name] == pytest.approx(least, rel=1e-12, abs=0.0)


def test_verify_certificate_rejects_flipped_certificate(stable_model,
                                                        stable_solution):
    _, dv = stable_solution
    report = verify_certificate(stable_model, scaled(dv, -1.0), margin=1e-9)
    assert not report.valid
    # a flipped certificate violates the positivity constraints outright
    failing = {name for name, eig in report.scores.items() if eig < 0}
    assert "p1_pd" in failing


def test_verify_certificate_reports_a_nan_variable_invalid(stable_model,
                                                          stable_solution):
    # a certificate read back with a NaN entry is invalid, not an
    # eigenvalue failure
    _, dv = stable_solution
    doc = json.loads(json.dumps(dv.to_json()))
    doc["m1"][0] = float("nan")
    report = verify_certificate(stable_model,
                                DecisionVars.from_json(doc, stable_model.n),
                                margin=1e-9)
    assert not report.valid
    assert not np.isfinite(report.worst_margin)
    assert np.isnan(report.scores["m1_pos"])


def test_verify_certificate_enforces_requested_margin(stable_model,
                                                      stable_solution):
    result, dv = stable_solution
    strict = verify_certificate(stable_model, dv, margin=result.margin * 1e6)
    assert not strict.valid
    assert strict.worst_margin < result.margin * 1e6


@pytest.mark.parametrize("source", ["stable", (1, 0.05, 0), (1, 0.05, 1)])
def test_the_recheck_agrees_with_exact_elimination(source, request):
    # the recheck is a proof about the stored matrices: at half the solver's
    # margin, and just below and just above the smallest eigenvalue, it
    # holds exactly where every constraint, assembled in exact arithmetic
    # from the floats of the table and the certificate, is definite by
    # fraction-free elimination
    model = (request.getfixturevalue(f"{source}_model")
             if isinstance(source, str) else shrunk_random_model(*source))
    result, dv = certified_solve(model)
    cons = exact_constraints(model, dv)
    least = verify_certificate(model, dv, 0.0).worst_margin
    for margin in (0.5 * result.margin, least * (1.0 - 1e-3),
                   least * (1.0 + 1e-3)):
        exact = all(exact_positive_definite(*con, floor=margin)
                    for con in cons.values())
        assert exact == (margin < least)
        assert verify_certificate(model, dv, margin).valid == exact


def test_the_recheck_proves_a_certificate_near_the_ends_of_the_float_range(
        stable_model, stable_solution):
    # the variables are divided by a power of two before the assembly, so a
    # certificate scaled by one, 2^1000 or 2^-900, has the same verdict and
    # its scores scaled exactly, with no product leaving the float range
    result, dv = stable_solution
    plain = verify_certificate(stable_model, dv, 0.5 * result.margin)
    assert plain.valid
    for factor in (2.0 ** 1000, 2.0 ** -900):
        big = verify_certificate(stable_model, scaled(dv, factor),
                                 0.5 * result.margin * factor)
        assert big.valid
        assert big.scores == {k: v * factor for k, v in plain.scores.items()}


def multiplying_sum_terms(rows, dv):
    """``sum_terms`` with every scale applied as a product, as the table
    was first summed."""
    blocks = {}
    for key, scale, left, var, right in rows:
        x = getattr(dv, var.rstrip("*"))
        if x is None:
            continue
        x = real_diag(x) if var in DIAG_NAMES else x.H if var.endswith("*") else x
        if left is not None:
            x = x.scale_rows(left) if isinstance(left, np.ndarray) else left @ x
        if right is not None:
            x = x.scale_cols(right) if isinstance(right, np.ndarray) else x @ right
        blocks[key] = blocks[key] + scale * x if key in blocks else scale * x
    return blocks


@pytest.mark.parametrize("source", ["stable", "reference", 1, 2, 3])
def test_unit_scales_skip_their_product_and_change_no_number(
        source, request, monkeypatch):
    # a scale of 1 adds its term as it is and -1 negates it, both exact as
    # the product is: every assembled number and lowered coefficient is the
    # same. Only the sign of a zero part can differ (-x against -1.0 x), and
    # the solver's run on a bundled config is the same to the bit
    if isinstance(source, str):
        model = request.getfixturevalue(f"{source}_model")
    else:
        model = random_model(np.random.default_rng(600 + source), source)
    dv = random_decision_vars(np.random.default_rng(601), model.n)
    runs = []
    for table in (sum_terms, multiplying_sum_terms):
        monkeypatch.setattr(qvnn.lmi, "sum_terms", table)
        sdp = build_sdp(model)
        runs.append(([c.blocks for c in quat_constraints(model, dv)], sdp,
                     solve_feasibility(scale_problem(sdp)[0])
                     if isinstance(source, str) else None))
    (cons, sdp, run), (ref_cons, ref_sdp, ref_run) = runs
    for blocks, ref in zip(cons, ref_cons):
        assert list(blocks) == list(ref)
        for blk, ref_blk in zip(blocks.values(), ref.values()):
            for part, ref_part in ((blk.a1, ref_blk.a1), (blk.a2, ref_blk.a2)):
                np.testing.assert_array_equal(part, ref_part)
    for lmi, ref in zip(sdp.lmis, ref_sdp.lmis, strict=True):
        assert lmi.var.tobytes() == ref.var.tobytes()
        assert lmi.entry.tobytes() == ref.entry.tobytes()
        np.testing.assert_array_equal(lmi.value, ref.value)
    if run is not None:
        assert run.x.tobytes() == ref_run.x.tobytes()
        assert [r.t for r in run.trace] == [r.t for r in ref_run.trace]
