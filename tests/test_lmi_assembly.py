"""Criterion assembly: decision variables, block table, certificate checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assemble_omega,
    derivation_omega,
    part_labels,
    quat_identity,
    random_decision_vars,
    random_hermitian_pd,
    random_model,
    real_parts,
    scaled,
    to_vector,
    unit_images,
)
from qvnn.errors import ShapeError
from qvnn.lmi import (
    DIAG_NAMES,
    GENERAL_NAMES,
    HERMITIAN_NAMES,
    OMEGA_UPPER_INDICES,
    DecisionVars,
    assemble_blocks,
    omega_upper_blocks,
    quat_constraints,
    verify_certificate,
)
from qvnn.model import DelaySpec, NetworkModel
from qvnn.qmatrix import HermitianQuatMatrix, QuatMatrix


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
    (5, 5): 0.0, (5, 6): 0.0, (5, 7): 0.0,
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
    with pytest.raises(ShapeError):
        DecisionVars.from_vector(np.zeros(29), 1)


def test_unit_point_block_values():
    blocks = omega_upper_blocks(unit_model(), unit_vars())
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
    blocks = omega_upper_blocks(model, dv)
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
    authored = set(OMEGA_UPPER_INDICES)
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
    coupled = quat_constraints(random_model(rng, 2), dv)[0].matrix
    assert coupled.shape == (4, 4)
    np.testing.assert_allclose(coupled.a1[:2, :2], r.a1, atol=0.0)
    np.testing.assert_allclose(coupled.a1[:2, 2:], w.a1, atol=0.0)
    np.testing.assert_allclose(coupled.a1[2:, :2], w.a1.conj().T, atol=0.0)
    np.testing.assert_allclose(coupled.a1[2:, 2:], r.a1, atol=0.0)


def test_assemble_blocks_validates_placement():
    blk = quat_identity(2)
    with pytest.raises(ShapeError):
        assemble_blocks(3, 2, {(2, 1): blk})  # below the diagonal
    with pytest.raises(ShapeError):
        assemble_blocks(3, 2, {(1, 4): blk})  # outside the grid
    with pytest.raises(ShapeError):
        assemble_blocks(3, 1, {(1, 1): blk})  # wrong block size


def test_constraint_list_covers_all_families():
    rng = np.random.default_rng(35)
    model = random_model(rng, 2)
    dv = random_decision_vars(rng, 2)
    cons = quat_constraints(model, dv)
    names = [c.name for c in cons]
    assert names[:3] == ["coupling_r1_u", "coupling_r2_v", "omega"]
    assert set(names[3:]) == {f"{n}_pd" for n in HERMITIAN_NAMES} \
        | {f"{n}_pos" for n in DIAG_NAMES}


def test_verify_certificate_accepts_solver_output(stable_model, stable_solution):
    result, dv = stable_solution
    report = verify_certificate(stable_model, dv, margin=0.5 * result.margin)
    assert report.valid
    assert report.worst_margin >= 0.5 * result.margin
    assert len(report.scores) == 17


def test_verify_certificate_rejects_flipped_certificate(stable_model,
                                                        stable_solution):
    _, dv = stable_solution
    report = verify_certificate(stable_model, scaled(dv, -1.0), margin=1e-9)
    assert not report.valid
    # a flipped certificate violates the positivity constraints outright
    failing = {s.name for s in report.scores if s.margin < 0}
    assert "p1_pd" in failing


def test_verify_certificate_enforces_requested_margin(stable_model,
                                                      stable_solution):
    result, dv = stable_solution
    strict = verify_certificate(stable_model, dv, margin=result.margin * 1e6)
    assert not strict.valid
    assert strict.worst_margin < strict.required_margin
