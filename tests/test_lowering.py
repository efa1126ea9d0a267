"""Quaternion criterion -> complex standard-form SDP, stored sparse."""

import numpy as np
import pytest

import qvnn.lowering
import qvnn.sdp
from oracles import lmi_value, part_labels, random_model, unit_images
from qvnn.lmi import (
    DecisionVars,
    assemble_blocks,
    omega_upper_blocks,
    quat_constraints,
)
from qvnn.lowering import build_sdp


def dense(lmi, i):
    """Coefficient matrix A_i of one constraint as a dense array."""
    return lmi.coeffs[[i]].toarray().reshape(lmi.dim, lmi.dim)


@pytest.fixture(scope="module")
def small_system():
    rng = np.random.default_rng(41)
    model = random_model(rng, 1)
    return model, build_sdp(model)


def test_sdp_shape(small_system):
    model, sdp = small_system
    assert sdp.num_vars == DecisionVars.num_scalars(model.n) == 30
    assert len(sdp.lmis) == 17
    by_name = {lmi.name: lmi for lmi in sdp.lmis}
    # complex dimension = 2 rows per quaternion row
    assert by_name["omega"].dim == 22 * model.n
    assert by_name["coupling_r1_u"].dim == 4 * model.n
    assert by_name["p1_pd"].dim == 2 * model.n


def test_every_stage_evaluates_identically(small_system):
    # the affine data must reproduce the direct evaluation at random points
    model, sdp = small_system
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.normal(size=sdp.num_vars)
        dv = DecisionVars.from_vector(x, model.n)
        direct = {c.name: c.matrix for c in quat_constraints(model, dv)}
        for lmi in sdp.lmis:
            np.testing.assert_allclose(
                lmi_value(lmi, x),
                direct[lmi.name].complex_embed(), atol=1e-12)


@pytest.mark.parametrize("source", ["stable", "reference", 1, 2, 3])
def test_rows_equal_the_embedded_assembly(source, request):
    # every stored row is exactly the complex embedding of the assembled
    # constraint at that unit vector, and holds no zeros
    if isinstance(source, int):
        model = random_model(np.random.default_rng(60 + source), source)
    else:
        model = request.getfixturevalue(f"{source}_model")
    sdp = build_sdp(model)
    for lmi in sdp.lmis:
        assert np.all(lmi.coeffs.data != 0.0)
    basis = np.zeros(sdp.num_vars)
    for i in range(sdp.num_vars):
        basis[i] = 1.0
        cons = quat_constraints(model, DecisionVars.from_vector(basis, model.n))
        basis[i] = 0.0
        for lmi, con in zip(sdp.lmis, cons):
            assert lmi.name == con.name
            np.testing.assert_array_equal(
                dense(lmi, i), con.matrix.complex_embed())


def test_lowering_preserves_extreme_eigenvalues():
    rng = np.random.default_rng(43)
    for n in (1, 2):
        model = random_model(rng, n)
        sdp = build_sdp(model)
        x = rng.normal(size=sdp.num_vars)
        dv = DecisionVars.from_vector(x, n)
        direct = {c.name: c.matrix for c in quat_constraints(model, dv)}
        for lmi in sdp.lmis:
            quat_eigs = np.linalg.eigvalsh(direct[lmi.name].complex_embed())
            lowered_eigs = np.linalg.eigvalsh(lmi_value(lmi, x))
            assert lowered_eigs[0] == pytest.approx(quat_eigs[0], abs=1e-10)
            assert lowered_eigs[-1] == pytest.approx(quat_eigs[-1], abs=1e-10)


def test_omega_is_listed_as_its_negation(small_system):
    # every constraint reads "> 0": Omega < 0 is listed as -Omega, exactly,
    # without touching the variables, and the solver evaluates each
    # constraint as it is stored, from one copy of its coefficients
    model, sdp = small_system
    x = np.random.default_rng(44).normal(size=sdp.num_vars)
    dv = DecisionVars.from_vector(x, model.n)
    omega = assemble_blocks(11, model.n, omega_upper_blocks(model, dv))
    listed = {c.name: c.matrix for c in quat_constraints(model, dv)}["omega"]
    np.testing.assert_array_equal(listed.a1, -omega.a1)
    np.testing.assert_array_equal(listed.a2, -omega.a2)
    again = assemble_blocks(11, model.n, omega_upper_blocks(model, dv))
    np.testing.assert_array_equal(again.a1, omega.a1)
    np.testing.assert_array_equal(again.a2, omega.a2)
    for lmi in sdp.lmis:
        block = qvnn.sdp._Block(lmi)
        assert np.shares_memory(block.coeffs_conj_t.data, block.coeffs_conj.data)
        np.testing.assert_allclose(block.evaluate(x), lmi_value(lmi, x),
                                   atol=0.0)


def test_zero_point_gives_zero_matrices(small_system):
    _, sdp = small_system
    zero = np.zeros(sdp.num_vars)
    for lmi in sdp.lmis:
        assert np.max(np.abs(lmi_value(lmi, zero))) == 0.0


def test_coefficients_are_symmetric(small_system):
    _, sdp = small_system
    for lmi in sdp.lmis:
        for i in range(sdp.num_vars):
            a = dense(lmi, i)
            np.testing.assert_array_equal(a, a.conj().T)


def test_var_map_indices_drive_the_right_matrix(small_system):
    model, sdp = small_system
    # the matrix each flat index belongs to, read off the layout's unit images
    labels = part_labels(model.n)
    owner = [labels[np.flatnonzero(row)[0]][0] for row in unit_images(model.n)]
    assert len(owner) == sdp.num_vars
    rng = np.random.default_rng(45)
    picks = rng.choice(sdp.num_vars, size=6, replace=False)
    for idx in picks:
        basis = np.zeros(sdp.num_vars)
        basis[idx] = 1.0
        dv = DecisionVars.from_vector(basis, model.n)
        for name in ("m1", "m2", "m3"):
            arr = np.asarray(getattr(dv, name))
            expect_hot = 1.0 if owner[idx] == name else 0.0
            assert np.max(np.abs(arr)) == expect_hot
        for name in ("p1", "p2", "p3", "q1", "q2", "q3", "q4", "q5", "q6",
                     "r1", "r2", "u", "v", "s1", "s2"):
            mat = getattr(dv, name)
            if owner[idx] == name:
                assert mat.max_abs() > 0.0
            else:
                assert mat.max_abs() == 0.0


def test_build_assembles_the_criterion_once(monkeypatch):
    calls = []

    def counted(model, dv):
        calls.append(dv.m1.shape)
        return quat_constraints(model, dv)

    monkeypatch.setattr(qvnn.lowering, "quat_constraints", counted)
    model = random_model(np.random.default_rng(46), 2)
    build_sdp(model)
    num = DecisionVars.num_scalars(2)
    # one batch: the zero vector, then every unit vector
    assert calls == [(num + 1, 2)]
