"""Quaternion criterion -> complex standard-form SDP, stored as entries."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import qvnn.lowering
from oracles import (
    coeff_stack,
    lmi_value,
    part_labels,
    random_model,
    unit_images,
)
from qvnn.errors import InputError
from qvnn.lmi import (
    DecisionVars,
    assemble_blocks,
    omega_upper_blocks,
    quat_constraints,
)
from qvnn.lowering import build_sdp


@pytest.fixture(scope="module")
def small_system():
    rng = np.random.default_rng(41)
    model = random_model(rng, 1)
    return model, build_sdp(model)


def test_sdp_shape(small_system):
    model, sdp = small_system
    assert sdp.num_vars == DecisionVars.num_scalars(model.n) == 30
    assert len(sdp.lmis) == 15
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
        assert np.all(lmi.value != 0.0)
    basis = np.zeros(sdp.num_vars)
    for i in range(sdp.num_vars):
        basis[i] = 1.0
        cons = quat_constraints(model, DecisionVars.from_vector(basis, model.n))
        basis[i] = 0.0
        for lmi, con in zip(sdp.lmis, cons):
            assert lmi.name == con.name
            np.testing.assert_array_equal(
                coeff_stack(lmi, sdp.num_vars)[i], con.matrix.complex_embed())


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
    # without touching the variables
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


def test_build_names_coefficients_that_are_not_finite(stable_model):
    # C = 1e200 squares past the float range in Omega's (1, 11) block, and
    # inf * 0 at the zero vector is NaN: the cause reported is the overflow
    c_diag = stable_model.c_diag.copy()
    c_diag[0] = 1e200
    model = dataclasses.replace(stable_model, c_diag=c_diag)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match="omega has coefficients that "
                                             "are not finite"):
            build_sdp(model)


def test_zero_point_gives_zero_matrices(small_system):
    _, sdp = small_system
    zero = np.zeros(sdp.num_vars)
    for lmi in sdp.lmis:
        assert np.max(np.abs(lmi_value(lmi, zero))) == 0.0


def test_coefficients_are_symmetric(small_system):
    _, sdp = small_system
    for lmi in sdp.lmis:
        for a in coeff_stack(lmi, sdp.num_vars):
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


@pytest.mark.parametrize("budget", [1, 2 ** 15])
@pytest.mark.parametrize("source", ["stable", "reference", 1, 2, 3])
def test_runs_of_unit_vectors_lower_as_one_batch(source, budget, request,
                                                  monkeypatch):
    # a budget of one byte evaluates one unit vector per run, 2^15 bytes a
    # few, the last run shorter: every stored entry is bit for bit the one
    # of the single batch, in the same order
    if isinstance(source, int):
        model = random_model(np.random.default_rng(60 + source), source)
    else:
        model = request.getfixturevalue(f"{source}_model")
    whole = build_sdp(model)
    calls = []

    def counted(model, dv):
        calls.append(len(dv.m1))
        return quat_constraints(model, dv)

    monkeypatch.setattr(qvnn.lowering, "quat_constraints", counted)
    monkeypatch.setattr(qvnn.lowering, "_CHUNK_BYTES", budget)
    runs = build_sdp(model)
    assert len(calls) > 1 and sum(calls) == whole.num_vars + len(calls)
    assert runs.num_vars == whole.num_vars
    for a, b in zip(runs.lmis, whole.lmis, strict=True):
        assert (a.name, a.dim) == (b.name, b.dim)
        for field in ("var", "entry", "value"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                          strict=True)


def test_memory_refusal_counts_no_more_than_the_lowering_holds(monkeypatch):
    # the size checked against physical memory is a lower bound of what the
    # lowering allocates, so memory that held one build never refuses it
    model = random_model(np.random.default_rng(46), 2)
    tracemalloc.start()
    try:
        build_sdp(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: peak)
    assert build_sdp(model).num_vars == DecisionVars.num_scalars(2)
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: 0)
    with pytest.raises(InputError, match="physical memory"):
        build_sdp(model)
