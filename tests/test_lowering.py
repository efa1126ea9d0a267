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
    shrunk_random_model,
    unit_images,
)
from qvnn.errors import InputError
from qvnn.lmi import (
    LAYOUT,
    DecisionVars,
    assemble_blocks,
    omega_terms,
    quat_constraints,
    sum_terms,
)
from qvnn.lowering import build_sdp
from qvnn.qmatrix import QuatMatrix
from qvnn.sdp import SolverConfig, scale_problem, solve_feasibility


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


@pytest.mark.parametrize("source", ["stable", "reference", 1, 2, 3,
                                    "small couplings", 6])
def test_rows_equal_the_embedded_assembly(source, request):
    # the stored top rows of every coefficient are exactly those of the
    # complex embedding of the assembled constraint at that unit vector,
    # and hold no zeros. With A = B = 0.01 I many entries of the term images
    # vanish; at n = 6 the first and last scalar of each matrix are checked
    if source == "small couplings":
        small = QuatMatrix.from_real(0.01 * np.eye(2))
        model = dataclasses.replace(random_model(np.random.default_rng(62), 2),
                                    a_mat=small, b_mat=small)
    elif source == 6:
        model = shrunk_random_model(6, 0.05, 1)
    elif isinstance(source, int):
        model = random_model(np.random.default_rng(60 + source), source)
    else:
        model = request.getfixturevalue(f"{source}_model")
    sdp = build_sdp(model)
    for lmi in sdp.lmis:
        assert np.all(lmi.value != 0.0)
    scalars = range(sdp.num_vars)
    if model.n == 6:
        sizes = [DecisionVars.size(name, 6) for name in LAYOUT]
        ends = np.cumsum(sizes)
        scalars = sorted({*(ends - sizes), *(ends - 1)})
    basis = np.zeros(sdp.num_vars)
    for i in scalars:
        basis[i] = 1.0
        cons = quat_constraints(model, DecisionVars.from_vector(basis, model.n))
        basis[i] = 0.0
        for lmi, con in zip(sdp.lmis, cons, strict=True):
            assert lmi.name == con.name
            half = lmi.dim // 2
            top = np.zeros(half * lmi.dim, dtype=complex)
            top[lmi.entry[lmi.var == i]] = lmi.value[lmi.var == i]
            np.testing.assert_array_equal(top.reshape(half, lmi.dim),
                                          con.matrix.complex_embed()[:half])


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
    omega = assemble_blocks(11, model.n, sum_terms(omega_terms(model), dv))
    listed = {c.name: c.matrix for c in quat_constraints(model, dv)}["omega"]
    np.testing.assert_array_equal(listed.a1, -omega.a1)
    np.testing.assert_array_equal(listed.a2, -omega.a2)
    again = assemble_blocks(11, model.n, sum_terms(omega_terms(model), dv))
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
    # one evaluation per decision matrix, in layout order, each holding
    # that matrix alone, at exactly as many unit images as it has scalars
    calls = []

    def counted(model, dv):
        (name,) = [f for f in LAYOUT if getattr(dv, f) is not None]
        images = getattr(dv, name)
        calls.append((name, len(getattr(images, "a1", images))))
        return quat_constraints(model, dv)

    monkeypatch.setattr(qvnn.lowering, "quat_constraints", counted)
    build_sdp(random_model(np.random.default_rng(46), 2))
    assert calls == [(name, DecisionVars.size(name, 2)) for name in LAYOUT]


def test_memory_refusal_counts_no_more_than_the_lowering_holds(monkeypatch):
    # the size checked against physical memory is a lower bound of what
    # certify allocates, the lowering and one solver iteration, so memory
    # that held them never refuses the build
    model = random_model(np.random.default_rng(46), 2)
    tracemalloc.start()
    try:
        scaled, _ = scale_problem(build_sdp(model))
        solve_feasibility(scaled, SolverConfig(max_outer_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: peak)
    assert build_sdp(model).num_vars == DecisionVars.num_scalars(2)
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: 0)
    with pytest.raises(InputError, match="physical memory"):
        build_sdp(model)


def test_memory_refusal_is_the_schur_complement_alone(monkeypatch):
    # certify holds the Schur complement and the copy its solve factors,
    # 16 (m + 1)^2 bytes: exactly that much memory builds, and a byte less
    # refuses the model before the criterion is evaluated
    model = random_model(np.random.default_rng(46), 2)
    need = 16 * (DecisionVars.num_scalars(2) + 1) ** 2
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: need)
    assert build_sdp(model).num_vars == DecisionVars.num_scalars(2)

    def no_build(*args):
        raise AssertionError("the criterion was built before its size was "
                             "checked")

    monkeypatch.setattr(qvnn.lowering, "quat_constraints", no_build)
    monkeypatch.setattr(qvnn.lowering, "physical_memory", lambda: need - 1)
    with pytest.raises(InputError, match="physical memory"):
        build_sdp(model)
