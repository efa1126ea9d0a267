"""Integral and reciprocally convex inequality oracles."""

import numpy as np
import pytest
from scipy.integrate import simpson

from oracles import (
    RcInstance,
    VectorPath,
    jensen_gap,
    quat_identity,
    quat_zeros,
    random_hermitian_pd,
    random_path,
    random_rc_instance,
    rc_gap,
    xi_convexity_violation,
)
from qvnn.errors import InputError
from qvnn.qmatrix import HermitianQuatMatrix, QuatMatrix, mat_vec, qv_embed


def identity_weight(n=1):
    return HermitianQuatMatrix(np.eye(n, dtype=complex), np.zeros((n, n)))


# ---- integral inequality ---------------------------------------------------------


def test_linear_path_gap_is_one_twelfth():
    s = np.linspace(0.0, 1.0, 101)
    samples = np.zeros((101, 2, 1), dtype=complex)
    samples[:, 0, 0] = s
    path = VectorPath(a=0.0, b=1.0, samples=samples)
    assert jensen_gap(path, identity_weight()) == pytest.approx(1.0 / 12.0, abs=1e-6)


def test_constant_path_attains_equality():
    samples = np.tile(np.array([[0.4 + 0.7j], [-0.2 + 0.9j]]), (51, 1, 1))
    path = VectorPath(a=-1.0, b=2.0, samples=samples)
    rng = np.random.default_rng(2)
    for n_try in range(5):
        m = random_hermitian_pd(rng, 1)
        assert abs(jensen_gap(path, m)) <= 1e-10


def test_random_paths_never_go_negative():
    rng = np.random.default_rng(17)
    worst = np.inf
    for seed in range(100):
        n = int(rng.integers(1, 4))
        path = random_path(n, seed=seed, num_samples=int(rng.integers(21, 160)))
        m = random_hermitian_pd(rng, n)
        worst = min(worst, jensen_gap(path, m))
    assert worst >= -1e-9
    assert worst < np.inf


def test_zero_j_part_matches_complex_arithmetic():
    # with vanishing second components the oracle must reduce to plain
    # complex-vector Cauchy-Schwarz, computed here independently
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        num = int(rng.integers(21, 81)) * 2 + 1
        z = rng.normal(size=(num, n)) + 1j * rng.normal(size=(num, n))
        samples = np.zeros((num, 2, n), dtype=complex)
        samples[:, 0, :] = z
        a, b = -0.3, 1.9
        path = VectorPath(a=a, b=b, samples=samples)
        base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m1 = base @ np.conj(base.T) + 0.4 * np.eye(n)
        m = HermitianQuatMatrix(m1, np.zeros((n, n)))
        dx = (b - a) / (num - 1)
        pointwise = np.einsum("si,ij,sj->s", np.conj(z), m1, z).real
        integral = simpson(z, dx=dx, axis=0)
        expected = ((b - a) * float(simpson(pointwise, dx=dx))
                    - float((np.conj(integral) @ m1 @ integral).real))
        assert jensen_gap(path, m) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("num", [2, 3, 4, 5, 40, 41, 160])
def test_gap_uses_scipy_simpson_for_odd_and_even_counts(num):
    rng = np.random.default_rng(num)
    path = random_path(2, seed=num, num_samples=num)
    m = random_hermitian_pd(rng, 2)
    emb, chi = qv_embed(path.samples), m.complex_embed()
    dx = (path.b - path.a) / (num - 1)
    pointwise = np.einsum("si,ij,sj->s", np.conj(emb), chi, emb).real
    integral = simpson(emb, dx=dx, axis=0)
    expected = ((path.b - path.a) * float(simpson(pointwise, dx=dx))
                - float((np.conj(integral) @ chi @ integral).real))
    assert jensen_gap(path, m) == pytest.approx(expected, abs=1e-10)


def test_weight_matrix_must_be_positive_definite():
    path = random_path(2, seed=1)
    bad = HermitianQuatMatrix(np.diag([1.0, -0.5]).astype(complex),
                              np.zeros((2, 2)))
    with pytest.raises(InputError):
        jensen_gap(path, bad)
    with pytest.raises(InputError):
        jensen_gap(path, identity_weight(3))  # dimension mismatch


def test_path_validation():
    good = np.zeros((5, 2, 1), dtype=complex)
    with pytest.raises(InputError):
        VectorPath(a=1.0, b=1.0, samples=good)
    with pytest.raises(InputError):
        VectorPath(a=0.0, b=1.0, samples=np.zeros((5, 3, 1)))
    with pytest.raises(InputError):
        VectorPath(a=0.0, b=1.0, samples=np.zeros((1, 2, 1)))
    bad = good.copy()
    bad[2, 0, 0] = np.nan
    with pytest.raises(InputError):
        VectorPath(a=0.0, b=1.0, samples=bad)


# ---- reciprocally convex bound ------------------------------------------------------


def test_equal_factor_instances_attain_equality():
    for seed in range(10):
        inst = random_rc_instance(n=2, m=3, seed=seed, equality_case=True)
        assert abs(rc_gap(inst)) <= 1e-8


def test_schur_sampled_instances_never_go_negative():
    worst = np.inf
    rng = np.random.default_rng(31)
    for seed in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        inst = random_rc_instance(n=n, m=m, seed=seed)
        worst = min(worst, rc_gap(inst))
    assert worst >= -1e-9
    assert worst < np.inf


def test_split_form_is_convex_on_the_grid():
    for seed in range(25):
        inst = random_rc_instance(n=2, m=2, seed=seed)
        assert xi_convexity_violation(inst) >= -1e-12


def test_alpha_grid_spans_the_open_interval():
    inst = random_rc_instance(n=1, m=1, seed=0)
    grid = inst.alpha_grid()
    assert grid[0] > 0.0
    assert grid[-1] < 1.0
    assert np.any(np.abs(grid - 0.5) < 1e-12)


def test_oversized_coupling_is_rejected():
    p = identity_weight(2)
    big = QuatMatrix.from_real(3.0 * np.eye(2))
    w = quat_identity(2)
    xi = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InputError):
        RcInstance(xi=xi, w1=w, w2=w, p=p, x_coupling=big)


def test_rc_instance_shape_validation():
    p = identity_weight(2)
    x = quat_zeros(2)
    w = quat_identity(2)
    with pytest.raises(InputError):
        RcInstance(xi=np.zeros((2, 3), dtype=complex), w1=w, w2=w,
                   p=p, x_coupling=x)
    with pytest.raises(InputError):
        RcInstance(xi=np.zeros((2, 2), dtype=complex), w1=w,
                   w2=quat_identity(3), p=p, x_coupling=x)
    with pytest.raises(InputError):
        RcInstance(xi=np.zeros((2, 2), dtype=complex), w1=w, w2=w,
                   p=p, x_coupling=quat_zeros(3))


def test_zero_j_part_rc_matches_complex_arithmetic():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p1 = base @ np.conj(base.T) + 0.5 * np.eye(n)
        c = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        x1 = c * p1
        w1c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        w2c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        xi1 = rng.normal(size=m) + 1j * rng.normal(size=m)
        xi = np.zeros((2, m), dtype=complex)
        xi[0] = xi1
        zero_n = np.zeros((n, n))
        zero_nm = np.zeros((n, m))
        inst = RcInstance(
            xi=xi,
            w1=QuatMatrix(w1c, zero_nm), w2=QuatMatrix(w2c, zero_nm),
            p=HermitianQuatMatrix(p1, zero_n),
            x_coupling=QuatMatrix(x1, zero_n))
        y1 = w1c @ xi1
        y2 = w2c @ xi1
        q1 = float((np.conj(y1) @ p1 @ y1).real)
        q2 = float((np.conj(y2) @ p1 @ y2).real)
        alphas = inst.alpha_grid()
        lhs = float(np.min(q1 / alphas + q2 / (1.0 - alphas)))
        blk = np.block([[p1, x1], [np.conj(x1.T), p1]])
        stacked = np.concatenate([y1, y2])
        rhs = float((np.conj(stacked) @ blk @ stacked).real)
        assert rc_gap(inst) == pytest.approx(lhs - rhs, abs=1e-10)


def test_quaternion_matvec_consistency_inside_rc():
    # the gap must be invariant under evaluating the W action beforehand
    inst = random_rc_instance(n=2, m=3, seed=7)
    y1 = mat_vec(inst.w1, inst.xi)
    y2 = mat_vec(inst.w2, inst.xi)
    eye_m = quat_identity(2)
    direct = RcInstance(xi=np.zeros((2, 2), dtype=complex), w1=eye_m,
                        w2=eye_m, p=inst.p, x_coupling=inst.x_coupling)
    # re-posed with the images as two fresh xi vectors through identity W:
    # split into the pieces rc_gap combines and recombine them by hand
    p_chi = inst.p.complex_embed()

    def form(pair):
        emb = np.concatenate([pair[0], np.conj(pair[1])])
        return float((np.conj(emb) @ p_chi @ emb).real)

    alphas = inst.alpha_grid()
    lhs = float(np.min(form(y1) / alphas + form(y2) / (1.0 - alphas)))
    assert rc_gap(inst) <= lhs + 1e-12
    assert direct.alpha_grid().shape == alphas.shape


def test_random_generator_respects_equality_flag():
    eq = random_rc_instance(n=2, m=2, seed=3, equality_case=True)
    assert eq.w1.a1 is not eq.w2.a1 or eq.w1 is eq.w2
    np.testing.assert_array_equal(eq.w1.a1, eq.w2.a1)
    np.testing.assert_array_equal(eq.p.a1, eq.x_coupling.a1)
    gen = random_rc_instance(n=2, m=2, seed=3)
    assert np.max(np.abs(gen.w1.a1 - gen.w2.a1)) > 1e-12
