"""Quaternion matrices, embeddings, and vector helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Quaternion,
    brute_product,
    definiteness,
    entry,
    exact_positive_definite,
    from_entries,
    quadform,
    qv_conj_dot,
    hermitian_sqrt,
    quat_identity,
    quat_zeros,
    qv_modulus,
    random_hermitian,
    random_hermitian_pd,
    random_quat_matrix,
    spectral_norm,
)
from qvnn.errors import InputError
from qvnn.qmatrix import (
    HermitianQuatMatrix,
    QuatMatrix,
    hermitian_eigvals,
    mat_vec,
    proved_positive_definite,
    qmat_from_json,
    qmat_to_json,
    qv_components,
    qv_embed,
    qv_from_components,
    real_diag,
)

seeds = st.integers(min_value=0, max_value=10_000)


# ---- construction and validation ---------------------------------------------


def test_component_round_trip():
    rng = np.random.default_rng(0)
    w, x, y, z = rng.normal(size=(4, 3, 2))
    m = QuatMatrix(w + 1j * x, y + 1j * z)
    np.testing.assert_allclose(m.a1.real, w)
    np.testing.assert_allclose(m.a1.imag, x)
    np.testing.assert_allclose(m.a2.real, y)
    np.testing.assert_allclose(m.a2.imag, z)


def test_entries_round_trip():
    q = Quaternion(1.0, 2.0, -0.5, 0.25)
    p = Quaternion(0.0, -1.0, 3.0, 1.0)
    m = from_entries([[q, p]])
    assert m.shape == (1, 2)
    assert entry(m, 0, 0).is_close(q, tol=0.0)
    assert entry(m, 0, 1).is_close(p, tol=0.0)


def test_shape_mismatch_rejected():
    with pytest.raises(InputError):
        QuatMatrix(np.zeros((2, 2), dtype=complex), np.zeros((2, 3), dtype=complex))
    a = quat_zeros(2, 3)
    b = quat_zeros(2, 3)
    with pytest.raises(InputError):
        a @ b
    with pytest.raises(InputError):
        a + quat_zeros(3, 2)


def test_identity_multiplication():
    rng = np.random.default_rng(3)
    m = random_quat_matrix(rng, 4)
    eye = quat_identity(4)
    assert (eye @ m - m).max_abs() == 0.0
    assert (m @ eye - m).max_abs() == 0.0


# ---- products against the entrywise oracle ------------------------------------


def test_matmul_matches_entrywise_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        rows = 1 + trial % 5
        inner = 1 + (trial // 5) % 5
        cols = 1 + (trial // 25) % 4
        p = random_quat_matrix(rng, rows, inner)
        q = random_quat_matrix(rng, inner, cols)
        fast = p @ q
        slow = brute_product(p, q)
        assert (fast - slow).max_abs() < 1e-12


def test_conj_transpose_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(5)
    p = random_quat_matrix(rng, 3, 4)
    q = random_quat_matrix(rng, 4, 2)
    assert (p.H.H - p).max_abs() == 0.0
    assert ((p @ q).H - q.H @ p.H).max_abs() < 1e-13


# ---- stacks of matrices on leading batch axes ---------------------------------


def random_stack(rng, *shape):
    return QuatMatrix(*(rng.normal(size=(2,) + shape)
                        + 1j * rng.normal(size=(2,) + shape)))


def test_stacked_operations_match_per_slice_results():
    rng = np.random.default_rng(23)
    k, n = 5, 3
    p, q = random_stack(rng, k, n, n), random_stack(rng, k, n, n)
    shared = random_quat_matrix(rng, n)
    d = rng.uniform(0.5, 2.0, size=n)

    def ops(p, q):
        s = p + p.H
        return {"matmul": p @ q, "shared": p @ shared, "H": p.H, "add": p + q,
                "scale_rows": p.scale_rows(d), "scale_cols": p.scale_cols(d),
                "hermitian": HermitianQuatMatrix(s.a1, s.a2)}

    stacked = ops(p, q)
    assert stacked["matmul"].shape == (n, n)
    for i in range(k):
        single = ops(QuatMatrix(p.a1[i], p.a2[i]), QuatMatrix(q.a1[i], q.a2[i]))
        for name, m in single.items():
            np.testing.assert_array_equal(stacked[name].a1[i], m.a1, err_msg=name)
            np.testing.assert_array_equal(stacked[name].a2[i], m.a2, err_msg=name)
        np.testing.assert_array_equal(p.complex_embed()[i],
                                      QuatMatrix(p.a1[i], p.a2[i]).complex_embed())


def test_stacked_hermitian_checks_every_slice():
    rng = np.random.default_rng(24)
    h = random_hermitian(rng, 3)
    a1 = np.stack([h.a1, h.a1, h.a1])
    a1[1, 0, 2] += 0.5               # only the middle slice is broken
    with pytest.raises(InputError):
        HermitianQuatMatrix(a1, np.stack([h.a2] * 3))


# ---- complex and real embeddings ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_complex_embedding_is_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    p = random_quat_matrix(rng, n)
    q = random_quat_matrix(rng, n)
    lhs = (p @ q).complex_embed()
    rhs = p.complex_embed() @ q.complex_embed()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_complex_embedding_respects_star(seed, n):
    rng = np.random.default_rng(seed)
    p = random_quat_matrix(rng, n)
    np.testing.assert_allclose(p.H.complex_embed(),
                               p.complex_embed().conj().T, atol=0.0)


def test_embedding_spectra_pair_up():
    # each quaternion eigenvalue appears twice in the complex embedding and
    # four times in the real image [[Re, -Im], [Im, Re]] of that embedding
    rng = np.random.default_rng(12)
    for _ in range(20):
        h = random_hermitian(rng, 4)
        chi = h.complex_embed()
        complex_eigs = np.sort(np.linalg.eigvalsh(chi))
        np.testing.assert_allclose(complex_eigs[0::2], complex_eigs[1::2],
                                   atol=1e-8)
        real_eigs = np.sort(np.linalg.eigvalsh(
            np.block([[chi.real, -chi.imag], [chi.imag, chi.real]])))
        np.testing.assert_allclose(real_eigs[0::2], real_eigs[1::2], atol=1e-8)
        np.testing.assert_allclose(real_eigs[0::2], complex_eigs, atol=1e-8)
        eigs = np.sort(hermitian_eigvals(h))
        np.testing.assert_allclose(eigs, complex_eigs, atol=1e-8)
        np.testing.assert_allclose(eigs[0::2], real_eigs[0::4], atol=1e-8)


# ---- Hermitian structure -------------------------------------------------------


def test_hermitian_requires_structure():
    a1 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)  # not Hermitian
    a2 = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InputError):
        HermitianQuatMatrix(a1, a2)


def test_hermitian_repairs_roundoff():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 3)
    a1 = h.a1.copy()
    a1[0, 1] += 1e-14  # below the repair tolerance
    fixed = HermitianQuatMatrix(a1, h.a2.copy())
    assert fixed.hermitian_violation() == 0.0


def test_from_real_diag():
    h = real_diag(np.array([1.0, -2.0]))
    np.testing.assert_array_equal(h.a1, np.diag([1.0 + 0j, -2.0 + 0j]))
    np.testing.assert_array_equal(h.a2, 0.0)
    assert not np.signbit(h.a1.real[~np.eye(2, dtype=bool)]).any()
    # a stack of diagonals gives the stack of diagonal matrices
    d = np.array([[1.0, -2.0], [3.0, 0.5]])
    stack = real_diag(d)
    assert stack.shape == (2, 2) and stack.a1.shape == (2, 2, 2)
    for k in range(2):
        np.testing.assert_array_equal(stack.a1[k], np.diag(d[k]).astype(complex))


def test_definiteness_matches_quadratic_form_signs():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = 1 + trial % 4
        if trial % 2 == 0:
            h = random_hermitian_pd(rng, n)
        else:
            h = random_hermitian(rng, n)
        report = definiteness(h)
        samples = [random_qv(rng, n) for _ in range(200)]
        values = [quadform(h, v) for v in samples]
        if report.kind == "positive_definite":
            assert min(values) > 0.0
        elif report.kind == "negative_definite":
            assert max(values) < 0.0
        elif report.kind == "indefinite":
            assert report.min_eig < 0.0 < report.max_eig
        # every sampled value obeys the Rayleigh bounds of the classification
        for v, val in zip(samples, values):
            norm_sq = float(np.sum(np.abs(v) ** 2))
            assert report.min_eig * norm_sq - 1e-9 <= val
            assert val <= report.max_eig * norm_sq + 1e-9


def test_hermitian_sqrt_round_trip():
    rng = np.random.default_rng(13)
    h = random_hermitian_pd(rng, 4)
    root = hermitian_sqrt(h)
    assert root.hermitian_violation() == 0.0
    assert ((root @ root) - h).max_abs() < 1e-10


def test_spectral_norm_matches_embedding():
    rng = np.random.default_rng(14)
    m = random_quat_matrix(rng, 3, 5)
    expected = np.linalg.norm(m.complex_embed(), ord=2)
    assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)


# ---- quaternion vectors --------------------------------------------------------


def random_qv(rng, n):
    return rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))


def test_vector_component_round_trip():
    rng = np.random.default_rng(15)
    comp = rng.normal(size=(3, 4))
    v = qv_from_components(comp)
    np.testing.assert_allclose(qv_components(v), comp, atol=0.0)


def test_mat_vec_matches_entrywise():
    rng = np.random.default_rng(16)
    m = random_quat_matrix(rng, 3)
    v = random_qv(rng, 3)
    result = mat_vec(m, v)
    for r in range(3):
        acc = Quaternion(0.0, 0.0, 0.0, 0.0)
        for c in range(3):
            acc = acc + entry(m, r, c) * Quaternion.from_pair(v[0, c], v[1, c])
        got = Quaternion.from_pair(result[0, r], result[1, r])
        assert got.is_close(acc, tol=1e-12)


def test_conj_dot_matches_entrywise():
    rng = np.random.default_rng(17)
    u = random_qv(rng, 4)
    v = random_qv(rng, 4)
    acc = Quaternion(0.0, 0.0, 0.0, 0.0)
    for c in range(4):
        ui = Quaternion.from_pair(u[0, c], u[1, c])
        vi = Quaternion.from_pair(v[0, c], v[1, c])
        acc = acc + ui.conjugate() * vi
    assert qv_conj_dot(u, v).is_close(acc, tol=1e-12)


def test_modulus_per_entry():
    v = qv_from_components(np.array([[1.0, 2.0, 2.0, 4.0], [3.0, 0.0, 4.0, 0.0]]))
    np.testing.assert_allclose(qv_modulus(v), [5.0, 5.0])


def test_quadform_matches_embedded_form():
    rng = np.random.default_rng(18)
    h = random_hermitian(rng, 3)
    v = random_qv(rng, 3)
    embedded = qv_embed(v)
    expected = float(np.real(embedded.conj() @ h.complex_embed() @ embedded))
    assert quadform(h, v) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_quadform_sign_consistency():
    rng = np.random.default_rng(19)
    h = random_hermitian_pd(rng, 2)
    for _ in range(50):
        v = random_qv(rng, 2)
        assert quadform(h, v) > 0.0
    assert quadform(h, np.zeros((2, 2), dtype=complex)) == 0.0


# ---- row/column scaling and serialization --------------------------------------


def test_diagonal_scaling_matches_matmul():
    rng = np.random.default_rng(20)
    m = random_quat_matrix(rng, 3)
    d = rng.uniform(0.5, 2.0, size=3)
    dm = QuatMatrix.from_real(np.diag(d))
    assert (m.scale_rows(d) - dm @ m).max_abs() < 1e-14
    assert (m.scale_cols(d) - m @ dm).max_abs() < 1e-14


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(22)
    m = random_quat_matrix(rng, 2, 3)
    again = qmat_from_json(qmat_to_json(m))
    assert (m - again).max_abs() == 0.0


def test_json_rejects_malformed_payloads():
    with pytest.raises(InputError):
        qmat_from_json({"w": [[1.0]]})  # missing components
    with pytest.raises(InputError):
        qmat_from_json({"w": [[1.0]], "x": [[1.0]], "y": [[1.0]],
                        "z": [[1.0, 2.0]]})  # ragged
    with pytest.raises(InputError):
        qmat_from_json("not a dict")


# ---- verified definiteness -----------------------------------------------------


def hermitian_with_least(rng, d: int, least: float) -> np.ndarray:
    """A random complex Hermitian matrix of side d whose eigenvalues are
    ``least`` and values in [1, 2], up to rounding."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = np.append(least, rng.uniform(1.0, 2.0, size=d - 1))
    h = (q * lam) @ q.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_the_shifted_cholesky_agrees_with_exact_elimination(d):
    # 1e-6 from the floor, far beyond the shift and the rounding of the
    # matrix, the proof and fraction-free elimination on its exact floats
    # agree; a stack is proved only when every member is
    rng = np.random.default_rng(70 + d)
    for floor in (0.0, 0.25, -0.5):
        for offset in (1e-6, -1e-6):
            h = hermitian_with_least(rng, d, floor + offset)
            exact = exact_positive_definite(h.real, h.imag, floor)
            assert exact == (offset > 0.0)
            assert proved_positive_definite(h, floor) == exact
        # a real symmetric matrix is proved as it is, without its real image
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        for offset in (1e-6, -1e-6):
            lam = np.append(floor + offset, rng.uniform(1.0, 2.0, size=d - 1))
            h = (q * lam) @ q.T
            h = (h + h.T) / 2.0
            exact = exact_positive_definite(h, np.zeros_like(h), floor)
            assert exact == (offset > 0.0)
            assert proved_positive_definite(h, floor) == exact
    good, bad = (hermitian_with_least(rng, d, v) for v in (0.5, -0.5))
    assert proved_positive_definite(np.stack([good, good]))
    assert not proved_positive_definite(np.stack([good, bad]))
    assert proved_positive_definite(np.stack([good, bad]), np.array([0.0, -1.0]))


def test_a_matrix_definite_by_less_than_its_shift_is_not_proved():
    # diag(delta, 1e6): the shift is about 2 gamma_5 times the trace of the
    # real image, 2.2e-9, so 1e-12 is definite but not proved and 1e-6 is
    # both; a matrix with an entry that is not finite is never proved
    for delta, proved in ((1e-12, False), (1e-6, True)):
        h = np.diag([delta, 1e6]).astype(complex)
        assert exact_positive_definite(h.real, h.imag)
        assert proved_positive_definite(h) is proved
    assert not proved_positive_definite(np.array([[1.0, np.nan], [np.nan, 1.0]]))
