"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
check. Each test states its tolerance inline; failures carry the measured
numbers so a red line is directly actionable.
"""

import time

import numpy as np
import pytest

from conftest import FEASIBLE_RUNS, certified_solve
from oracles import (
    Quaternion,
    VectorPath,
    affine_lmi,
    assemble_omega,
    brute_product,
    definiteness,
    derivation_omega,
    hermitian_eigvals,
    jensen_gap,
    random_decision_vars,
    random_hermitian_pd,
    random_model,
    random_path,
    random_quat_matrix,
    random_rc_instance,
    rc_gap,
)
from qvnn.lkf import lkf_trace
from qvnn.lmi import omega_terms, verify_certificate
from qvnn.lowering import StandardSdp
from qvnn.qmatrix import HermitianQuatMatrix
from qvnn.sdp import SolverConfig, solve_feasibility
from qvnn.simulate import convergence_metrics, integrate

MARGIN_TOL = 1e-6


def test_01_reference_network_certifies_within_budget(reference_model):
    t0 = time.perf_counter()
    result, dv = certified_solve(reference_model, margin_tol=MARGIN_TOL)
    wall = time.perf_counter() - t0
    if (result.status == "feasible" and result.margin >= MARGIN_TOL
            and wall <= 120.0):
        recheck = verify_certificate(reference_model, dv,
                                     margin=0.5 * result.margin)
        assert recheck.valid, "certificate failed quaternion-level recheck"
        return
    pytest.fail(
        f"reference network not certified: solver status {result.status!r}, "
        f"margin {result.margin:.3e} (required >= {MARGIN_TOL:g}), "
        f"wall {wall:.1f}s (budget 120s). A leak-delay sweep of this "
        f"configuration brackets its feasibility boundary inside "
        f"(0.0800, 0.0825), far below the declared 0.5, so the criterion "
        f"set is infeasible for the declared parameters.")


def test_02_reference_component_matrices_match_frozen_source_data(
        reference_model):
    a1 = np.array([[1.2 + 3.0j, 1.8 + 1.6j],
                   [3.8 - 3.8j, 1.5 + 3.2j]])
    a2 = np.array([[-3.6 + 2.0j, -2.0 - 1.9j],
                   [2.0 - 2.1j, -3.6 + 3.0j]])
    b1 = np.array([[1.5 - 3.3j, 1.5 + 2.6j],
                   [2.5 + 3.2j, 2.9 + 3.5j]])
    b2 = np.array([[2.6 + 1.1j, 0.9 - 2.9j],
                   [-0.7 - 1.5j, 1.3 + 1.5j]])
    assert np.array_equal(reference_model.a_mat.a1, a1)
    assert np.array_equal(reference_model.a_mat.a2, a2)
    assert np.array_equal(reference_model.b_mat.a1, b1)
    assert np.array_equal(reference_model.b_mat.a2, b2)
    assert np.array_equal(reference_model.c_diag, [8.0, 12.0])
    assert reference_model.delta == 0.5
    assert reference_model.d1_bound == 0.7
    assert reference_model.d2_bound == 0.1
    assert reference_model.mu1 == 0.45
    assert reference_model.mu2 == 0.15
    assert np.array_equal(reference_model.gamma_diag, [0.2, 0.2])


def test_03_reference_simulations_converge_and_functional_decays(
        reference_model):
    starts = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        parts = rng.uniform(-1.0, 1.0, size=(4, reference_model.n))
        starts.append(np.stack([parts[0] + 1j * parts[1],
                                parts[2] + 1j * parts[3]]))
    trajs = integrate(reference_model, starts, horizon=20.0, step=1e-3)
    outcomes = []
    for seed, traj in enumerate(trajs):
        if traj.diverged_at is not None:
            outcomes.append((seed, f"diverged at t={traj.diverged_at:.2f}"))
            continue
        metrics = convergence_metrics(traj, threshold=1e-3)
        if metrics.final_sup < 1e-3:
            outcomes.append((seed, "converged"))
        else:
            outcomes.append((seed,
                             f"stayed at {metrics.final_sup:.3e} >= 1e-3"))
    bad = [f"seed {s}: {msg}" for s, msg in outcomes if msg != "converged"]
    if bad:
        pytest.fail("reference simulations failed the convergence check "
                    f"({len(bad)}/10): " + "; ".join(bad))

    result, dv = certified_solve(reference_model, margin_tol=MARGIN_TOL)
    if result.status != "feasible":
        pytest.fail("functional check needs a certificate, but the solver "
                    f"reported {result.status!r}")
    rng = np.random.default_rng(0)
    parts = rng.uniform(-1.0, 1.0, size=(4, reference_model.n))
    start = np.stack([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    (traj,) = integrate(reference_model, [start], horizon=20.0, step=1e-3)
    trace = lkf_trace(traj, dv, stride=20)
    v0 = trace.total[0]
    assert trace.max_increase() <= 1e-6 * v0, (
        f"functional rose by {trace.max_increase():.3e} against V(0)={v0:.3e}")


def test_04_definiteness_agrees_with_sampled_quadratic_forms(rng):
    def random_hermitian(n):
        m = random_quat_matrix(rng, n, n)
        mh = m.H
        return HermitianQuatMatrix((m.a1 + mh.a1) / 2.0,
                                   (m.a2 + mh.a2) / 2.0)

    contradictions = 0
    pairing_worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 6))
        h = random_hermitian(n)
        if case % 3 == 1:     # shift clear of zero to exercise both signs
            shift = float(np.max(np.abs(hermitian_eigvals(h)))) + 0.5
            h = HermitianQuatMatrix(h.a1 + shift * np.eye(n), h.a2)
        elif case % 3 == 2:
            shift = float(np.max(np.abs(hermitian_eigvals(h)))) + 0.5
            h = HermitianQuatMatrix(h.a1 - shift * np.eye(n), h.a2)
        report = definiteness(h)
        chi = h.complex_embed()

        parts = rng.uniform(-1.0, 1.0, size=(1000, 4, n))
        emb = np.concatenate([parts[:, 0] + 1j * parts[:, 1],
                              parts[:, 2] - 1j * parts[:, 3]], axis=1)
        vals = np.einsum("si,ij,sj->s", np.conj(emb), chi, emb).real
        norms = np.sum(np.abs(emb) ** 2, axis=1)
        lo = report.min_eig * norms - 1e-9
        hi = report.max_eig * norms + 1e-9
        contradictions += int(np.sum((vals < lo) | (vals > hi)))
        if report.kind == "positive_definite":
            contradictions += int(np.sum(vals <= 0.0))
        elif report.kind == "negative_definite":
            contradictions += int(np.sum(vals >= 0.0))

        # each quaternion eigenvalue twice in chi, four times in its real
        # image [[Re, -Im], [Im, Re]]
        eigs = hermitian_eigvals(h)
        r_eigs = np.linalg.eigvalsh(np.block([[chi.real, -chi.imag],
                                              [chi.imag, chi.real]]))
        quads = r_eigs.reshape(-1, 4)
        pairing_worst = max(pairing_worst,
                            float(np.max(quads.max(axis=1)
                                         - quads.min(axis=1))))
        pairs = eigs.reshape(-1, 2)
        pairing_worst = max(pairing_worst,
                            float(np.max(pairs[:, 1] - pairs[:, 0])),
                            float(np.max(np.abs(r_eigs[0::2] - eigs))))
    assert contradictions == 0, f"{contradictions} sampled contradictions"
    assert pairing_worst <= 1e-8, f"spectra pairing off by {pairing_worst:.2e}"


def test_05_product_table_modulus_and_matrix_products(rng):
    one = Quaternion(1.0, 0.0, 0.0, 0.0)
    i = Quaternion(0.0, 1.0, 0.0, 0.0)
    j = Quaternion(0.0, 0.0, 1.0, 0.0)
    k = Quaternion(0.0, 0.0, 0.0, 1.0)
    table = {
        (i, i): -one, (j, j): -one, (k, k): -one,
        (i, j): k, (j, i): -k,
        (j, k): i, (k, j): -i,
        (k, i): j, (i, k): -j,
    }
    for (p, q), want in table.items():
        assert (p * q).components() == want.components()
    assert (i * j * k).components() == (-one).components()

    for _ in range(500):
        q = Quaternion(*rng.normal(size=4) * 10.0 ** rng.integers(-3, 4))
        p = Quaternion(*rng.normal(size=4) * 10.0 ** rng.integers(-3, 4))
        prod = (q * p).modulus()
        assert prod == pytest.approx(q.modulus() * p.modulus(), rel=1e-12)

    for pair in range(100):
        rows = int(rng.integers(1, 6))
        inner = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        a = random_quat_matrix(rng, rows, inner)
        b = random_quat_matrix(rng, inner, cols)
        fast = a @ b
        slow = brute_product(a, b)
        assert np.max(np.abs(fast.a1 - slow.a1)) <= 1e-12
        assert np.max(np.abs(fast.a2 - slow.a2)) <= 1e-12


def test_06_inequality_oracles_stay_nonnegative(rng):
    s = np.linspace(0.0, 1.0, 101)
    samples = np.zeros((101, 2, 1), dtype=complex)
    samples[:, 0, 0] = s
    path = VectorPath(a=0.0, b=1.0, samples=samples)
    eye = HermitianQuatMatrix(np.eye(1, dtype=complex), np.zeros((1, 1)))
    assert jensen_gap(path, eye) == pytest.approx(1.0 / 12.0, abs=1e-6)

    worst_jensen = np.inf
    for seed in range(100):
        n = int(rng.integers(1, 4))
        p = random_path(n, seed=seed, num_samples=int(rng.integers(21, 161)))
        worst_jensen = min(worst_jensen,
                           jensen_gap(p, random_hermitian_pd(rng, n)))
    assert worst_jensen >= -1e-9, f"jensen gap fell to {worst_jensen:.3e}"

    eq_gap = rc_gap(random_rc_instance(n=2, m=3, seed=0, equality_case=True))
    assert abs(eq_gap) <= 1e-8, f"equality-case gap {eq_gap:.3e}"
    worst_rc = np.inf
    for seed in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        worst_rc = min(worst_rc, rc_gap(random_rc_instance(n, m, seed=seed)))
    assert worst_rc >= -1e-9, f"coupling gap fell to {worst_rc:.3e}"


def test_07_feasible_verdicts_reverify_and_conflicts_are_rejected(
        stable_model, stable_solution):
    assert FEASIBLE_RUNS, "no feasible run was recorded this session"
    for model, dv, margin in FEASIBLE_RUNS:
        report = verify_certificate(model, dv, margin=0.5 * margin)
        assert report.valid, (
            f"a solver-feasible certificate failed its source-level recheck "
            f"(worst margin {report.worst_margin:.3e} vs required "
            f"{0.5 * margin:.3e})")

    conflicting = StandardSdp(num_vars=1, lmis=[
        affine_lmi("up", np.ones((1, 1, 1))),
        affine_lmi("down", -np.ones((1, 1, 1))),
    ])
    result = solve_feasibility(conflicting, SolverConfig(margin_tolerance=1e-6))
    assert result.status == "infeasible_at_tolerance", result.status


def test_08_integrator_meets_its_design_order(order_study):
    steps, errors, slope = order_study
    assert slope >= 3.5, (
        f"observed order {slope:.2f} on steps {steps} with errors "
        + ", ".join(f"{e:.2e}" for e in errors))


def test_09_omega_blocks_match_derivation_ordered_assembly(rng):
    worst_rel = 0.0
    for case in range(50):
        n = int(rng.integers(1, 4))
        model = random_model(rng, n)
        dv = random_decision_vars(rng, n)
        direct = assemble_omega(model, dv)
        derived = derivation_omega(model, dv)
        authored = {row[0] for row in omega_terms(model)}
        scale = max(1.0, float(np.max(np.abs(direct.a1))),
                    float(np.max(np.abs(direct.a2))))
        for bi in range(1, 12):
            for bj in range(bi, 12):
                rs = slice((bi - 1) * n, bi * n)
                cs = slice((bj - 1) * n, bj * n)
                d1 = direct.a1[rs, cs]; d2 = direct.a2[rs, cs]
                e1 = derived.a1[rs, cs]; e2 = derived.a2[rs, cs]
                if (bi, bj) in authored:
                    diff = max(float(np.max(np.abs(d1 - e1))),
                               float(np.max(np.abs(d2 - e2))))
                    worst_rel = max(worst_rel, diff / scale)
                else:
                    assert not d1.any() and not d2.any(), (
                        f"unauthored block ({bi},{bj}) is nonzero in the "
                        f"shipped assembly")
                    assert not e1.any() and not e2.any(), (
                        f"unauthored block ({bi},{bj}) is nonzero in the "
                        f"derivation-ordered assembly")
    assert worst_rel <= 1e-12, f"worst relative block deviation {worst_rel:.2e}"
