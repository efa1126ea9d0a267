"""Shared fixtures: bundled example configs and one solved certificate.

Any feasibility verdict produced through ``certified_solve`` is recorded in
``FEASIBLE_RUNS`` so the soundness gate in the acceptance tests can re-verify
every certificate the suite claimed, at the original quaternion level.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from qvnn.lmi import DecisionVars, verify_certificate
from qvnn.lowering import build_sdp
from qvnn.model import load_model
from qvnn.sdp import SolverConfig, scale_problem, solve_feasibility

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# (model, decision vars, claimed margin) for every feasible verdict in the run
FEASIBLE_RUNS: list = []


def certified_solve(model, margin_tol: float = 1e-6):
    """Build, scale, and solve the feasibility problem for one model."""
    sdp = build_sdp(model)
    scaled, factors = scale_problem(sdp)
    result = solve_feasibility(scaled, SolverConfig(margin_tolerance=margin_tol))
    dv = None
    if result.x is not None:
        dv = DecisionVars.from_vector(result.x / factors, model.n)
    if result.status == "feasible":
        FEASIBLE_RUNS.append((model, dv, result.margin))
        recheck = verify_certificate(model, dv, margin=0.5 * result.margin)
        assert recheck.valid, ("feasible verdict failed its quaternion-level "
                               f"recheck (worst margin "
                               f"{recheck.worst_margin:.3e})")
    return result, dv


@pytest.fixture(scope="session")
def reference_example_path() -> Path:
    return EXAMPLES / "paper_sec4.json"


@pytest.fixture(scope="session")
def stable_example_path() -> Path:
    return EXAMPLES / "two_neuron_stable.json"


@pytest.fixture(scope="session")
def reference_model(reference_example_path):
    model, _ = load_model(reference_example_path)
    return model


@pytest.fixture(scope="session")
def stable_model(stable_example_path):
    model, _ = load_model(stable_example_path)
    return model


@pytest.fixture(scope="session")
def stable_solution(stable_model):
    """The positive-path certificate, solved once per session."""
    result, dv = certified_solve(stable_model)
    assert result.status == "feasible", "positive-path fixture failed to certify"
    return result, dv


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def order_fixture_model():
    """Scalar constant-delay problem used for the convergence-order study.

    The couplings are strong enough that interpolation error in the delayed
    activation argument is visible above roundoff at every tested step size.
    """
    from qvnn.model import DelaySpec, NetworkModel
    from qvnn.qmatrix import QuatMatrix

    def scalar(w, x, y, z):
        return QuatMatrix.from_components(
            np.array([[w]]), np.array([[x]]), np.array([[y]]), np.array([[z]]))

    return NetworkModel(
        n=1, c_diag=np.array([3.0]),
        a_mat=scalar(2.4, 0.9, -0.6, 0.3),
        b_mat=scalar(-1.5, 0.6, 1.2, -0.9),
        delta=0.5, d1_bound=0.5, d2_bound=0.5, mu1=0.0, mu2=0.0,
        gamma_diag=np.array([2.0]),
        delay1=DelaySpec(offset=0.5),
        delay2=DelaySpec(offset=0.5),
    )


ORDER_STEPS = (4e-3, 2e-3, 1e-3, 5e-4)
ORDER_REFERENCE_STEP = 5e-5


@pytest.fixture(scope="session")
def order_study():
    """(step sizes, sup-norm errors, fitted order) against a fine reference."""
    from qvnn.simulate import integrate

    model = order_fixture_model()
    start = np.array([[0.9 + 0.4j], [-0.6 + 0.7j]])
    horizon = 2.0
    (reference,) = integrate(model, [start], horizon, ORDER_REFERENCE_STEP)
    compare_times = np.arange(0.0, horizon + 1e-12, ORDER_STEPS[0])

    def grid_values(traj):
        idx = np.rint(compare_times / traj.step).astype(int)
        return traj.values[idx]

    ref_vals = grid_values(reference)
    errors = []
    for h in ORDER_STEPS:
        (traj,) = integrate(model, [start], horizon, h)
        diff = grid_values(traj) - ref_vals
        errors.append(float(np.max(np.abs(diff))))
    slope = float(np.polyfit(np.log(ORDER_STEPS), np.log(errors), 1)[0])
    return ORDER_STEPS, tuple(errors), slope
