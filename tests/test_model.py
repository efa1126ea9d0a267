"""Network description, delay waveforms, and JSON configs."""

import dataclasses
import json

import numpy as np
import pytest

from oracles import quat_identity
from qvnn.errors import InputError
from qvnn.model import DelaySpec, NetworkModel, config_hash, load_model


def small_model(**overrides):
    base = dict(
        n=2,
        c_diag=np.array([1.0, 2.0]),
        a_mat=quat_identity(2),
        b_mat=quat_identity(2),
        delta=0.1,
        d1_bound=0.5,
        d2_bound=0.2,
        mu1=0.3,
        mu2=0.1,
        gamma_diag=np.array([0.5, 0.5]),
        delay1=DelaySpec(offset=0.5),
        delay2=DelaySpec(offset=0.2),
    )
    base.update(overrides)
    return NetworkModel(**base)


# ---- delay waveforms -----------------------------------------------------------


def test_constant_delay():
    d = DelaySpec(offset=0.4)
    assert d(0.0) == 0.4
    assert d(17.3) == 0.4
    assert d.bound() == 0.4
    assert d.rate_bound() == 0.0


def test_sinusoid_delay_values_and_bounds():
    d = DelaySpec(amplitude=0.45, offset=0.25)
    assert d(0.0) == pytest.approx(0.25)
    assert d(np.pi / 2) == pytest.approx(0.7)
    assert d.bound() == pytest.approx(0.7)
    assert d.rate_bound() == pytest.approx(0.45)
    ts = np.linspace(0.0, 20.0, 999)
    vals = d(ts)
    assert vals.shape == ts.shape
    assert np.all(vals >= 0.0)
    assert np.all(vals <= d.bound() + 1e-12)


def test_negative_sweep_is_clamped_at_zero():
    d = DelaySpec(amplitude=0.15, offset=-0.05)
    ts = np.linspace(0.0, 20.0, 999)
    assert d(ts).min() == 0.0
    assert d.bound() == pytest.approx(0.10)


def test_delay_validation():
    with pytest.raises(InputError, match="kind"):
        DelaySpec.from_json({"kind": "triangle"})
    with pytest.raises(InputError):
        DelaySpec(amplitude=-0.1)
    # every waveform is clamped at zero; an unclamped one is refused
    for payload in ({"kind": "constant", "value": -1.0, "clamp_negative": False},
                    {"kind": "sinusoid", "amplitude": 0.2, "offset": -0.1,
                     "clamp_negative": False},
                    {"kind": "constant", "value": 0.3, "clamp_negative": 1}):
        with pytest.raises(InputError, match="clamp_negative"):
            DelaySpec.from_json(payload)


def test_delay_json_round_trip():
    for payload, d in (
            ({"kind": "constant", "value": 0.3}, DelaySpec(offset=0.3)),
            ({"kind": "constant", "value": -1.0}, DelaySpec(offset=-1.0)),
            ({"value": 0.3, "clamp_negative": True}, DelaySpec(offset=0.3)),
            ({"kind": "sinusoid", "amplitude": 0.2, "offset": 0.5,
              "phase": 0.1, "omega": 2.0, "clamp_negative": True},
             DelaySpec(amplitude=0.2, offset=0.5, phase=0.1, omega=2.0))):
        assert DelaySpec.from_json(payload) == d
    with pytest.raises(InputError):
        DelaySpec.from_json({"kind": "sinusoid"})  # amplitude required
    with pytest.raises(InputError):
        DelaySpec.from_json([0.3])


# ---- model validation ----------------------------------------------------------


def test_model_accepts_valid_input():
    m = small_model()
    assert m.d_bound == pytest.approx(0.7)
    assert m.mu == pytest.approx(0.4)
    assert m.lookback() == pytest.approx(0.7)
    assert m.delay1(0.0) + m.delay2(0.0) == pytest.approx(0.7)


def test_a_model_holds_exactly_its_config_fields():
    # one field per config key (delay_functions gives two), and nothing a
    # config cannot set: a driven network's rest point is computed per run
    assert [f.name for f in dataclasses.fields(NetworkModel)] == [
        "n", "c_diag", "a_mat", "b_mat", "delta", "d1_bound", "d2_bound",
        "mu1", "mu2", "gamma_diag", "delay1", "delay2", "external_input"]


def test_model_rejects_bad_shapes_and_signs():
    with pytest.raises(InputError):
        small_model(c_diag=np.array([1.0]))
    with pytest.raises(InputError):
        small_model(c_diag=np.array([1.0, -2.0]))
    with pytest.raises(InputError):
        small_model(gamma_diag=np.array([0.5, 0.0]))
    with pytest.raises(InputError):
        small_model(a_mat=quat_identity(3))
    with pytest.raises(InputError):
        small_model(delta=-0.1)
    with pytest.raises(InputError):
        small_model(mu1=float("nan"))
    with pytest.raises(InputError):
        small_model(external_input=np.zeros((2, 3), dtype=complex))


def test_model_rejects_waveforms_exceeding_declared_bounds():
    with pytest.raises(InputError):
        small_model(delay1=DelaySpec(offset=0.9))
    with pytest.raises(InputError):
        small_model(delay1=DelaySpec(amplitude=0.4, offset=0.1,
                                     omega=2.0))  # rate 0.8 > mu1


def test_model_from_json_rejects_missing_fields():
    with pytest.raises(InputError):
        NetworkModel.from_json({"n": 2})
    with pytest.raises(InputError):
        NetworkModel.from_json([1, 2, 3])


@pytest.mark.parametrize("n", [0, -1])
def test_model_from_json_refuses_a_count_below_one(stable_example_path, n):
    # refused by its own rule, before the shapes of C and gamma are read
    doc = json.loads(stable_example_path.read_text())
    with pytest.raises(InputError, match="n must be positive"):
        NetworkModel.from_json(dict(doc, n=n))


# ---- config hash and loading ---------------------------------------------------


def test_config_hash_ignores_annotations_and_order(stable_example_path):
    doc = json.loads(stable_example_path.read_text())
    base = config_hash(doc)

    annotated = dict(doc)
    annotated["_comment"] = "anything at all"
    assert config_hash(annotated) == base

    reordered = dict(reversed(list(doc.items())))
    assert config_hash(reordered) == base

    changed = json.loads(stable_example_path.read_text())
    changed["delta"] = doc["delta"] + 1e-9
    assert config_hash(changed) != base


def test_load_model_reads_bundled_examples(reference_example_path,
                                           stable_example_path):
    for path in (reference_example_path, stable_example_path):
        model, doc = load_model(path)
        assert model.n == 2
        assert doc["n"] == 2


def test_load_model_error_paths(tmp_path):
    with pytest.raises(InputError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_model(bad)
