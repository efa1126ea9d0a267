"""Network description and JSON config handling.

A model is the tuple (C, A, B, delta, d1, d2, mu1, mu2, Gamma) plus optional
delay waveforms and a constant external input. C and Gamma are positive real
diagonals; A (instantaneous coupling) and B (delayed coupling) are
quaternion matrices. The certification side consumes only the scalar bounds;
the simulation side additionally needs the delay waveforms and the
activation gains, which coincide with the diagonal of Gamma. A model holds
exactly its config's fields: the rest point of a driven network is computed
by ``simulate.integrate`` for each run, never read from a config.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .qmatrix import (QuatMatrix, json_int, json_numbers, qmat_from_json,
                      qv_from_components)


@dataclass(frozen=True)
class DelaySpec:
    """A scalar delay waveform max(amplitude sin(omega t + phase) + offset, 0).

    A constant delay is the waveform of amplitude 0. ``bound`` and
    ``rate_bound`` bound the clamped waveform and its rate of change.
    """

    amplitude: float = 0.0
    offset: float = 0.0
    phase: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise InputError("sinusoid amplitude must be nonnegative")

    def bound(self) -> float:
        return max(self.amplitude + self.offset, 0.0)

    def rate_bound(self) -> float:
        return self.amplitude * abs(self.omega)

    def __call__(self, t):
        # one array, each step in place
        wave = np.array(t, dtype=float)
        wave *= self.omega
        wave += self.phase
        np.sin(wave, out=wave)
        wave *= self.amplitude
        wave += self.offset
        np.maximum(wave, 0.0, out=wave)
        return float(wave) if wave.ndim == 0 else wave

    @classmethod
    def from_json(cls, payload: dict, what: str = "delay") -> "DelaySpec":
        if not isinstance(payload, dict):
            raise InputError(f"{what} must be a JSON object")
        if payload.get("clamp_negative", True) is not True:
            raise InputError("delay waveforms are always clamped at zero; "
                             "clamp_negative must be omitted or true")
        kind = payload.get("kind", "constant")
        if kind == "constant":
            return cls(offset=json_numbers(payload.get("value", 0.0), (),
                                           f"{what} value"))
        if kind == "sinusoid":
            fields = {"amplitude": None, "offset": 0.0, "phase": 0.0, "omega": 1.0}
            return cls(**{key: json_numbers(payload.get(key, default), (),
                                            f"{what} {key}")
                          for key, default in fields.items()})
        raise InputError(f"unknown delay kind {kind!r}")


@dataclass
class NetworkModel:
    n: int
    c_diag: np.ndarray
    a_mat: QuatMatrix
    b_mat: QuatMatrix
    delta: float
    d1_bound: float
    d2_bound: float
    mu1: float
    mu2: float
    gamma_diag: np.ndarray
    delay1: DelaySpec = field(default_factory=DelaySpec)
    delay2: DelaySpec = field(default_factory=DelaySpec)
    external_input: np.ndarray | None = None   # pair form (2, n) or None

    def __post_init__(self):
        self.c_diag = np.asarray(self.c_diag, dtype=float)
        self.gamma_diag = np.asarray(self.gamma_diag, dtype=float)
        if self.n <= 0:
            raise InputError("n must be positive")
        if self.c_diag.shape != (self.n,) or self.gamma_diag.shape != (self.n,):
            raise InputError("C and gamma must be length-n vectors")
        if np.any(self.c_diag <= 0):
            raise InputError("self-decay rates C must be strictly positive")
        if np.any(self.gamma_diag <= 0):
            raise InputError("activation gains gamma must be strictly positive")
        for name, m in (("A", self.a_mat), ("B", self.b_mat)):
            if m.shape != (self.n, self.n):
                raise InputError(f"{name} must be {self.n} x {self.n}")
        for name, v in (("delta", self.delta), ("d1", self.d1_bound),
                        ("d2", self.d2_bound), ("mu1", self.mu1), ("mu2", self.mu2)):
            if not math.isfinite(v) or v < 0:
                raise InputError(f"{name} must be a nonnegative finite number")
        # the criterion weighs P3, R1 and R2 by the squared delays
        for name, v in (("delta", self.delta), ("d1", self.d1_bound),
                        ("d2", self.d2_bound)):
            if not math.isfinite(v * v):
                raise InputError(f"{name} = {v:g} is too large: its square "
                                 "is not a finite number")
        for name, spec, bound, rate in (("d1", self.delay1, self.d1_bound, self.mu1),
                                        ("d2", self.delay2, self.d2_bound, self.mu2)):
            if spec.bound() > bound + 1e-9:
                raise InputError(f"delay waveform {name} exceeds its declared bound")
            if spec.rate_bound() > rate + 1e-9:
                raise InputError(f"delay waveform {name} exceeds its declared rate bound")
        if (self.external_input is not None
                and np.asarray(self.external_input).shape != (2, self.n)):
            raise InputError("external_input must be a pair-form (2, n) array")

    @property
    def d_bound(self) -> float:
        return self.d1_bound + self.d2_bound

    @property
    def mu(self) -> float:
        return self.mu1 + self.mu2

    def lookback(self) -> float:
        """Largest history depth any evaluation can request."""
        return max(self.delta, self.d_bound)

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkModel":
        if not isinstance(doc, dict):
            raise InputError("model config must be a JSON object")
        n = json_int(doc.get("n"), "n")
        if n < 1:   # before any field's shape is taken from it
            raise InputError("n must be positive")
        delta, d1, d2, mu1, mu2 = (json_numbers(doc.get(key), (), key) for key
                                   in ("delta", "d1", "d2", "mu1", "mu2"))
        funcs = doc.get("delay_functions", {})
        if not isinstance(funcs, dict):
            raise InputError("delay_functions must be a JSON object")
        delay1, delay2 = (DelaySpec.from_json(funcs[key], key) if key in funcs
                          else DelaySpec(offset=bound)
                          for key, bound in (("d1", d1), ("d2", d2)))
        drive = doc.get("external_input")
        if drive is not None:
            drive = qv_from_components(json_numbers(drive, (n, 4), "external_input"))
        return cls(n=n, c_diag=json_numbers(doc.get("C"), (n,), "C"),
                   a_mat=qmat_from_json(doc.get("A"), "A"),
                   b_mat=qmat_from_json(doc.get("B"), "B"), delta=delta,
                   d1_bound=d1, d2_bound=d2, mu1=mu1, mu2=mu2,
                   gamma_diag=json_numbers(doc.get("gamma"), (n,), "gamma"),
                   delay1=delay1, delay2=delay2, external_input=drive)


def physical_memory() -> int:
    """Bytes of physical memory: arrays that need more are refused."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _strip_private(obj):
    """Drop keys starting with '_' so annotations never affect semantics."""
    if isinstance(obj, dict):
        return {k: _strip_private(v) for k, v in sorted(obj.items())
                if not k.startswith("_")}
    if isinstance(obj, list):
        return [_strip_private(v) for v in obj]
    return obj


def config_hash(doc: dict) -> str:
    """Hash of the semantically meaningful config content.

    Whitespace, key order, and '_'-prefixed annotation fields do not affect
    the digest; any value change does.
    """
    canon = json.dumps(_strip_private(doc), sort_keys=True,
                       separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _finite_number(text: str) -> float:
    """A JSON number, or one of the constants NaN and +-Infinity that
    ``json`` accepts, refused unless it is a finite float."""
    value = float(text)
    if not math.isfinite(value):
        shown = text if len(text) <= 20 else f"{text[:17]}..."
        raise InputError(f"numbers must be finite, got {shown}")
    return value


def _finite_int(text: str) -> int:
    """A JSON integer, refused if it lies past the float range."""
    _finite_number(text)
    return int(text)


def read_json(path, what: str):
    """The JSON document in file ``path``, refused unless it parses and its
    numbers are finite; ``what`` names the file in the refusal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_number,
                             parse_int=_finite_int,
                             parse_constant=_finite_number)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from None


def load_model(path) -> tuple[NetworkModel, dict]:
    """Read a model config file; returns (model, raw JSON document)."""
    doc = read_json(path, "config")
    return NetworkModel.from_json(doc), doc
