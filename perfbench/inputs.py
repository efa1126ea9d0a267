"""Benchmark inputs, generated from values and seeds, never read from disk.

Three model configs:

* ``reference_config()``: the two-neuron reference network whose component
  matrices, rates, delays and gains are pinned by the acceptance test of the
  frozen source data. Its d2 waveform is the recorded clamped sinusoid; its
  d1 waveform is not recorded anywhere, so a sinusoid within the declared
  bounds is chosen and stated in ``_notes``. It is not certifiable (best
  margin about -9.295e-10) and its orbits diverge between t = 6.6 and 7.3.
* ``stable_config()``: the reference with A and B scaled by 0.05 and the
  leakage delay cut to 0.03. It certifies with a margin about 1.3e-5 and
  its orbits fall below 1e-3 before t = 1.
* ``random_n3_config(seed)``: a seeded three-neuron analogue of the stable
  stand-in, from a family that certifies with a margin well above 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

REFERENCE_MARGIN = -9.295e-10
N3_COUPLING_SCALE = 0.1    # standard deviation of the n=3 coupling components

# component matrices of the reference network: a1 + a2 j with complex a1, a2
_REF_A1 = [[1.2 + 3.0j, 1.8 + 1.6j], [3.8 - 3.8j, 1.5 + 3.2j]]
_REF_A2 = [[-3.6 + 2.0j, -2.0 - 1.9j], [2.0 - 2.1j, -3.6 + 3.0j]]
_REF_B1 = [[1.5 - 3.3j, 1.5 + 2.6j], [2.5 + 3.2j, 2.9 + 3.5j]]
_REF_B2 = [[2.6 + 1.1j, 0.9 - 2.9j], [-0.7 - 1.5j, 1.3 + 1.5j]]


def _qmat(a1, a2, scale: float = 1.0) -> dict:
    a1 = np.asarray(a1, dtype=complex) * scale
    a2 = np.asarray(a2, dtype=complex) * scale
    rows, cols = a1.shape
    entries = [[float(a1[r, c].real), float(a1[r, c].imag),
                float(a2[r, c].real), float(a2[r, c].imag)]
               for r in range(rows) for c in range(cols)]
    return {"rows": rows, "cols": cols, "entries": entries}


def _sinusoid(amplitude: float, offset: float, phase: float = 0.0) -> dict:
    return {"kind": "sinusoid", "amplitude": amplitude, "offset": offset,
            "phase": phase, "omega": 1.0, "clamp_negative": True}


def reference_config(coupling_scale: float = 1.0, delta: float = 0.5) -> dict:
    return {
        "_notes": "Reference network rebuilt from the pinned source data. "
                  "The d1 waveform is not recorded; 0.45 sin t + 0.25 is "
                  "chosen to meet d1 = 0.7 and mu1 = 0.45.",
        "n": 2,
        "C": [8.0, 12.0],
        "A": _qmat(_REF_A1, _REF_A2, coupling_scale),
        "B": _qmat(_REF_B1, _REF_B2, coupling_scale),
        "delta": delta,
        "d1": 0.7,
        "d2": 0.1,
        "mu1": 0.45,
        "mu2": 0.15,
        "gamma": [0.2, 0.2],
        "delay_functions": {"d1": _sinusoid(0.45, 0.25),
                            "d2": _sinusoid(0.15, -0.05, math.pi / 2)},
    }


def stable_config() -> dict:
    doc = reference_config(coupling_scale=0.05, delta=0.03)
    doc["_notes"] = ("Stable stand-in: the reference network with A and B "
                     "scaled by 0.05 and delta = 0.03.")
    return doc


def random_n3_config(seed: int) -> dict:
    """A three-neuron analogue of the stable stand-in with seeded couplings.

    Delays, rates and gains are those of the stand-in; the leakage rates
    and the components of A and B are drawn from ``seed``. Models of this
    family certify with margins of about 1.5e-5 to 2.5e-5.
    """
    rng = np.random.default_rng(seed)
    n = 3

    def qmat():
        w, x, y, z = rng.standard_normal((4, n, n)) * N3_COUPLING_SCALE
        return _qmat(w + 1j * x, y + 1j * z)

    doc = reference_config(delta=0.03)
    doc.update({
        "_notes": f"Random three-neuron network, seed {seed}, coupling "
                  f"scale {N3_COUPLING_SCALE}; delays as the stable stand-in.",
        "n": n,
        "C": [float(c) for c in rng.uniform(8.0, 12.0, size=n)],
        "A": qmat(),
        "B": qmat(),
        "gamma": [0.2] * n,
    })
    return doc
