"""Stability certification for quaternion-valued neural networks with delays.

The package assembles the delay-dependent stability criterion of a
quaternion-valued network with leakage delay and two additive time-varying
delays as quaternion linear matrix inequalities, lowers them to the complex
LMIs of their complex embedding, solves those with an in-repo primal-dual
interior-point method, and cross-validates certificates by direct
delay-differential simulation and Lyapunov-Krasovskii functional evaluation.
"""

__version__ = "0.1.0"

from .qmatrix import HermitianQuatMatrix, QuatMatrix
from .model import DelaySpec, NetworkModel

__all__ = [
    "QuatMatrix",
    "HermitianQuatMatrix",
    "DelaySpec",
    "NetworkModel",
    "__version__",
]
