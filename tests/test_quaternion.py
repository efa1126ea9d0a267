"""Scalar quaternion arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import I, J, K, ONE, Quaternion, scalar_product_formula

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)

BASIS = {"1": ONE, "i": I, "j": J, "k": K}

# full basis multiplication table; the signs on the mixed products are the
# only ones compatible with associativity once ij = k and i^2 = j^2 = -1
TABLE = {
    ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
    ("i", "j"): K, ("j", "i"): -K,
    ("j", "k"): I, ("k", "j"): -I,
    ("k", "i"): J, ("i", "k"): -J,
}


def test_basis_multiplication_table():
    for (left, right), expected in TABLE.items():
        prod = BASIS[left] * BASIS[right]
        assert prod.is_close(expected), f"{left}{right} gave {prod}"
    assert (I * J * K).is_close(-ONE)


def test_basis_products_associate():
    names = list(BASIS)
    for a in names:
        for b in names:
            for c in names:
                left = (BASIS[a] * BASIS[b]) * BASIS[c]
                right = BASIS[a] * (BASIS[b] * BASIS[c])
                assert left.is_close(right, tol=0.0)


def test_product_matches_componentwise_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = Quaternion(*rng.normal(size=4))
        p = Quaternion(*rng.normal(size=4))
        assert (q * p).is_close(scalar_product_formula(q, p), tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(quaternions, quaternions)
def test_modulus_is_multiplicative(q, p):
    lhs = (q * p).modulus()
    rhs = q.modulus() * p.modulus()
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(quaternions, quaternions)
def test_conjugate_reverses_products(q, p):
    assert (q * p).conjugate().is_close(p.conjugate() * q.conjugate(), tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(quaternions)
def test_pair_decomposition_round_trip(q):
    c1, c2 = q.decompose()
    assert Quaternion.from_pair(c1, c2).is_close(q, tol=0.0)


def test_pair_decomposition_components():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    c1, c2 = q.decompose()
    assert c1 == 1.0 + 2.0j
    assert c2 == 3.0 + 4.0j


def test_conjugate_fixes_modulus_squared():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    sq = q * q.conjugate()
    assert sq.is_close(Quaternion.from_real(q.modulus() ** 2), tol=1e-12)


def test_linear_ops():
    q = Quaternion(1.0, -2.0, 0.5, 3.0)
    p = Quaternion(0.25, 1.0, -1.5, 2.0)
    assert (q + p).components() == (1.25, -1.0, -1.0, 5.0)
    assert (q - p).components() == (0.75, -3.0, 2.0, 1.0)
    assert (-q).components() == (-1.0, 2.0, -0.5, -3.0)
    assert (2.0 * q).is_close(q * 2.0, tol=0.0)
    assert (2.0 * q).components() == (2.0, -4.0, 1.0, 6.0)


def test_real_embedding():
    q = Quaternion.from_real(-3.5)
    assert q.components() == (-3.5, 0.0, 0.0, 0.0)
    assert q.modulus() == 3.5


def test_is_close_tolerance():
    q = Quaternion(1.0, 0.0, 0.0, 0.0)
    p = Quaternion(1.0 + 5e-13, 0.0, 0.0, 0.0)
    assert q.is_close(p)
    assert not q.is_close(p, tol=1e-14)


def test_modulus_definition():
    q = Quaternion(1.0, 2.0, 2.0, 4.0)
    assert q.modulus() == pytest.approx(math.sqrt(25.0), rel=1e-15)
