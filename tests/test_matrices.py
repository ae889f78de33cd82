import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimobc import matrices as mat
from mimobc.errors import (
    DimensionMismatchError,
    LoewnerOrderError,
    NotPsdError,
    SingularMatrixError,
)


def _psd_from_seed(seed, n=3, lo=0.0, hi=2.0):
    rng = np.random.Generator(np.random.Philox(seed))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return mat.symmetrize((Q * rng.uniform(lo, hi, n)) @ Q.T)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        mat.symmetrize(np.ones((2, 3)))


def _min_eig(M):
    return np.linalg.eigvalsh(M)[0]


def test_is_psd_examples():
    assert mat.is_psd(np.eye(2)) and _min_eig(np.eye(2)) >= 0.0
    assert not mat.is_psd(np.diag([1.0, -1.0])) and _min_eig(np.diag([1.0, -1.0])) < -1e-12
    assert mat.is_psd(np.zeros((3, 3))) and _min_eig(np.zeros((3, 3))) >= 0.0
    # the default slack is 1e-9 (1 + largest |eigenvalue|)
    assert mat.is_psd(np.diag([-1e-9, 0.5]))
    assert not mat.is_psd(np.diag([-2e-9, 0.5]))


def test_loewner_examples():
    assert mat.loewner_leq(np.eye(2), 2 * np.eye(2)) and _min_eig(2 * np.eye(2) - np.eye(2)) >= 0.0
    A, B = np.diag([1.0, 3.0]), np.diag([2.0, 2.0])
    assert not mat.loewner_leq(A, B) and _min_eig(B - A) < -1e-12
    A = _psd_from_seed(5)
    assert mat.loewner_leq(A, A) and _min_eig(A - A) >= 0.0
    with pytest.raises(DimensionMismatchError):
        mat.loewner_leq(np.eye(2), np.eye(3))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_loewner_partial_order(seed):
    A = _psd_from_seed([seed, 0])
    B = mat.symmetrize(A + _psd_from_seed([seed, 1], lo=0.1))
    C = mat.symmetrize(B + _psd_from_seed([seed, 2], lo=0.1))
    tol = 1e-9
    assert mat.loewner_leq(A, A) and _min_eig(A - A) >= -tol
    assert mat.loewner_leq(A, B) and mat.loewner_leq(B, C)
    assert _min_eig(B - A) >= -tol and _min_eig(C - B) >= -tol
    assert mat.loewner_leq(A, C) and _min_eig(C - A) >= -tol  # transitivity along the chain
    # antisymmetry within tol
    if _min_eig(A - B) >= -tol:
        assert np.max(np.abs(B - A)) < 1e-6


def test_logdet_examples():
    assert mat.logdet(np.eye(4)) == pytest.approx(0.0, abs=1e-14)
    assert mat.logdet(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)
    with pytest.raises(SingularMatrixError):
        mat.logdet(np.diag([1.0, 0.0]))


def test_sqrt_psd_examples():
    assert np.allclose(mat.sqrt_psd(np.eye(3)), np.eye(3))
    assert np.allclose(mat.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(mat.sqrt_psd(4.0 * np.eye(3)), 2.0 * np.eye(3))
    with pytest.raises(NotPsdError):
        mat.sqrt_psd(np.diag([1.0, -1.0]))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sqrt_psd_reconstructs(seed):
    M = _psd_from_seed([seed, 3], n=4)
    R = mat.sqrt_psd(M)
    err = np.linalg.norm(R @ R - M) / (1.0 + np.linalg.norm(M))
    assert err <= 1e-10
    assert mat.is_psd(R)


def test_kronrod_rule_exact_on_monomials():
    # K15 is exact through degree 22 on [0, 1] and G7 through degree 13
    t, wk, wg = mat._kronrod_rule()
    for degree in range(23):
        exact = 1.0 / (degree + 1)
        assert wk @ t**degree == pytest.approx(exact, abs=1e-15)
        if degree <= 13:
            assert wg @ t**degree == pytest.approx(exact, abs=1e-15)
        else:
            assert abs(wg @ t**degree - exact) > 1e-10


def test_line_integral_constant_field():
    # the field takes the stack of an interval's nodes and returns one
    # value per node
    val, err = mat.matrix_line_integral(
        lambda K: np.broadcast_to(np.eye(2), K.shape), np.zeros((2, 2)), np.diag([1.0, 2.0]), 1e-10
    )
    assert val == pytest.approx(3.0, abs=1e-12)
    assert err <= 1e-14


def test_line_integral_calls_the_field_once_per_interval():
    # the sharp field needs several intervals; each is one call on the
    # (15, n, n) stack of its Kronrod nodes, in order along the path
    K1 = np.diag([0.0, 0.5])
    K2 = np.diag([1.0, 0.5])
    stacks = []

    def field(K):
        stacks.append(K.copy())
        return np.linalg.inv(K + 1e-3 * np.eye(2))

    _, err = mat.matrix_line_integral(field, K1, K2, 1e-10)
    assert err <= 1e-10
    assert len(stacks) > 1
    t, _, _ = mat._kronrod_rule()
    assert np.allclose(stacks[0][:, 0, 0], t, rtol=0.0, atol=1e-15)  # [0, 1] first
    for K in stacks:
        assert K.shape == (15, 2, 2)
        assert np.all(K[:, 1, 1] == 0.5)
        # the path parameter at the nodes is a + width * t for some interval
        s = K[:, 0, 0]
        width = (s[-1] - s[0]) / (t[-1] - t[0])
        assert np.allclose(s, s[0] + width * (t - t[0]), rtol=0.0, atol=1e-15)


def test_line_integral_scalar_log():
    val, err = mat.matrix_line_integral(
        lambda K: 0.5 * np.linalg.inv(K + np.eye(1)),
        np.zeros((1, 1)),
        np.ones((1, 1)),
        1e-10,
    )
    assert val == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert err <= 1e-10


def test_line_integral_gradient_field_identity():
    # field 0.5 (K + Sigma)^{-1} integrates to half a log-det difference
    Sigma = _psd_from_seed([11, 1], n=2, lo=0.5)
    K1 = _psd_from_seed([11, 2], n=2, lo=0.1, hi=1.0)
    K2 = mat.symmetrize(K1 + _psd_from_seed([11, 3], n=2, lo=0.1))
    val, err = mat.matrix_line_integral(
        lambda K: 0.5 * np.linalg.inv(K + Sigma), K1, K2, 1e-10
    )
    expect = 0.5 * (mat.logdet(K2 + Sigma) - mat.logdet(K1 + Sigma))
    assert val == pytest.approx(expect, abs=1e-8)
    assert abs(val - expect) <= err


def _sharp_field(K):
    # the integrand 1 / (t + 1e-3) on [0, 1] varies on a scale far below
    # the node spacing of a single G7/K15 interval
    return np.linalg.inv(K + 1e-3 * np.eye(1))


def test_line_integral_error_estimate_flags_a_sharp_field(monkeypatch):
    monkeypatch.setattr(mat, "_MAX_INTERVALS", 1)
    val, err = mat.matrix_line_integral(_sharp_field, np.zeros((1, 1)), np.ones((1, 1)), 1e-10)
    assert abs(val - math.log(1001.0)) <= err
    assert err > 0.1


def test_line_integral_bisects_a_sharp_field_to_tolerance():
    calls = []

    def field(K):
        calls.append(K)
        return _sharp_field(K)

    val, err = mat.matrix_line_integral(field, np.zeros((1, 1)), np.ones((1, 1)), 1e-10)
    assert err <= 1e-10
    assert val == pytest.approx(math.log(1001.0), abs=1e-10)
    # one call per interval evaluated: bisected, and within the cap
    assert 1 < len(calls) <= 2 * mat._MAX_INTERVALS - 1


def test_line_integral_stops_at_the_interval_cap():
    # cos(2000 t) has about 300 periods on [0, 1]; 50 intervals cannot resolve it
    calls = []

    def field(K):
        calls.append(K)
        return np.cos(2000.0 * K)

    val, err = mat.matrix_line_integral(field, np.zeros((1, 1)), np.ones((1, 1)), 1e-10)
    assert err > 1e-10
    # one call per interval: [0, 1] and the two halves of each of 49 bisections
    assert len(calls) == 2 * mat._MAX_INTERVALS - 1
    assert all(K.shape == (15, 1, 1) for K in calls)


def test_line_integral_psd_field_nonnegative():
    for seed in range(20):
        K1 = _psd_from_seed([21, seed], n=2, lo=0.0, hi=1.0)
        K2 = mat.symmetrize(K1 + _psd_from_seed([22, seed], n=2, lo=0.0))
        val, _ = mat.matrix_line_integral(lambda K: np.linalg.inv(K + np.eye(2)), K1, K2, 1e-10)
        assert val >= -1e-9


def test_line_integral_rejects_unordered():
    with pytest.raises(LoewnerOrderError):
        mat.matrix_line_integral(lambda K: np.eye(2), np.eye(2), np.zeros((2, 2)), 1e-10)
