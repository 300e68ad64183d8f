"""Pointwise symmetric-function algebra."""

import itertools

import numpy as np
import pytest

from freeform import symalg


def subset_sum_oracle(kappa, k):
    """H_k by literal subset enumeration."""
    if k == 0:
        return 1.0
    return sum(np.prod(c) for c in itertools.combinations(kappa, k))


def random_metric_pair(rng, n):
    """Random SPD metric g and g-self-adjoint shape operator W."""
    B = rng.normal(size=(n, n))
    g = B @ B.T + n * np.eye(n)
    S = rng.normal(size=(n, n))
    h = 0.5 * (S + S.T)
    W = np.linalg.solve(g, h)
    return g, h, W


def test_mean_curvatures_match_subset_sums():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for _ in range(20):
            kappa = rng.normal(size=n)
            H = symalg.mean_curvatures(kappa)
            for k in range(n + 1):
                assert H[k] == pytest.approx(subset_sum_oracle(kappa, k),
                                             rel=1e-12, abs=1e-12)


def test_mean_curvatures_stacked_rows():
    """A stack of curvature vectors gives the row-by-row results."""
    rng = np.random.default_rng(2)
    for shape in ((7, 3), (2, 4, 2)):
        kappa = rng.normal(size=shape)
        H = symalg.mean_curvatures(kappa)
        assert H.shape == shape[:-1] + (shape[-1] + 1,)
        for idx in np.ndindex(*shape[:-1]):
            np.testing.assert_array_equal(H[idx], symalg.mean_curvatures(kappa[idx]))


def test_mean_curvatures_homogeneity():
    rng = np.random.default_rng(1)
    kappa = rng.normal(size=5)
    H = symalg.mean_curvatures(kappa)
    H2 = symalg.mean_curvatures(2.0 * kappa)
    for k in range(6):
        assert H2[k] == pytest.approx(2.0**k * H[k], rel=1e-12)


def test_principal_curvatures_known_diagonal():
    g = np.diag([4.0, 1.0])
    h = np.diag([8.0, 3.0])
    kappa = symalg.principal_curvatures(h, g)
    np.testing.assert_allclose(sorted(kappa), [2.0, 3.0], atol=1e-13)


def test_newton_recursion_vs_delta_oracle_small_n():
    """Literal generalized-Kronecker-delta sum, n <= 4."""
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for _ in range(10):
            g, h, W = random_metric_pair(rng, n)
            tensors = symalg.newton_tensors(W, g)
            for m in range(n):
                oracle = symalg.newton_tensor_delta_oracle(W, m)
                np.testing.assert_allclose(tensors[m], oracle,
                                           atol=1e-10, rtol=1e-10)


def test_newton_recursion_vs_eigen_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            g, h, W = random_metric_pair(rng, n)
            tensors = symalg.newton_tensors(W, g)
            for m in range(n):
                oracle = symalg.newton_tensor_eigen_oracle(h, g, m)
                np.testing.assert_allclose(tensors[m], oracle,
                                           atol=1e-9, rtol=1e-9)


def test_newton_trace_identity():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 5):
        g, h, W = random_metric_pair(rng, n)
        kappa = symalg.principal_curvatures(h, g)
        H = symalg.mean_curvatures(kappa)
        for m, T in enumerate(symalg.newton_tensors(W, g)):
            assert np.trace(T) == pytest.approx((n - m) * H[m], rel=1e-10,
                                                abs=1e-10)


def test_traceless_first_newton_is_minus_traceless_shape():
    """T-ring_1 = -(W - (H_1/n) I) in mixed components."""
    rng = np.random.default_rng(5)
    n = 4
    g, h, W = random_metric_pair(rng, n)
    kappa = symalg.principal_curvatures(h, g)
    H = symalg.mean_curvatures(kappa)
    T1 = symalg.newton_tensors(W, g)[1]
    T1_ring = symalg.traceless_part(T1, H[1], n, 1)
    W_ring = W - (H[1] / n) * np.eye(n)
    np.testing.assert_allclose(T1_ring, -W_ring, atol=1e-12)


def test_asymmetric_shape_operator_rejected():
    g = np.eye(2)
    W = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(symalg.AsymmetryError):
        symalg.newton_tensors(W, g)


def test_orthonormal_norm_invariance():
    """The orthonormal-frame norm of a tensor is chart independent."""
    rng = np.random.default_rng(6)
    n = 3
    g, h, W = random_metric_pair(rng, n)
    T = symalg.newton_tensors(W, g)[1]
    T_on = symalg.to_orthonormal(T, g, mixed=True)
    # invariant trace of T^2 computed directly with index gymnastics
    direct = np.trace(T @ T)
    assert float(np.sum(T_on * T_on)) == pytest.approx(direct, rel=1e-12)


def test_newton_maclaurin_known_values():
    """kappa = (1,2,3): H = (6, 11, 6); check ((n-k)/n) H_1 H_k vs (k+1)H_{k+1}."""
    kappa = np.array([1.0, 2.0, 3.0])
    lhs, rhs, slack = symalg.newton_maclaurin_check(kappa, 1)
    assert lhs == pytest.approx((2.0 / 3.0) * 6.0 * 6.0)   # 24
    assert rhs == pytest.approx(2.0 * 11.0)                # 22
    assert slack == pytest.approx(2.0)
    lhs, rhs, slack = symalg.newton_maclaurin_check(kappa, 2)
    assert lhs == pytest.approx((1.0 / 3.0) * 6.0 * 11.0)  # 22
    assert rhs == pytest.approx(3.0 * 6.0)                 # 18
    assert slack == pytest.approx(4.0)


def test_newton_maclaurin_equality_at_umbilic():
    kappa = np.full(4, 1.7)
    for k in (1, 2, 3):
        lhs, rhs, slack = symalg.newton_maclaurin_check(kappa, k)
        assert slack == pytest.approx(0.0, abs=1e-12 * abs(lhs))


def test_newton_maclaurin_cone_violation():
    with pytest.raises(symalg.ConeViolationError):
        symalg.newton_maclaurin_check(np.array([-1.0, -2.0, 0.5]), 2)


def test_cone_report():
    rep = symalg.cone_report(np.array([2.0, 2.0, -0.5]))
    assert rep.in_cone_k(1)
    assert rep.in_cone_k(2)
    assert not rep.in_cone_k(3)
    assert rep.max_k == 2


def test_is_umbilic():
    assert symalg.is_umbilic(np.array([2.0, 2.0, 2.0]))
    assert not symalg.is_umbilic(np.array([2.0, 2.1, 2.0]))


def test_substatic_tensor_umbilic_closed_form():
    """Umbilic W = c I: factorization is (Vc - V_nu)(n-1)c I."""
    n, c, V, V_nu = 3, 1.4, 0.8, -0.3
    g = np.eye(n)
    h = c * np.eye(n)
    M = symalg.substatic_tensor(h, g, V, V_nu)
    expected = (V * c - V_nu) * (n - 1) * c * np.eye(n)
    np.testing.assert_allclose(M, expected, atol=1e-12)


def test_substatic_tensor_symmetric_in_general():
    rng = np.random.default_rng(7)
    g, h, W = random_metric_pair(rng, 4)
    M = symalg.substatic_tensor(h, g, 0.9, -0.2)
    np.testing.assert_allclose(M, M.T, atol=1e-12)


def test_principal_curvatures_stacked_matches_single():
    rng = np.random.default_rng(5)
    n = 3
    A = rng.normal(size=(8, n, n))
    g = A @ np.swapaxes(A, -1, -2) + n * np.eye(n)
    B = rng.normal(size=(8, n, n))
    h = B + np.swapaxes(B, -1, -2)
    stacked = symalg.principal_curvatures(h, g)
    assert stacked.shape == (8, n)
    looped = np.array([symalg.principal_curvatures(hi, gi) for hi, gi in zip(h, g)])
    np.testing.assert_allclose(stacked, looped, rtol=1e-13, atol=1e-13)
    for hi, gi, kappa in zip(h, g, stacked):
        expected = np.sort(np.linalg.eigvals(np.linalg.solve(gi, hi)).real)
        np.testing.assert_allclose(kappa, expected, rtol=1e-10, atol=1e-12)
