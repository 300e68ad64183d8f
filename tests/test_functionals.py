"""Integral functionals and inequality checkers."""

import math

import numpy as np
import pytest

from freeform import functionals as fn
from freeform import geometry as geo
from freeform.spaceform import BallDomain, Potential, SpaceForm

QUAD = geo.QuadratureSpec(order=20, level=1)


def unit_ball():
    sf = SpaceForm(0)
    return sf, BallDomain(sf, 1.0)


def perturbed(eps=0.03, n=2, K=0, R=1.0):
    sf = SpaceForm(K)
    ball = BallDomain(sf, R)
    return geo.make_profile_shape(sf, ball, 1.3 * ball.R_model,
                                  r_sin={2: 1.0}, z_cos={1: 0.6},
                                  eps=eps, n=n)


def axis_potential(shape):
    return Potential(shape.space_form, shape.axis)


def test_average_hk_cap_closed_form():
    """Euclidean cap of radius rho: H_1 = n / rho, weighted or not."""
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.4, n=2)
    assert fn.average_hk(cap, QUAD, 1) == pytest.approx(2.0 / 1.4, rel=1e-12)
    pot = axis_potential(cap)
    assert fn.average_hk(cap, QUAD, 1, weight=pot) == pytest.approx(
        2.0 / 1.4, rel=1e-12)


def test_main_inequality_cap_equality():
    sf, ball = unit_ball()
    for rho in (0.5, 1.0, 2.0):
        cap = geo.make_cap(sf, ball, rho, n=2)
        check = fn.check_main_inequality(cap, QUAD, 1)
        assert check.status == "pass"
        assert check.equality_expected
        assert abs(check.lhs) <= 1e-10
        assert abs(check.rhs) <= 1e-10


def test_main_inequality_perturbed_strict():
    shape = perturbed(eps=0.12)
    assert geo.non_umbilicity(shape, QUAD) >= 0.05
    check = fn.check_main_inequality(shape, QUAD, 1)
    assert check.status == "pass"
    assert 0 < check.lhs < check.rhs
    assert check.ratio < 1 - 1e-4


def test_main_inequality_weighted():
    shape = perturbed(eps=0.03)
    check = fn.check_main_inequality(shape, QUAD, 1,
                                     weight=axis_potential(shape))
    assert check.status == "pass"
    assert check.hypotheses["half_ball"] is True
    assert check.hypotheses["substatic_min"] >= -fn.GATE_TOL
    assert 0 < check.lhs < check.rhs


def test_main_inequality_weighted_sign_flip_inapplicable():
    """With -a the weight is negative somewhere: gated, not failed."""
    shape = perturbed(eps=0.02)
    flipped = Potential(shape.space_form, -shape.axis)
    check = fn.check_main_inequality(shape, QUAD, 1, weight=flipped)
    assert check.status == "inapplicable"
    assert check.hypotheses["half_ball"] is False
    assert check.hypotheses["min_weight"] <= 0.0
    assert math.isnan(check.lhs) and math.isnan(check.rhs)
    # the weighted average itself is undefined there
    with pytest.raises(fn.NonpositiveWeightError):
        fn.average_hk(shape, QUAD, 1, weight=flipped)


def test_main_inequality_matches_frame_loop():
    """Both sides agree with a loop over frames of the per-point helpers."""
    shape = perturbed(eps=0.05, n=3)
    data = geo.surface_data(shape, QUAD)
    for weight in (None, axis_potential(shape)):
        for k in (1, 2):
            ws = [fn.weight_value(weight, fr) * fr.weight for fr in data.frames]
            avg = sum(w * fn.hk_value(fr, k) for w, fr in zip(ws, data.frames)) / sum(ws)
            lhs = sum(w * (fn.hk_value(fr, k) - avg) ** 2 for w, fr in zip(ws, data.frames))
            rhs = sum(w * fn.traceless_newton_norm2(fr, k)
                      for w, fr in zip(ws, data.frames)) * 3 * 2 / (3 - k) ** 2
            check = fn.check_main_inequality(shape, QUAD, k, weight=weight)
            assert fn.average_hk(shape, QUAD, k, weight) == pytest.approx(avg, rel=1e-13)
            assert check.lhs == pytest.approx(lhs, rel=1e-12)
            assert check.rhs == pytest.approx(rhs, rel=1e-12)


def test_node_arrays_match_pointwise_helpers():
    """SurfaceData's node arrays agree with the per-frame helpers."""
    for shape in (perturbed(eps=0.05, n=3, K=-1, R=0.8), perturbed(eps=0.05)):
        data = geo.surface_data(shape, QUAD)
        K = shape.space_form.K
        for i, fr in enumerate(data.frames):
            np.testing.assert_array_equal(data.kappa[i], fr.kappa)
            np.testing.assert_array_equal(data.x[i], fr.x)
            np.testing.assert_array_equal(data.nu_flat[i], fr.nu_flat)
            assert data.min_ricci[i] == geo.ricci_min(fr, K)
            for k in range(shape.n + 1):
                assert data.H[i, k] == fn.hk_value(fr, k)
            for k in range(shape.n):
                assert data.traceless_norm2[i, k] == pytest.approx(
                    fn.traceless_newton_norm2(fr, k), rel=1e-14, abs=1e-14)


def test_main_inequality_hyperbolic_flat_cap_inapplicable():
    """Large hyperbolic caps have kappa < 1, hence negative Ricci: the
    unweighted theorem does not apply and the check must say so."""
    sf = SpaceForm(-1)
    ball = BallDomain(sf, 1.0)
    cap = geo.make_cap(sf, ball, 3.0 * ball.R_model, n=2)
    check = fn.check_main_inequality(cap, QUAD, 1)
    assert check.status == "inapplicable"
    assert check.hypotheses["ricci_min"] < 0


def test_main_inequality_n3_both_orders():
    shape = perturbed(eps=0.02, n=3)
    for k in (1, 2):
        check = fn.check_main_inequality(shape, QUAD, k)
        assert check.status == "pass"
        assert check.lhs <= check.rhs * (1 + 1e-8)


def test_perez_sphere_equality():
    sphere = geo.make_closed_sphere(SpaceForm(0), 1.0, n=2)
    for formulation in (1, 2):
        check = fn.check_perez(sphere, QUAD, formulation)
        assert check.status == "pass"
        assert abs(check.lhs) <= 1e-10
        assert abs(check.rhs) <= 1e-10


def test_perez_perturbed_and_linkage():
    shape = geo.make_closed_sphere(SpaceForm(0), 1.0,
                                   cos_coeffs=[0.4, -0.3, 0.2], eps=0.02, n=2)
    c1 = fn.check_perez(shape, QUAD, 1)
    c2 = fn.check_perez(shape, QUAD, 2)
    assert c1.status == "pass" and c2.status == "pass"
    n = shape.n
    linked = c1.lhs / n + c1.extra["hring2"]
    assert c2.lhs == pytest.approx(linked, rel=1e-10)


def test_perez_scaling_invariance():
    """Scaling the sphere radius leaves the ratio invariant (n=2: both
    sides scale-invariant)."""
    r1 = fn.check_perez(geo.make_closed_sphere(
        SpaceForm(0), 1.0, cos_coeffs=[0.5], eps=0.02, n=2), QUAD, 1)
    r2 = fn.check_perez(geo.make_closed_sphere(
        SpaceForm(0), 2.0, cos_coeffs=[0.5], eps=0.02, n=2), QUAD, 1)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)


def test_perez_requires_closed_flat():
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.0, n=2)
    with pytest.raises(ValueError):
        fn.check_perez(cap, QUAD, 1)
    sphere = geo.make_closed_sphere(SpaceForm(-1), 1.0, n=2)
    with pytest.raises(ValueError):
        fn.check_perez(sphere, QUAD, 1)


def test_quermass_top_order_constant():
    """W_3 = omega_2 / 6 = 2 pi / 3 for n=2 caps and the flat disk."""
    sf, ball = unit_ball()
    target = 2.0 * math.pi / 3.0
    for rho in (0.4, 1.0, 2.5):
        cap = geo.make_cap(sf, ball, rho, n=2)
        assert fn.quermass_k(cap, QUAD, 3) == pytest.approx(target, rel=1e-8)
    disk = geo.make_flat_disk(sf, ball, n=2)
    assert fn.quermass_k(disk, QUAD, 3) == pytest.approx(target, rel=1e-8)


def test_quermass_area_relation():
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.2, n=3)
    q = fn.quermassintegrals(cap, QUAD)
    assert q.W[1] == pytest.approx(q.area / 4.0, rel=1e-13)


def test_quermass_volume_disk():
    """Flat disk encloses the half ball: volume = (2/3) pi / 2."""
    sf, ball = unit_ball()
    disk = geo.make_flat_disk(sf, ball, n=2)
    q = fn.quermassintegrals(disk, QUAD)
    assert q.volume == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)


def test_quermass_unsupported_order():
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.0, n=2)
    with pytest.raises(fn.UnsupportedQuermassError):
        fn.quermass_k(cap, QUAD, 4)


def test_quermass_rejects_nonunit_ball():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 0.8)
    cap = geo.make_cap(sf, ball, 1.0, n=2)
    with pytest.raises(ValueError):
        fn.quermassintegrals(cap, QUAD)


def test_corollary_low_dim_rejects_other_balls():
    """The corollary is stated for the unit Euclidean ball only."""
    for K, R in ((1, 1.0), (0, 0.8), (-1, 0.9)):
        sf = SpaceForm(K)
        ball = BallDomain(sf, R)
        cap = geo.make_cap(sf, ball, 1.2 * ball.R_model, n=2)
        with pytest.raises(ValueError, match="unit Euclidean ball"):
            fn.check_corollary_low_dim(cap, QUAD, "i")


def test_cap_function_inverse_round_trip():
    for v in np.linspace(0.2, 1.0, 5):
        r = fn.cap_function_inverse(1, v, 3)
        assert fn.cap_function(1, r, 3) == pytest.approx(v, abs=1e-9)


def test_cap_function_monotone_n3():
    rs = np.geomspace(0.1, 10.0, 12)
    vals = [fn.cap_function(3, float(r), 3) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cap_function_inverse_range_error():
    with pytest.raises(fn.RangeError):
        fn.cap_function_inverse(1, 1e9, 3)


def test_corollary_low_dim_i_cap_equality():
    """Caps: |Sigma|/R^2 + |boundary| = 2 pi exactly."""
    sf, ball = unit_ball()
    for rho in (0.5, 1.3):
        cap = geo.make_cap(sf, ball, rho, n=2)
        check = fn.check_corollary_low_dim(cap, QUAD, "i")
        assert check.status == "pass"
        assert check.lhs == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_corollary_low_dim_i_disk_exact():
    sf, ball = unit_ball()
    disk = geo.make_flat_disk(sf, ball, n=2)
    check = fn.check_corollary_low_dim(disk, QUAD, "i")
    assert check.lhs == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_corollary_low_dim_i_perturbed():
    shape = perturbed(eps=0.03)
    check = fn.check_corollary_low_dim(shape, QUAD, "i")
    assert check.status == "pass"
    assert check.lhs >= 2.0 * math.pi - 1e-8


def test_corollary_low_dim_ii_cap_consistency():
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.1, n=3)
    check = fn.check_corollary_low_dim(cap, QUAD, "ii")
    assert check.status == "pass"
    assert check.lhs == pytest.approx(check.rhs, rel=1e-6)


def test_divergence_weak_residuals():
    shape = perturbed(eps=0.03)
    res_div, res_trace = fn.divergence_free_check(shape, QUAD, 1, full=False)
    assert res_div <= 1e-10
    assert res_trace <= 1e-9
    # m = 0: identity Newton tensor, trivially divergence free
    res0, _ = fn.divergence_free_check(shape, QUAD, 0, full=False)
    assert res0 <= 1e-12


def test_divergence_weak_residual_n3():
    shape = perturbed(eps=0.02, n=3)
    for m in (1, 2):
        res_div, res_trace = fn.divergence_free_check(shape, QUAD, m,
                                                      full=False)
        assert res_div <= 1e-10
        assert res_trace <= 1e-9


def test_inequality_check_status_logic():
    check = fn.InequalityCheck(name="x", k=1, lhs=1.0, rhs=2.0,
                               direction="le", hypotheses={})
    assert check.finalize(True).status == "pass"
    check = fn.InequalityCheck(name="x", k=1, lhs=3.0, rhs=2.0,
                               direction="le", hypotheses={})
    assert check.finalize(True).status == "fail"
    check = fn.InequalityCheck(name="x", k=1, lhs=3.0, rhs=2.0,
                               direction="le", hypotheses={})
    assert check.finalize(False).status == "inapplicable"
