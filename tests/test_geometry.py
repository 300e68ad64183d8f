"""Immersions, frames, quadrature and shape generators."""

import json
import math

import numpy as np
import pytest

from freeform import geometry as geo
from freeform.spaceform import BallDomain, SpaceForm

QUAD = geo.QuadratureSpec(order=20, level=1)


def euclid_cap(rho=1.0, n=2):
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    return geo.make_cap(sf, ball, rho, n=n)


def test_sphere_area_values():
    assert geo.sphere_area(1) == pytest.approx(2 * math.pi)
    assert geo.sphere_area(2) == pytest.approx(4 * math.pi)
    assert geo.sphere_area(3) == pytest.approx(2 * math.pi**2)


def test_cap_closed_forms_unit_ball():
    """rho=1 cap in the unit ball: |Sigma| = 2 pi (1 - 1/sqrt 2),
    |boundary| = 2 pi / sqrt 2, kappa = 1/rho."""
    cap = euclid_cap(rho=1.0)
    data = geo.surface_data(cap, QUAD)
    assert data.area == pytest.approx(2 * math.pi * (1 - 1 / math.sqrt(2)),
                                      rel=1e-12)
    assert cap.boundary_measure() == pytest.approx(2 * math.pi / math.sqrt(2),
                                                   rel=1e-12)
    for fr in data.frames:
        np.testing.assert_allclose(fr.kappa, 1.0, atol=1e-10)


def test_cap_free_boundary_residual_all_space_forms():
    for K, R in [(-1, 0.8), (0, 1.0), (1, 0.9)]:
        sf = SpaceForm(K)
        ball = BallDomain(sf, R)
        cap = geo.make_cap(sf, ball, 1.3 * ball.R_model, n=2)
        pos, ang = geo.free_boundary_residual(cap, ball)
        assert pos <= 1e-12
        assert ang <= 1e-12


def test_hyperbolic_geodesic_sphere_curvature_and_area():
    """Closed geodesic sphere of radius r in K=-1: kappa = coth r,
    area = 4 pi sinh^2 r."""
    sf = SpaceForm(-1)
    r = 0.9
    sphere = geo.make_closed_sphere(sf, r, n=2)
    data = geo.surface_data(sphere, QUAD)
    for fr in data.frames:
        np.testing.assert_allclose(fr.kappa, 1.0 / math.tanh(r), rtol=1e-10)
    assert data.area == pytest.approx(4 * math.pi * math.sinh(r) ** 2,
                                      rel=1e-10)


def test_round_sphere_mean_curvature_orientation():
    """Orientation fixed so all principal curvatures are positive."""
    for K in (-1, 0, 1):
        sphere = geo.make_closed_sphere(SpaceForm(K), 0.7, n=2)
        fr = geo.frame_at(sphere, sphere.space_form, sphere._generic_point(0.4))
        assert fr.kappa.min() > 0


def test_flat_disk_is_totally_geodesic():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    disk = geo.make_flat_disk(sf, ball, n=2)
    data = geo.surface_data(disk, QUAD)
    assert data.area == pytest.approx(math.pi, rel=1e-12)
    assert disk.boundary_measure() == pytest.approx(2 * math.pi, rel=1e-12)
    for fr in data.frames:
        np.testing.assert_allclose(fr.h, 0.0, atol=1e-12)


def test_flat_disk_normal_orients_the_disk():
    """The unit normal of a disk points along the requested normal."""
    for K in (-1, 0, 1):
        sf = SpaceForm(K)
        ball = BallDomain(sf, 0.9)
        for n in (2, 3):
            for normal in (np.eye(n + 1)[-1], -np.eye(n + 1)[-1],
                           np.eye(n + 1)[0], np.linspace(-1.0, 0.5, n + 1)):
                disk = geo.make_flat_disk(sf, ball, normal=normal, n=n)
                data = geo.surface_data(disk, QUAD)
                assert np.all(data.nu_flat @ normal > 0.0)


def test_n3_cap_area_closed_form():
    """n=3 zone area: 2 pi rho^3 (psi - sin psi cos psi) ... checked
    against the axisymmetric closed form |S^2 zone| style integral."""
    rho = 1.2
    cap = euclid_cap(rho=rho, n=3)
    c = math.sqrt(1 + rho**2)
    psi = math.acos(rho / c)
    # area of the spherical zone of half-angle psi on a 3-sphere slice:
    # int_0^psi 2 pi rho sin(s) * rho ds generalizes to
    # |S^2| rho^3 int_0^psi sin^2 s ds for the n=3 hypersurface zone
    expected = 4 * math.pi * rho**3 * 0.5 * (psi - math.sin(psi) * math.cos(psi))
    data = geo.surface_data(cap, QUAD)
    assert data.area == pytest.approx(expected, rel=1e-10)


def test_full_chart_matches_profile_quadrature():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    shape = geo.make_profile_shape(sf, ball, 1.3, r_sin={2: 1.0},
                                   z_cos={1: 0.6}, eps=0.03, n=2)
    sym = geo.surface_data(shape, QUAD, full=False).area
    full = geo.surface_data(shape, QUAD, full=True).area
    assert full == pytest.approx(sym, rel=1e-12)


def test_quadrature_refinement_consistency():
    sf = SpaceForm(-1)
    ball = BallDomain(sf, 0.9)
    shape = geo.make_profile_shape(sf, ball, 1.2 * ball.R_model,
                                   r_sin={3: 1.0}, z_cos={2: 0.5},
                                   eps=0.02, n=2)
    coarse = geo.surface_data(shape, geo.QuadratureSpec(order=12, level=1)).area
    fine = geo.surface_data(shape, geo.QuadratureSpec(order=24, level=2)).area
    assert coarse == pytest.approx(fine, rel=1e-10)


def test_profile_shape_constraints_enforced():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    shape = geo.make_profile_shape(sf, ball, 1.1, r_sin={2: 0.7, 4: -0.3},
                                   z_cos={1: 0.4}, eps=0.05, n=2)
    pos, ang = geo.free_boundary_residual(shape, ball)
    assert pos <= 1e-10
    assert ang <= 1e-10


def test_profile_shape_amplitude_guard():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    with pytest.raises(geo.DomainError):
        geo.make_profile_shape(sf, ball, 1.1, r_sin={2: 1.0}, eps=0.9)


def test_christoffels_match_metric_fd():
    """Gamma from analytic chart derivatives vs finite differences of g."""
    sf = SpaceForm(-1)
    ball = BallDomain(sf, 0.9)
    shape = geo.make_profile_shape(sf, ball, 1.3 * ball.R_model,
                                   r_sin={2: 1.0}, z_cos={1: 0.6},
                                   eps=0.03, n=2)
    p = np.array([0.6, 0.8])
    fr = geo.frame_at(shape, sf, p)
    Gamma = geo.christoffels(shape, sf, fr)
    step = 1e-6
    dg = np.zeros((2, 2, 2))
    for k in range(2):
        pp, pm = p.copy(), p.copy()
        pp[k] += step
        pm[k] -= step
        gp = geo.frame_at(shape, sf, pp).g
        gm = geo.frame_at(shape, sf, pm).g
        dg[k] = (gp - gm) / (2 * step)
    for l in range(2):
        for i in range(2):
            for j in range(2):
                expected = 0.5 * sum(
                    fr.g_inv[l, m] * (dg[i, m, j] + dg[j, m, i] - dg[m, i, j])
                    for m in range(2))
                assert Gamma[l, i, j] == pytest.approx(expected, abs=1e-7)


def test_ricci_constant_curvature_spheres():
    """Geodesic sphere of radius r in space form K: Ric = (n-1)(kappa^2+K) g."""
    for K in (-1, 0, 1):
        sphere = geo.make_closed_sphere(SpaceForm(K), 0.8, n=2)
        fr = geo.frame_at(sphere, sphere.space_form, sphere._generic_point(0.3))
        kap = float(fr.kappa[0])
        ric = geo.ricci_tensor(fr, K)
        np.testing.assert_allclose(ric, (kap**2 + K) * fr.g, rtol=1e-10)


def test_boundary_conormal_alignment():
    """The outward conormal of a free-boundary shape equals the outward
    normal of the ball boundary (orthogonal contact)."""
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    shape = geo.make_profile_shape(sf, ball, 1.2, r_sin={2: 1.0},
                                   z_cos={1: 0.5}, eps=0.03, n=2)
    bf = geo.boundary_frame_at(shape, ball, 0.9)
    assert bf.mu_alignment <= 1e-10
    assert bf.nu_alignment <= 1e-10


def test_principal_conormal_property():
    """mu is a principal direction of free-boundary shapes: h(mu, Z) = 0."""
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    shape = geo.make_profile_shape(sf, ball, 1.2, r_sin={2: 1.0},
                                   z_cos={1: 0.5}, eps=0.04, n=2)
    assert geo.principal_conormal_check(shape, ball) <= 1e-9


def test_shape_json_round_trip():
    sf = SpaceForm(1)
    ball = BallDomain(sf, 0.9)
    shape = geo.make_profile_shape(sf, ball, 1.3 * ball.R_model,
                                   r_sin={2: 0.8}, z_cos={1: 0.3},
                                   eps=0.02, n=3)
    doc = json.loads(json.dumps(geo.shape_to_json(shape)))
    clone = geo.shape_from_json(doc)
    assert geo.surface_data(clone, QUAD).area == pytest.approx(
        geo.surface_data(shape, QUAD).area, rel=1e-13)
    p = shape._generic_point(0.37)
    np.testing.assert_allclose(clone.map(p), shape.map(p), atol=1e-14)


def test_generic_immersion_fd_fallback():
    """Finite-difference chart derivatives reproduce the analytic cap."""
    cap = euclid_cap(rho=1.3, n=2)
    generic = geo.GenericImmersion(2, cap.space_form, cap.ball, cap.map)
    assert generic.derivative_mode == "fd"
    p = np.array([0.6, 0.8])
    fr_a = geo.frame_at(cap, cap.space_form, p)
    fr_f = geo.frame_at(generic, cap.space_form, p)
    np.testing.assert_allclose(fr_f.g, fr_a.g, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(np.abs(fr_f.kappa), np.abs(fr_a.kappa),
                               rtol=1e-4)


def test_degenerate_chart_rejected():
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    with pytest.raises(geo.DegenerateImmersionError):
        collapsed = geo.GenericImmersion(
            2, sf, ball, lambda p: np.array([p[0], p[0], 0.0]))
        geo.frame_at(collapsed, sf, np.array([0.5, 0.7]))


def test_non_umbilicity_measures():
    cap = euclid_cap(rho=1.0)
    assert geo.non_umbilicity(cap, QUAD) <= 1e-12
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    shape = geo.make_profile_shape(sf, ball, 1.3, r_sin={2: 1.0},
                                   z_cos={1: 0.6}, eps=0.03, n=2)
    assert geo.non_umbilicity(shape, QUAD) > 0.01


# ---------------------------------------------------------------------------
# stacked chart points


def _stack_shapes():
    """Caps, profiles, disks and closed spheres for n in {2, 3} and every K."""
    out = []
    for n in (2, 3):
        for K in (-1, 0, 1):
            sf = SpaceForm(K)
            ball = BallDomain(sf, 0.9)
            rho = 1.3 * ball.R_model
            out.append((f"cap-n{n}-K{K}", geo.make_cap(sf, ball, rho, n=n)))
            out.append((f"profile-n{n}-K{K}", geo.make_profile_shape(
                sf, ball, rho, r_sin={2: 1.0}, z_cos={1: 0.6}, eps=0.03, n=n)))
            out.append((f"disk-n{n}-K{K}", geo.make_flat_disk(sf, ball, n=n)))
            out.append((f"closed-n{n}-K{K}", geo.make_closed_sphere(
                sf, 0.8, cos_coeffs=[0.5, -0.3, 0.2], eps=0.02, n=n)))
    return out


STACK_SHAPES = _stack_shapes()


def _chart_points(n, count=7, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.3, 2.8, size=(count, n))
    p[:, 0] = rng.uniform(0.05, 0.95, size=count)
    return p


def _assert_stack(stacked, points, single):
    looped = np.array([single(q) for q in points])
    np.testing.assert_allclose(stacked, looped, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("label,shape", STACK_SHAPES, ids=[s[0] for s in STACK_SHAPES])
def test_stacked_frame_matches_single_points(label, shape):
    sf = shape.space_form
    p = _chart_points(shape.n)
    fr = geo.frame_at(shape, sf, p)
    singles = [geo.frame_at(shape, sf, q) for q in p]
    for name in ("x", "J", "g", "g_inv", "h", "nu_flat", "kappa",
                 "sqrt_det_g", "e_u"):
        stacked = getattr(fr, name)
        assert np.shape(stacked)[0] == len(p)
        looped = np.array([getattr(s, name) for s in singles])
        np.testing.assert_allclose(stacked, looped, rtol=1e-13, atol=1e-13,
                                   err_msg=name)
    np.testing.assert_allclose(
        geo.christoffels(shape, sf, fr),
        np.array([geo.christoffels(shape, sf, s) for s in singles]),
        rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("label,shape", STACK_SHAPES, ids=[s[0] for s in STACK_SHAPES])
def test_stacked_chart_maps_match_single_points(label, shape):
    p = _chart_points(shape.n, seed=1)
    for method in (shape.map, shape.jac, shape.hess):
        _assert_stack(method(p), p, method)
    _assert_stack(shape.area_density(p[:, 0]), p[:, 0], shape.area_density)
    np.testing.assert_allclose(shape._generic_point(p[:, 0]),
                               [shape._generic_point(t) for t in p[:, 0]])


@pytest.mark.parametrize("K", [-1, 0, 1])
@pytest.mark.parametrize("n", [2, 3])
def test_stacked_space_form_and_potential_match_single_points(K, n):
    from freeform.spaceform import Potential

    sf = SpaceForm(K)
    rng = np.random.default_rng(K + 10 * n)
    x = rng.uniform(-0.5, 0.5, size=(6, n + 1))
    a = rng.normal(size=n + 1)
    pot = Potential(sf, a / np.linalg.norm(a))
    for fn in (sf.u, sf.grad_u, pot.value, pot.grad, pot.hess):
        _assert_stack(fn(x), x, fn)


def test_stacked_frame_with_one_degenerate_point_raises():
    cap = euclid_cap(rho=1.2, n=3)
    p = _chart_points(3)
    p[4, 0] = 0.0  # the orbit collapses on the axis
    with pytest.raises(geo.DegenerateImmersionError):
        geo.frame_at(cap, cap.space_form, p)
    geo.frame_at(cap, cap.space_form, np.delete(p, 4, axis=0))
