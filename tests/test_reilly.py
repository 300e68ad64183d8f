"""Weighted integral identity, boundary value solver and proof chain."""

import math

import numpy as np
import pytest

from freeform import geometry as geo
from freeform import reilly
from freeform.spaceform import BallDomain, Potential, SpaceForm

QUAD = geo.QuadratureSpec(order=20, level=1)


def unit_ball():
    sf = SpaceForm(0)
    return sf, BallDomain(sf, 1.0)


def perturbed(K=0, R=1.0, eps=0.03, n=2, seed_modes=None):
    sf = SpaceForm(K)
    ball = BallDomain(sf, R)
    modes = seed_modes or ({2: 1.0}, {1: 0.6})
    return geo.make_profile_shape(sf, ball, 1.3 * ball.R_model,
                                  r_sin=modes[0], z_cos=modes[1],
                                  eps=eps, n=n)


def unit_field(n):
    return reilly.ChartField(lambda p: 1.0, lambda p: np.zeros(n),
                             lambda p: np.zeros((n, n)))


def smooth_profile_field(const=0.3, cos_amps=None, n=2):
    """Rotationally symmetric field smooth across the axis (cosine modes)."""
    curve = geo.trig_curve(const, {}, cos_amps or {1: 0.4, 2: -0.2})
    return reilly.ChartField.from_profile(curve, n)


def test_intrinsic_laplacian_is_hessian_trace():
    shape = perturbed()
    f = smooth_profile_field()
    for t in (0.2, 0.5, 0.9):
        fr = geo.frame_at(shape, shape.space_form, shape._generic_point(t))
        hess = f.hessian(shape, fr)
        lap = f.laplacian(shape, fr)
        assert lap == pytest.approx(float(np.trace(fr.g_inv @ hess)),
                                    rel=1e-12)


def test_ambient_field_derivatives_match_fd():
    shape = perturbed()
    b = np.array([0.3, 0.5, 0.2])
    f = reilly.ChartField.from_ambient(
        shape, lambda x: float(x @ b) + 0.1 * float(x @ x),
        lambda x: b + 0.2 * x, lambda x: 0.2 * np.eye(3))
    f_fd = reilly.ChartField.from_callable_fd(f.value, 2)
    p = np.array([0.6, 0.8])
    np.testing.assert_allclose(f.d1(p), f_fd.d1(p), atol=1e-8)
    np.testing.assert_allclose(f.d2(p), f_fd.d2(p), atol=1e-5)


def test_reilly_disk_witness():
    """Flat unit disk, V = 1, f = |p|^2: both sides equal 8 pi."""
    sf, ball = unit_ball()
    disk = geo.make_flat_disk(sf, ball, n=2)
    f = reilly.ChartField.from_ambient(disk, lambda x: float(x @ x),
                                       lambda x: 2.0 * x,
                                       lambda x: 2.0 * np.eye(3))
    led = reilly.reilly_residual(disk, unit_field(2), f, QUAD)
    assert led.bulk_lhs == pytest.approx(8 * math.pi, rel=1e-12)
    assert led.boundary_HN == pytest.approx(8 * math.pi, rel=1e-12)
    assert abs(led.bulk_substatic) <= 1e-12
    assert abs(led.boundary_h) <= 1e-12
    assert led.relative_residual <= 1e-12


def test_reilly_kernel_direction_vanishes():
    """f = V makes every term vanish identically."""
    shape = perturbed()
    pot = Potential(shape.space_form, shape.axis)
    V = reilly.ChartField.from_potential(shape, pot)
    led = reilly.reilly_residual(shape, V, V, QUAD)
    scale = 1.0
    assert abs(led.bulk_lhs) <= 1e-12 * scale
    assert abs(led.bulk_substatic) <= 1e-12 * scale
    assert abs(led.boundary_h) <= 1e-12 * scale
    assert abs(led.boundary_HN) <= 1e-12 * scale


@pytest.mark.parametrize("K,R", [(-1, 0.8), (0, 1.0), (1, 0.9)])
def test_reilly_identity_weighted_all_space_forms(K, R):
    shape = perturbed(K=K, R=R)
    pot = Potential(shape.space_form, shape.axis)
    V = reilly.ChartField.from_potential(shape, pot)
    f = smooth_profile_field()
    led = reilly.reilly_residual(shape, V, f, QUAD)
    assert led.relative_residual <= 1e-12


def test_reilly_identity_random_triples():
    """Random symmetric (shape, V, f) triples balance to quadrature level."""
    rng = np.random.default_rng(11)
    for _ in range(6):
        K = int(rng.choice([-1, 0, 1]))
        R = float(rng.uniform(0.7, 1.1))
        eps = float(rng.uniform(0.0, 0.04))
        shape = perturbed(K=K, R=R, eps=eps)
        V = reilly.ChartField.from_potential(
            shape, Potential(shape.space_form, shape.axis))
        f = smooth_profile_field(const=float(rng.uniform(-0.5, 0.5)),
                                 cos_amps={1: float(rng.uniform(-0.5, 0.5)),
                                           3: float(rng.uniform(-0.3, 0.3))})
        led = reilly.reilly_residual(shape, V, f, QUAD)
        assert led.relative_residual <= 1e-6


def test_reilly_general_field_full_chart():
    """Non-symmetric ambient f on the full n=2 chart."""
    shape = perturbed(eps=0.03)
    V = reilly.ChartField.from_potential(
        shape, Potential(shape.space_form, shape.axis))
    b = np.array([0.3, 0.5, 0.2])
    f = reilly.ChartField.from_ambient(
        shape, lambda x: float(x @ b) + 0.1 * float(x @ x),
        lambda x: b + 0.2 * x, lambda x: 0.2 * np.eye(3))
    led = reilly.reilly_residual(shape, V, f, QUAD, full=True)
    assert led.boundary_h != 0.0
    assert led.relative_residual <= 1e-12


def test_reilly_fd_refinement_order():
    """With finite-difference field oracles the residual shrinks at
    second order in the step."""
    shape = perturbed(eps=0.02)
    V = unit_field(2)

    def scalar(p):
        return math.cos(p[0]) + 0.3 * math.cos(2.0 * p[0])

    res = []
    for step in (4e-3, 2e-3, 1e-3):
        f = reilly.ChartField.from_callable_fd(scalar, 2, step=step)
        led = reilly.reilly_residual(shape, V, f, QUAD)
        res.append(led.relative_residual)
    order1 = math.log2(res[0] / res[1])
    order2 = math.log2(res[1] / res[2])
    assert order1 >= 1.7
    assert order2 >= 1.7


def test_reilly_cap_boundary_shape_term_vanishes():
    """On a cap with V = V_a the boundary factor (V h - V_mu g) is zero,
    so the shape term vanishes for any boundary-tangential data."""
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.2, n=2)
    pot = Potential(sf, cap.axis)
    V = reilly.ChartField.from_potential(cap, pot)
    b = np.array([0.4, -0.2, 0.3])
    f = reilly.ChartField.from_ambient(
        cap, lambda x: float(x @ b) + 0.05 * float(x @ x),
        lambda x: b + 0.1 * x, lambda x: 0.1 * np.eye(3))
    led = reilly.reilly_residual(cap, V, f, QUAD, full=True)
    assert abs(led.boundary_h) <= 1e-12 * max(1.0, abs(led.bulk_lhs))
    assert led.relative_residual <= 1e-12


def test_solve_neumann_cap_zero_solution():
    """Constant H_k data: right side vanishes, solution is the kernel
    direction, removed by the weighted orthogonality constraint."""
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.2, n=2)
    for pot in (None, Potential(sf, cap.axis)):
        rep = reilly.proof_chain_check(cap, pot, 1, QUAD, n_cells=600)
        assert abs(rep.final_lhs) <= 1e-20
        assert abs(rep.final_rhs) <= 1e-20
        assert rep.pde_residual <= 1e-7
        assert rep.final_ok


def test_proof_chain_perturbed_unweighted():
    shape = perturbed(eps=0.03)
    rep = reilly.proof_chain_check(shape, None, 1, QUAD, n_cells=2000)
    assert rep.pde_residual <= 1e-7
    assert rep.pairing_residual <= 1e-6
    assert rep.trace_slack >= 0.0
    assert rep.slack_residual <= 1e-5
    assert rep.cauchy_schwarz_ok
    assert rep.final_ok


def test_proof_chain_perturbed_weighted():
    shape = perturbed(eps=0.03)
    pot = Potential(shape.space_form, shape.axis)
    rep = reilly.proof_chain_check(shape, pot, 1, QUAD, n_cells=2000)
    assert rep.pde_residual <= 1e-7
    assert rep.pairing_residual <= 1e-6
    assert rep.trace_slack >= 0.0
    assert rep.slack_residual <= 1e-5
    assert rep.final_ok


def test_proof_chain_matches_main_inequality():
    from freeform import functionals as fn

    shape = perturbed(eps=0.03)
    rep = reilly.proof_chain_check(shape, None, 1, QUAD, n_cells=1200)
    check = fn.check_main_inequality(shape, QUAD, 1)
    assert rep.final_lhs == pytest.approx(check.lhs, rel=1e-6)
    assert rep.final_rhs == pytest.approx(check.rhs, rel=1e-6)


@pytest.mark.parametrize("K,R", [(-1, 0.8), (0, 1.0), (1, 0.9)])
def test_substatic_consistency_all_space_forms(K, R):
    shape = perturbed(K=K, R=R, eps=0.02)
    pot = Potential(shape.space_form, shape.axis)
    assert reilly.substatic_consistency(shape, pot, QUAD) <= 1e-8


def test_substatic_flat_disk_both_sides_zero():
    sf, ball = unit_ball()
    disk = geo.make_flat_disk(sf, ball, n=2)
    pot = Potential(sf, np.array([0.0, 0.0, 1.0]))
    assert reilly.substatic_consistency(disk, pot, QUAD) <= 1e-14


def test_substatic_cap_closed_form_and_positivity():
    """Umbilic cap: tensor = (V/rho - V_nu)((n-1)/rho) g in the
    orthonormal frame; strictly positive for the axis potential."""
    sf, ball = unit_ball()
    rho = 1.2
    cap = geo.make_cap(sf, ball, rho, n=2)
    pot = Potential(sf, cap.axis)
    V = reilly.ChartField.from_potential(cap, pot)
    worst_eig = math.inf
    data = geo.surface_data(cap, QUAD)
    for fr in data.frames:
        v = V.value(fr.p)
        vhess = V.hessian(cap, fr)
        vlap = float(np.trace(fr.g_inv @ vhess))
        Q = vlap * fr.g - vhess + v * geo.ricci_tensor(fr, 0)
        from freeform import symalg
        Q_on = symalg.to_orthonormal(Q, fr.g, mixed=False)
        v_nu = float(np.dot(pot.grad(fr.x), fr.nu_flat)) / fr.e_u
        expected = (v / rho - v_nu) * (cap.n - 1) / rho * np.eye(cap.n)
        np.testing.assert_allclose(Q_on, expected, atol=1e-12)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(Q_on).min()))
    assert worst_eig > 0.0


def test_solver_requires_profile():
    sf, ball = unit_ball()
    with pytest.raises(reilly.SolverError):
        reilly.solve_neumann(
            geo.make_flat_disk(sf, BallDomain(sf, 1.0), n=1)
            if False else _fake_low_dim(), unit_field(1), lambda fr: 0.0)


def _fake_low_dim():
    class Stub:
        n = 1
    return Stub()


def test_solve_neumann_uses_few_stacked_frames(monkeypatch):
    """The coefficients come from stacked frames: centres, edges and
    collocation points, not one frame per grid point."""
    shape = perturbed(K=1, R=0.9, eps=0.03, n=3)
    pot = Potential(shape.space_form, shape.axis)
    calls = []
    frame_at = geo.frame_at

    def counting(immersion, space_form, p):
        calls.append(np.shape(p))
        return frame_at(immersion, space_form, p)

    monkeypatch.setattr(geo, "frame_at", counting)
    sol = reilly.solve_neumann(shape, reilly.ChartField.from_potential(shape, pot),
                               lambda fr: np.zeros(len(fr.x)), n_cells=400)
    assert len(calls) <= 4
    assert sum(s[0] for s in calls) >= 2 * 400
    assert sol.pde_residual <= 1e-6


def test_solve_neumann_rejects_non_symmetric_shape():
    sf, ball = unit_ball()
    cap = geo.make_cap(sf, ball, 1.3, n=2)
    generic = geo.GenericImmersion(2, sf, ball, cap.map)
    with pytest.raises(reilly.SolverError):
        reilly.solve_neumann(generic, unit_field(2), lambda fr: np.zeros(len(fr.x)))


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_stacked_field_operators_match_single_points(K):
    shape = perturbed(K=K, R=0.9, eps=0.03, n=3)
    sf = shape.space_form
    fields = (reilly.ChartField.from_potential(shape, Potential(sf, shape.axis)),
              smooth_profile_field(n=3))
    p = np.array([shape._generic_point(t) for t in (0.1, 0.4, 0.75, 1.0)])
    fr = geo.frame_at(shape, sf, p)
    singles = [geo.frame_at(shape, sf, q) for q in p]
    for field in fields:
        for stacked, single in (
                (field.value(p), [field.value(q) for q in p]),
                (field.d1(p), [field.d1(q) for q in p]),
                (field.d2(p), [field.d2(q) for q in p]),
                (field.gradient(shape, fr), [field.gradient(shape, s) for s in singles]),
                (field.hessian(shape, fr), [field.hessian(shape, s) for s in singles]),
                (field.laplacian(shape, fr), [field.laplacian(shape, s) for s in singles])):
            np.testing.assert_allclose(stacked, np.array(single), rtol=1e-12, atol=1e-12)


def test_proof_chain_residual_tolerances():
    shape = perturbed(eps=0.03)
    rep = reilly.proof_chain_check(shape, None, 1, QUAD, n_cells=2000)
    assert set(rep.residuals) == set(reilly.RESIDUAL_TOLS)
    assert rep.residuals_ok
    rep.pde_residual = 2 * reilly.RESIDUAL_TOLS["pde_residual"]
    assert not rep.residuals_ok
