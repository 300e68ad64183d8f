"""Weighted integral identity machinery on a hypersurface with boundary.

The hypersurface itself plays the role of the manifold-with-boundary: its
interior carries the weighted Bochner-type identity, its boundary circle
(or sphere) carries the second-fundamental-form terms.  This module
provides intrinsic calculus on chart scalar fields, a residual check of
the full identity, a solver for the weighted Neumann-type problem that
drives the main inequality, and a step-by-step numerical audit of the
proof chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.interpolate
import scipy.sparse
import scipy.sparse.linalg

from . import geometry as geo
from . import symalg
from .geometry import Curve, Immersion, PointFrame, QuadratureSpec
from .spaceform import Potential


class SolverError(RuntimeError):
    """The linear solve for the Neumann-type problem failed or is unreliable."""


# bounds on the proof chain's internal residuals: the collocation residual
# of the solve, the integration-by-parts pairing and the trace-inequality
# slack against the discarded identity terms
RESIDUAL_TOLS = {"pde_residual": 1e-7, "pairing_residual": 1e-6,
                 "slack_residual": 1e-5}


# ---------------------------------------------------------------------------
# scalar fields on a chart with derivative oracles


class ChartField:
    """Scalar field on the chart of an immersion with first and second
    chart derivatives.

    Intrinsic gradient, Hessian and Laplacian are assembled from the
    chart derivatives and the Christoffel symbols of the induced metric.
    The fields built by ``from_profile``, ``from_ambient`` (given ambient
    callables that do) and ``from_potential`` take a chart point (n,) or a
    stack (M, n), as do the operators on a stacked frame; a field built
    from per-point callables works on single points.
    """

    def __init__(self, value: Callable[[np.ndarray], float],
                 d1: Callable[[np.ndarray], np.ndarray],
                 d2: Callable[[np.ndarray], np.ndarray]):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def from_profile(curve: Curve, n: int) -> "ChartField":
        """Rotationally symmetric field f(t) on an n-dimensional chart."""

        def d1(p):
            p = np.asarray(p, dtype=float)
            out = np.zeros(p.shape)
            out[..., 0] = curve.d1(p[..., 0])
            return out

        def d2(p):
            p = np.asarray(p, dtype=float)
            out = np.zeros(p.shape + (n,))
            out[..., 0, 0] = curve.d2(p[..., 0])
            return out

        return ChartField(lambda p: curve.v(np.asarray(p, dtype=float)[..., 0]), d1, d2)

    @staticmethod
    def from_ambient(immersion: Immersion,
                     value: Callable[[np.ndarray], float],
                     grad: Callable[[np.ndarray], np.ndarray],
                     hess: Callable[[np.ndarray], np.ndarray]) -> "ChartField":
        """Restriction of an ambient function (given in flat model
        coordinates with flat derivatives) to the hypersurface."""

        def val(p):
            return np.asarray(value(immersion.map(p)), dtype=float)[()]

        def d1(p):
            x, J = immersion._chart(p, 1)
            return np.einsum("...ai,...a->...i", J, grad(x))

        def d2(p):
            x, J, Hs = immersion._chart(p, 2)
            G = grad(x)
            return (np.swapaxes(J, -1, -2) @ hess(x) @ J
                    + np.einsum("...a,...aij->...ij", G, Hs))

        return ChartField(val, d1, d2)

    @staticmethod
    def from_potential(immersion: Immersion, potential: Potential) -> "ChartField":
        return ChartField.from_ambient(immersion, potential.value,
                                       potential.grad, potential.hess)

    @staticmethod
    def from_callable_fd(value: Callable[[np.ndarray], float], n: int,
                         step: float = 1e-5) -> "ChartField":
        """Field with finite-difference derivative oracles (for tests)."""

        def d1(p):
            out = np.zeros(n)
            for i in range(n):
                pp, pm = np.array(p, dtype=float), np.array(p, dtype=float)
                pp[i] += step
                pm[i] -= step
                out[i] = (value(pp) - value(pm)) / (2.0 * step)
            return out

        def d2(p):
            out = np.zeros((n, n))
            f0 = value(np.asarray(p, dtype=float))
            for i in range(n):
                for j in range(i, n):
                    pa = np.array(p, dtype=float)
                    if i == j:
                        pa[i] += step
                        fp = value(pa)
                        pa[i] -= 2.0 * step
                        fm = value(pa)
                        out[i, i] = (fp - 2.0 * f0 + fm) / step**2
                    else:
                        acc = 0.0
                        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                            pa = np.array(p, dtype=float)
                            pa[i] += si * step
                            pa[j] += sj * step
                            acc += si * sj * value(pa)
                        out[i, j] = out[j, i] = acc / (4.0 * step**2)
            return out

        return ChartField(lambda p: float(value(np.asarray(p, dtype=float))), d1, d2)

    # intrinsic operators ---------------------------------------------------

    def gradient(self, immersion: Immersion, fr: PointFrame) -> np.ndarray:
        """Chart components of the metric gradient (index up)."""
        return np.einsum("...ij,...j->...i", fr.g_inv, self.d1(fr.p))

    def hessian(self, immersion: Immersion, fr: PointFrame) -> np.ndarray:
        """Covariant Hessian, both indices down."""
        Gamma = geo.christoffels(immersion, immersion.space_form, fr)
        df = self.d1(fr.p)
        return self.d2(fr.p) - np.einsum("...kij,...k->...ij", Gamma, df)

    def laplacian(self, immersion: Immersion, fr: PointFrame) -> float | np.ndarray:
        return np.einsum("...ij,...ji->...", fr.g_inv, self.hessian(immersion, fr))


# ---------------------------------------------------------------------------
# boundary calculus


@dataclass
class BoundaryCalculus:
    """Intrinsic boundary quantities of a field at a boundary frame.

    The boundary submanifold is the t=1 slice of the chart; its chart
    coordinates are the angular ones.  ``h`` is its second fundamental
    form with respect to the outward conormal of the slice.
    """

    f: float
    f_mu: float
    grad_tan: np.ndarray   # boundary-chart components, index up
    lap_tan: float
    g_tan: np.ndarray
    h: np.ndarray          # second fundamental form of the slice, indices down
    H: float               # its trace


def boundary_calculus(immersion: Immersion, fr: PointFrame,
                      field: ChartField) -> BoundaryCalculus:
    """All boundary-intrinsic data of a field at a boundary frame.

    Assumes the chart is orthogonal between t and the angular block at
    the boundary (true for all built-in shapes); this is asserted.
    """
    n = immersion.n
    g = fr.g
    gt = g[0, 0]
    off = float(np.abs(g[0, 1:]).max()) if n > 1 else 0.0
    if off > 1e-9 * (1.0 + abs(gt)):
        raise SolverError("chart is not t-orthogonal at the boundary")
    sqrt_gt = math.sqrt(gt)
    g_tan = g[1:, 1:]
    g_tan_inv = np.linalg.inv(g_tan)

    df = field.d1(fr.p)
    ddf = field.d2(fr.p)
    Gamma = geo.christoffels(immersion, immersion.space_form, fr)

    f_mu = float(df[0]) / sqrt_gt
    grad_tan = g_tan_inv @ df[1:]

    # boundary Christoffels from the angular block of the metric derivative
    dg = geo.metric_derivatives(immersion, immersion.space_form, fr)
    Gam_b = geo.christoffel_symbols(g_tan_inv, dg[1:, 1:, 1:])
    # with boundary Christoffels of the induced slice metric, the chart
    # second derivatives already give the intrinsic boundary Hessian
    hess_tan = ddf[1:, 1:] - np.einsum("kij,k->ij", Gam_b, df[1:])
    h_b = -Gamma[0, 1:, 1:] * sqrt_gt
    lap_tan = float(np.trace(g_tan_inv @ hess_tan))
    H_b = float(np.trace(g_tan_inv @ h_b))
    return BoundaryCalculus(f=float(field.value(fr.p)), f_mu=f_mu,
                            grad_tan=grad_tan, lap_tan=lap_tan,
                            g_tan=g_tan, h=h_b, H=H_b)


# ---------------------------------------------------------------------------
# the weighted integral identity


@dataclass
class ReillyLedger:
    """All terms of the weighted integral identity and their mismatch."""

    bulk_lhs: float          # integral of V (Df^2 - |D^2 f|^2) type combination
    bulk_substatic: float    # integral of Q(Y, Y)
    boundary_h: float        # boundary term with the slice shape operator
    boundary_HN: float       # boundary terms with f_mu and the slice Laplacian
    residual: float
    scale: float

    @property
    def relative_residual(self) -> float:
        return self.residual / self.scale


def reilly_residual(immersion: Immersion, V: ChartField, f: ChartField,
                      quad: QuadratureSpec, full: bool | None = None) -> ReillyLedger:
    """Mismatch of the weighted Bochner-type identity for the pair (V, f).

    The identity equates a bulk integral of V (traced Hessian combination)
    against the quadratic form of the sub-static tensor plus boundary
    integrals built from the slice geometry.  Everything is evaluated
    independently, so a small residual certifies all ingredients at once
    (Christoffels, Ricci via the Gauss relation, boundary shape operator,
    intrinsic Laplacians).
    """
    if full is None:
        full = immersion.n == 2
    data = geo.surface_data(immersion, quad, full=full)
    n = immersion.n

    bulk_lhs = 0.0
    bulk_quad = 0.0
    for fr in data.frames:
        v = V.value(fr.p)
        fhess = f.hessian(immersion, fr)
        flap = float(np.trace(fr.g_inv @ fhess))
        vhess = V.hessian(immersion, fr)
        vlap = float(np.trace(fr.g_inv @ vhess))
        A = fhess - (vhess / v) * f.value(fr.p)
        trA = flap - (vlap / v) * f.value(fr.p)
        A_mixed = fr.g_inv @ A
        normA2 = float(np.trace(A_mixed @ A_mixed))
        bulk_lhs += v * (trA**2 - normA2) * fr.weight

        ric = geo.ricci_tensor(fr, immersion.space_form.K)
        Q = vlap * fr.g - vhess + v * ric
        Y = f.gradient(immersion, fr) - (V.gradient(immersion, fr) / v) * f.value(fr.p)
        bulk_quad += float(Y @ Q @ Y) * fr.weight

    bdata = geo.boundary_data(immersion, quad, full=full)
    b_shape = 0.0
    b_mixed = 0.0
    for fr in bdata.frames:
        fb = boundary_calculus(immersion, fr, f)
        vb = boundary_calculus(immersion, fr, V)
        v = vb.f
        Yt = fb.grad_tan - (vb.grad_tan / v) * fb.f
        M = vb.f * fb.h - vb.f_mu * fb.g_tan
        b_shape += float(Yt @ M @ Yt) * fr.weight
        u = fb.f_mu - (vb.f_mu / v) * fb.f
        lap_comb = fb.lap_tan - (vb.lap_tan / v) * fb.f
        b_mixed += (v * fb.H * u**2 + 2.0 * v * u * lap_comb) * fr.weight

    residual = bulk_lhs - (bulk_quad + b_shape + b_mixed)
    scale = max(1.0, abs(bulk_lhs), abs(bulk_quad), abs(b_shape), abs(b_mixed))
    return ReillyLedger(bulk_lhs=bulk_lhs, bulk_substatic=bulk_quad,
                          boundary_h=b_shape, boundary_HN=b_mixed,
                          residual=abs(residual), scale=scale)


# ---------------------------------------------------------------------------
# weighted Neumann-type problem on a symmetric profile


@dataclass
class NeumannSolution:
    """Solution of the weighted linear problem on a symmetric profile.

    ``field`` is a ChartField built on a quintic spline of the cell
    values; ``pde_residual`` is a relative collocation residual of the
    strong form between grid points.
    """

    field: ChartField
    values: np.ndarray
    centers: np.ndarray
    pde_residual: float
    compat_defect: float


def solve_neumann(immersion: Immersion, V: ChartField, rhs_fn,
                  n_cells: int = 2000) -> NeumannSolution:
    """Solve lap f = (lap V / V) f + rhs on a symmetric profile with the
    oblique boundary condition f_mu = (V_mu / V) f at t=1.

    The coefficients are evaluated on stacked frames: V must accept a
    stack of chart points (M, n), as the fields of ``ChartField.from_profile``,
    ``from_potential`` and the constant weight of ``proof_chain_check`` do,
    and rhs_fn(frame) receives a stacked frame and returns one value per
    node.  The right-hand side must be rotationally symmetric.  The problem
    has the kernel direction f = V when rhs integrates to zero against
    V dA; the solve is regularized by a bordered system enforcing the
    weighted orthogonality integral of f against V.

    Conservative cell-centered finite volumes in t: the degenerate axis
    t=0 needs no boundary condition because the flux coefficient
    W g^{tt} vanishes there with the orbit radius.
    """
    if immersion.n < 2:
        raise SolverError("profile solver needs chart dimension >= 2")
    if not immersion.symmetric:
        raise SolverError("profile solver needs a rotationally symmetric shape")
    N = n_cells
    edges = np.linspace(0.0, 1.0, N + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dt = edges[1] - edges[0]

    def profile(ts: np.ndarray):
        """Stacked frame at the parameters ts, the area density W without
        the orbit-sphere constant, and the flux coefficient P = W / g_tt."""
        fr = geo.frame_at(immersion, immersion.space_form, immersion._generic_point(ts))
        W = immersion.area_density(ts)
        return fr, W, W / fr.g[:, 0, 0]

    def reaction(fr: PointFrame):
        """V, q = lap V / V and the right-hand side on a stacked frame."""
        v = V.value(fr.p)
        return v, V.laplacian(immersion, fr) / v, rhs_fn(fr)

    fr_c, W_c, _ = profile(centers)
    V_c, q_c, r_c = reaction(fr_c)
    # flux coefficient at the edges; it vanishes on the axis
    fr_e, _, P_inner = profile(edges[1:])
    P_e = np.concatenate([[0.0], P_inner])

    # Robin coefficient at t=1: f'(1) = c_R f(1) with c_R = sqrt(g_tt) V_mu/V
    p1 = immersion._generic_point(1.0)
    gtt1 = fr_e.g[-1, 0, 0]
    v1 = V.value(p1)
    vmu1 = float(V.d1(p1)[0]) / math.sqrt(gtt1)
    c_R = math.sqrt(gtt1) * vmu1 / v1
    # ghost-cell elimination of the oblique condition, second order:
    # flux = P(1) c_R f(1), f(1) = f_{N-1} / (1 - c_R dt/2)
    denom = 1.0 - 0.5 * c_R * dt
    if abs(denom) < 1e-12:
        raise SolverError("oblique boundary coefficient resonates with the grid")

    # conservative fluxes between neighbouring cells, the Robin flux out of
    # the last cell, and the reaction term on the diagonal
    k = P_e / dt
    diag = -k[:N]
    diag[:-1] -= k[1:N]
    diag[-1] += P_e[N] * c_R / denom
    diag += -q_c * W_c * dt
    # bordered column and row: the Lagrange multiplier spreads the
    # compatibility defect along the kernel direction, and the weighted
    # integral of f against V vanishes
    border = V_c * W_c * dt
    cells = np.arange(N)
    last = np.full(N, N)
    rows = np.concatenate([cells, cells[1:], cells[:-1], cells, last])
    cols = np.concatenate([cells, cells[:-1], cells[1:], last, cells])
    vals = np.concatenate([diag, k[1:N], k[1:N], border, border])
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(N + 1, N + 1))
    b = np.append(W_c * r_c * dt, 0.0)
    sol = scipy.sparse.linalg.spsolve(A, b)
    f = sol[:N]
    compat = abs(float(sol[N]))
    if not np.all(np.isfinite(f)):
        raise SolverError("linear solve produced non-finite values")

    spline = scipy.interpolate.make_interp_spline(centers, f, k=5)
    d1s = spline.derivative(1)
    d2s = spline.derivative(2)
    curve = Curve(lambda t: spline(t)[()], lambda t: d1s(t)[()], lambda t: d2s(t)[()])
    field = ChartField.from_profile(curve, immersion.n)

    # strong-form collocation residual between grid points, dP/dt by
    # central differences
    ts = np.linspace(0.05, 0.95, 121)
    h_fd = 1e-6
    fr_k, W_k, P_k = profile(np.concatenate([ts, ts + h_fd, ts - h_fd]))
    _, q_k, r_k = reaction(fr_k)
    P, Pp, Pm = np.split(P_k, 3)
    W, q, r = W_k[:ts.size], q_k[:ts.size], r_k[:ts.size]
    dP = (Pp - Pm) / (2.0 * h_fd)
    lap = (dP * d1s(ts) + P * d2s(ts)) / W
    res = float(np.max(np.abs(lap - q * spline(ts) - r) * W))
    scale = max(1.0, float(np.max(np.abs(W * r))), float(np.max(np.abs(P * d2s(ts)))))
    return NeumannSolution(field=field, values=f, centers=centers,
                           pde_residual=res / scale, compat_defect=compat)


# ---------------------------------------------------------------------------
# proof chain audit


@dataclass
class ProofChainReport:
    """Numerical audit of the chain from the solved problem to the
    curvature inequality."""

    pairing_lhs: float
    pairing_rhs: float
    pairing_residual: float
    trace_lhs: float
    trace_rhs: float
    trace_slack: float
    discarded: float
    slack_residual: float
    final_lhs: float
    final_rhs: float
    cauchy_schwarz_ok: bool
    final_ok: bool
    pde_residual: float

    @property
    def residuals(self) -> dict:
        """The residuals bounded by ``RESIDUAL_TOLS``, by name."""
        return {name: getattr(self, name) for name in RESIDUAL_TOLS}

    @property
    def residuals_ok(self) -> bool:
        return all(getattr(self, name) <= tol for name, tol in RESIDUAL_TOLS.items())


def proof_chain_check(immersion: Immersion, potential: Potential | None, k: int,
                      quad: QuadratureSpec, n_cells: int = 2000) -> ProofChainReport:
    """Re-derive the main inequality step by step on one shape.

    Solves the auxiliary problem with right-hand side H_k minus its
    weighted average, then checks (a) the integration-by-parts pairing
    between the curvature deviation and the traceless Newton tensor,
    (b) the trace inequality whose slack equals the discarded identity
    terms, and (c) the Cauchy-Schwarz assembly of the final bound.
    """
    n = immersion.n
    if potential is None:
        V = ChartField(lambda p: np.ones(np.shape(p)[:-1])[()],
                       lambda p: np.zeros(np.shape(p)),
                       lambda p: np.zeros(np.shape(p) + (n,)))
    else:
        V = ChartField.from_potential(immersion, potential)

    data = geo.surface_data(immersion, quad, full=False)
    vs = np.array([V.value(fr.p) for fr in data.frames])
    Hk, w = data.H[:, k], data.weights
    hbar = float(np.sum(vs * Hk * w) / np.sum(vs * w))
    pairing_lhs = float(np.sum(vs * (Hk - hbar) ** 2 * w))
    final_rhs_int = float(np.sum(vs * data.traceless_norm2[:, k] * w))

    neumann = solve_neumann(
        immersion, V, lambda fr: symalg.mean_curvatures(fr.kappa)[..., k] - hbar,
        n_cells=n_cells)
    f = neumann.field

    pairing_rhs = 0.0
    trace_lhs = 0.0
    trace_rhs = 0.0
    for fr, v, T0 in zip(data.frames, vs, data.traceless_newton[:, k]):
        fhess = f.hessian(immersion, fr)
        vhess = V.hessian(immersion, fr)
        A = fr.g_inv @ (fhess - (vhess / v) * f.value(fr.p))
        trA = float(np.trace(A))
        A0 = A - (trA / n) * np.eye(n)

        pairing_rhs += -v * float(np.trace(T0 @ A0)) * fr.weight * n / (n - k)
        trace_lhs += v * float(np.trace(A0 @ A0)) * fr.weight
        trace_rhs += (n - 1) / n * v * trA**2 * fr.weight

    ledger = reilly_residual(immersion, V, f, quad, full=False)
    discarded = ledger.bulk_substatic + ledger.boundary_h + ledger.boundary_HN
    trace_slack = trace_rhs - trace_lhs
    # slack of the trace inequality equals the discarded identity terms
    slack_residual = abs(trace_slack - discarded) / max(1.0, abs(trace_rhs))

    final_lhs = pairing_lhs
    final_rhs = n * (n - 1) / (n - k) ** 2 * final_rhs_int
    # Cauchy-Schwarz route: lhs <= (n/(n-k)) sqrt(int V|T0|^2) sqrt(int V|A0|^2)
    cs_bound = (n / (n - k)) * math.sqrt(max(final_rhs_int, 0.0)) * math.sqrt(max(trace_lhs, 0.0))
    cs_ok = pairing_lhs <= cs_bound * (1.0 + 1e-8) + 1e-12
    final_ok = final_lhs <= final_rhs * (1.0 + 1e-8) + 1e-12

    return ProofChainReport(
        pairing_lhs=pairing_lhs, pairing_rhs=pairing_rhs,
        pairing_residual=abs(pairing_lhs - pairing_rhs) / max(1.0, abs(pairing_lhs)),
        trace_lhs=trace_lhs, trace_rhs=trace_rhs, trace_slack=trace_slack,
        discarded=discarded, slack_residual=slack_residual,
        final_lhs=final_lhs, final_rhs=final_rhs,
        cauchy_schwarz_ok=cs_ok, final_ok=final_ok,
        pde_residual=neumann.pde_residual)


# ---------------------------------------------------------------------------
# sub-static tensor consistency


def substatic_consistency(immersion: Immersion, potential: Potential,
                          quad: QuadratureSpec) -> float:
    """Max relative mismatch between the intrinsic sub-static tensor and
    its factorized form over the surface quadrature nodes.

    The intrinsic side uses chart Laplacian, Hessian and the Gauss-relation
    Ricci tensor; the factorized side only uses the shape operator and the
    normal derivative of the potential, so agreement cross-validates both.
    """
    V = ChartField.from_potential(immersion, potential)
    data = geo.surface_data(immersion, quad, full=False)
    worst = 0.0
    for fr in data.frames:
        v = V.value(fr.p)
        vhess = V.hessian(immersion, fr)
        vlap = float(np.trace(fr.g_inv @ vhess))
        ric = geo.ricci_tensor(fr, immersion.space_form.K)
        Q = vlap * fr.g - vhess + v * ric
        Q_on = symalg.to_orthonormal(Q, fr.g, mixed=False)

        V_nu = float(np.dot(potential.grad(fr.x), fr.nu_flat)) / fr.e_u
        F = symalg.substatic_tensor(fr.h, fr.g, v, V_nu)
        scale = max(1.0, float(np.abs(F).max()))
        worst = max(worst, float(np.abs(Q_on - F).max()) / scale)
    return worst
