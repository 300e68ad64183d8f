"""Parametric immersions into space-form balls.

All built-in shapes are rotationally symmetric about an axis: a profile
curve (r(t), z(t)) on t in [0,1] swept by an (n-1)-sphere orbit.  Frames
(metric, second fundamental form, normal, principal curvatures) are
computed in flat model coordinates and pushed through the conformal
factor.  n=2 shapes additionally support full 2-parameter charts for
non-symmetric integrands.

Chart points are one point of shape (n,) or a stack of shape (M, n); the
chart maps, ``frame_at`` and the metric derivatives then return fields
with the same leading node axis, through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from . import symalg
from .spaceform import BallDomain, DomainError, SpaceForm


class DegenerateImmersionError(ValueError):
    """Induced metric singular at a chart point."""


class FreeBoundaryViolationError(ValueError):
    """Boundary does not meet the ball boundary orthogonally to tolerance."""


class ConstraintProjectionError(RuntimeError):
    """Endpoint correction of a perturbed profile failed to converge."""


POSITION_TOL = 1e-10
ANGLE_TOL = 1e-8
HYPOTHESIS_TOL = 1e-10


def sphere_area(m: int) -> float:
    """Hausdorff measure of the unit m-sphere S^m."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# ---------------------------------------------------------------------------
# profile curves


@dataclass(frozen=True)
class Curve:
    """Scalar function of t with analytic first and second derivatives.

    The built-in curves take a float or an array of t values; a constant
    may come back as a float, which broadcasts against the array.
    """

    v: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]


def trig_curve(const: float, sin_amps: dict[float, float] | None = None,
               cos_amps: dict[float, float] | None = None) -> Curve:
    """const + sum a_w sin(w t) + sum b_w cos(w t)."""
    ws = np.array(list((sin_amps or {}).keys()), dtype=float)
    a_s = np.array(list((sin_amps or {}).values()), dtype=float)
    wc = np.array(list((cos_amps or {}).keys()), dtype=float)
    a_c = np.array(list((cos_amps or {}).values()), dtype=float)

    def v(t):
        t = np.asarray(t, dtype=float)[..., None]
        return const + np.sin(t * ws) @ a_s + np.cos(t * wc) @ a_c

    def d1(t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.cos(t * ws) @ (a_s * ws) - np.sin(t * wc) @ (a_c * wc)

    def d2(t):
        t = np.asarray(t, dtype=float)[..., None]
        return -(np.sin(t * ws) @ (a_s * ws * ws)) - np.cos(t * wc) @ (a_c * wc * wc)

    return Curve(v, d1, d2)


# ---------------------------------------------------------------------------
# sphere orbit embedding


@cache
def _embedding_factors(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor tables of the hyperspherical embedding of S^m.

    Component i of the embedding is prod_{j<i} sin(theta_j) times
    cos(theta_i) if i<m; a derivative replaces the factor of each
    differentiated angle by its derivative.  Entry [j, r] gives the
    factor of angle j in product r as (const, sin, cos) coefficients, one
    of 1, +-sin, +-cos or 0; the products are first the d = m+1
    components, then the d*m first and the d*m*m second derivatives.
    """
    d = m + 1
    one, sin, cos, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    neg_sin, neg_cos = (0, -1, 0), (0, 0, -1)

    def row(i: int, orders: tuple[int, ...]) -> list[tuple[int, int, int]]:
        out = []
        for j in range(m):
            k = orders.count(j)
            if j < i:
                out.append((sin, cos, neg_sin, neg_cos)[k % 4])
            elif j == i:
                out.append((cos, neg_sin, neg_cos, sin)[k % 4])
            else:
                out.append(one if k == 0 else zero)
        return out

    rows = [row(i, ()) for i in range(d)]
    rows += [row(i, (a,)) for i in range(d) for a in range(m)]
    rows += [row(i, (a, b)) for i in range(d) for a in range(m) for b in range(m)]
    table = np.array(rows, dtype=float).reshape(len(rows), m, 3).transpose(2, 1, 0)
    table.setflags(write=False)  # cached and shared by every caller
    return table[0], table[1], table[2]


def sphere_embedding(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hyperspherical embedding of S^m with its first two derivatives.

    theta has m entries, or is a stack (..., m); returns (omega, d_omega,
    d2_omega) with shapes (..., m+1), (..., m+1, m), (..., m+1, m, m).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lead, m = theta.shape[:-1], theta.shape[-1]
    d = m + 1
    const, c_sin, c_cos = _embedding_factors(m)
    sin = np.sin(theta)[..., None]
    cos = np.cos(theta)[..., None]

    def factor(j: int) -> np.ndarray:
        return const[j] + c_sin[j] * sin[..., j, :] + c_cos[j] * cos[..., j, :]

    vals = factor(0)
    for j in range(1, m):
        vals = vals * factor(j)
    w = vals[..., :d]
    dw = vals[..., d:d + d * m].reshape(lead + (d, m))
    d2w = vals[..., d + d * m:].reshape(lead + (d, m, m))
    return w, dw, d2w


def generalized_cross(J: np.ndarray) -> np.ndarray:
    """Vector orthogonal to the n columns of an (n+1) x n matrix, or one
    per matrix of a stack (..., n+1, n)."""
    d = J.shape[-2]
    # rows of the minor that leaves out row i: r + (r >= i)
    r = np.arange(d - 1)
    minors = J[..., r + (r >= np.arange(d)[:, None]), :]
    return (-1.0) ** np.arange(d) * np.linalg.det(minors)


def _axis_rotation(axis: np.ndarray, dim: int) -> np.ndarray:
    """Orthogonal map sending the last coordinate direction to ``axis``."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    e = np.zeros(dim)
    e[-1] = 1.0
    w = e - axis
    nw2 = float(np.dot(w, w))
    if nw2 < 1e-28:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(w, w) / nw2


# ---------------------------------------------------------------------------
# immersions


class Immersion:
    """Rotationally symmetric hypersurface from a profile curve.

    Chart coordinates are (t, theta_1, ..., theta_{n-1}), t in [0,1].
    The model point is Q (r(t) omega(theta), z(t)) with Q rotating the
    canonical axis onto the requested one.
    """

    def __init__(self, n: int, space_form: SpaceForm, ball: BallDomain | None,
                 r: Curve, z: Curve, kind: str, params: dict,
                 axis: np.ndarray | None = None, closed: bool = False,
                 orientation_hint: np.ndarray | None = None):
        self.n = n
        self.space_form = space_form
        self.ball = ball
        self.r = r
        self.z = z
        self.kind = kind
        self.params = params
        self.closed = closed
        self.symmetric = True
        self.derivative_mode = "analytic"
        dim = n + 1
        self.axis = np.zeros(dim) if axis is None else np.asarray(axis, dtype=float)
        if axis is None:
            self.axis[-1] = 1.0
        self.axis = self.axis / np.linalg.norm(self.axis)
        self.Q = _axis_rotation(self.axis, dim)
        self._cache: dict = {}
        self._sign = 1.0
        self._sign = self._orientation_sign(orientation_hint)

    # -- chart maps ---------------------------------------------------------

    def _chart(self, p: np.ndarray, order: int) -> list[np.ndarray]:
        """[x, J, H] up to the given derivative order at chart points p,
        one point or a stack, from one evaluation of the orbit embedding
        and of each profile-curve derivative."""
        p = np.asarray(p, dtype=float)
        lead, t = p.shape[:-1], p[..., 0]
        w, dw, d2w = sphere_embedding(p[..., 1:])
        n = self.n
        r = np.asarray(self.r.v(t))[..., None]
        y = np.empty(lead + (n + 1,))
        y[..., :n] = r * w
        y[..., n] = self.z.v(t)
        out = [y @ self.Q.T]
        if order >= 1:
            r1 = np.asarray(self.r.d1(t))[..., None]
            J = np.zeros(lead + (n + 1, n))
            J[..., :n, 0] = r1 * w
            J[..., n, 0] = self.z.d1(t)
            J[..., :n, 1:] = r[..., None] * dw
            out.append(self.Q @ J)
        if order >= 2:
            H = np.zeros(lead + (n + 1, n, n))
            H[..., :n, 0, 0] = np.asarray(self.r.d2(t))[..., None] * w
            H[..., n, 0, 0] = self.z.d2(t)
            H[..., :n, 0, 1:] = r1[..., None] * dw
            H[..., :n, 1:, 0] = r1[..., None] * dw
            H[..., :n, 1:, 1:] = r[..., None, None] * d2w
            out.append((self.Q @ H.reshape(lead + (n + 1, n * n))).reshape(H.shape))
        return out

    def map(self, p: np.ndarray) -> np.ndarray:
        return self._chart(p, 0)[0]

    def jac(self, p: np.ndarray) -> np.ndarray:
        return self._chart(p, 1)[1]

    def hess(self, p: np.ndarray) -> np.ndarray:
        return self._chart(p, 2)[2]

    # -- orientation --------------------------------------------------------

    def _orientation_sign(self, hint: np.ndarray | None) -> float:
        p = self._generic_point(0.5)
        fr = frame_at(self, self.space_form, p)
        Hmean = float(np.trace(fr.g_inv @ fr.h))
        if abs(Hmean) > 1e-8:
            return 1.0 if Hmean >= 0.0 else -1.0
        if hint is not None:
            return 1.0 if float(np.dot(fr.nu_flat, hint)) >= 0.0 else -1.0
        return 1.0

    def _generic_point(self, t: float | np.ndarray) -> np.ndarray:
        # interior angles away from coordinate degeneracies; an array of t
        # gives a stack of chart points
        t = np.asarray(t, dtype=float)
        p = np.full(t.shape + (self.n,), 0.7)
        p[..., 0] = t
        return p

    # -- profile helpers ----------------------------------------------------

    def area_density(self, t: float | np.ndarray) -> float | np.ndarray:
        """1D surface-measure density: integrating f(t) * this over t and
        multiplying by |S^{n-1}| gives the integral of a symmetric f."""
        r, z = self.r, self.z
        eu = np.exp(self.space_form.u(self.map(self._generic_point(t))))
        speed = np.hypot(r.d1(t), z.d1(t))
        return eu ** self.n * speed * np.abs(r.v(t)) ** (self.n - 1)

    def boundary_measure(self) -> float:
        """Total measure of the boundary orbit (empty-boundary shapes: 0)."""
        if self.closed:
            return 0.0
        x = self.map(self._generic_point(1.0))
        eu = math.exp(self.space_form.u(x))
        return (eu * abs(self.r.v(1.0))) ** (self.n - 1) * sphere_area(self.n - 1)


class GenericImmersion(Immersion):
    """User-supplied chart map with finite-difference derivative fallback.

    Reports carry ``derivative_mode == 'fd'`` so identity checks can be
    read with the appropriate skepticism.
    """

    def __init__(self, n: int, space_form: SpaceForm, ball: BallDomain | None,
                 chart_map: Callable[[np.ndarray], np.ndarray],
                 closed: bool = False, step: float = 1e-5):
        self._map = chart_map
        self._step = step
        one = Curve(lambda t: t, lambda t: 1.0, lambda t: 0.0)
        super().__init__(n, space_form, ball, one, one, "generic", {}, closed=closed)
        self.symmetric = False
        self.derivative_mode = "fd"

    def _chart(self, p, order):
        return [self.map(p), self.jac(p), self.hess(p)][:order + 1]

    def map(self, p):
        return np.asarray(self._map(np.asarray(p, dtype=float)), dtype=float)

    def jac(self, p):
        p = np.asarray(p, dtype=float)
        h = self._step
        cols = []
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            cols.append((self.map(p + e) - self.map(p - e)) / (2 * h))
        return np.stack(cols, axis=1)

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        h = self._step
        n = self.n
        x0 = self.map(p)
        H = np.zeros((x0.size, n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            H[:, i, i] = (self.map(p + ei) - 2 * x0 + self.map(p - ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                val = (self.map(p + ei + ej) - self.map(p + ei - ej)
                       - self.map(p - ei + ej) + self.map(p - ei - ej)) / (4 * h**2)
                H[:, i, j] = val
                H[:, j, i] = val
        return H


# ---------------------------------------------------------------------------
# frames


@dataclass
class PointFrame:
    """Geometric state of an immersion at one chart point, or at a stack
    of them: then every field carries the leading node axis, so ``x`` is
    (M, n+1), ``g`` is (M, n, n) and ``sqrt_det_g`` is (M,)."""

    p: np.ndarray          # chart point
    x: np.ndarray          # model point
    J: np.ndarray          # flat jacobian, (n+1, n)
    Hs: np.ndarray         # flat chart Hessian, (n+1, n, n)
    gf: np.ndarray         # flat induced metric
    g: np.ndarray          # induced metric (conformal units)
    g_inv: np.ndarray
    h: np.ndarray          # second fundamental form (conformal units)
    nu_flat: np.ndarray    # flat unit normal
    kappa: np.ndarray      # principal curvatures
    sqrt_det_g: float
    e_u: float             # conformal factor e^{u}
    weight: float = 0.0    # set by quadrature assembly
    Gamma: np.ndarray | None = None  # Christoffel symbols, filled lazily


def frame_at(immersion, space_form: SpaceForm, p: np.ndarray) -> PointFrame:
    """Frame at a chart point p of shape (n,), or at a stack (M, n)."""
    p = np.asarray(p, dtype=float)
    x, J, Hs = immersion._chart(p, 2)
    gf = np.swapaxes(J, -1, -2) @ J
    eigmin = np.linalg.eigvalsh(gf)[..., 0]
    # relative conditioning: small shapes are fine, rank loss is not
    bad = eigmin <= 1e-12 * np.maximum(np.abs(gf).max(axis=(-2, -1)), 1e-300)
    if bad.any():
        where = p[bad][0] if p.ndim > 1 else p
        raise DegenerateImmersionError(f"induced metric singular at chart point {where}")
    Nf = generalized_cross(J)
    Nf = immersion._sign * Nf / np.sqrt(np.sum(Nf * Nf, axis=-1, keepdims=True))
    hf = -np.einsum("...i,...ijk->...jk", Nf, Hs)
    eu = np.exp(space_form.u(x))
    gu = space_form.grad_u(x)
    eu_ = eu[..., None, None]
    g = eu_**2 * gf
    h = eu_ * (hf + np.sum(Nf * gu, axis=-1)[..., None, None] * gf)
    g_inv = np.linalg.inv(g)
    kappa = symalg.principal_curvatures(h, g)
    sqrt_det_g = eu ** immersion.n * np.sqrt(np.maximum(np.linalg.det(gf), 0.0))
    return PointFrame(p=p, x=x, J=J, Hs=Hs, gf=gf, g=g, g_inv=g_inv, h=h,
                      nu_flat=Nf, kappa=kappa,
                      sqrt_det_g=sqrt_det_g, e_u=eu)


def metric_derivatives(immersion, space_form: SpaceForm, frame: PointFrame) -> np.ndarray:
    """Chart derivatives of the induced metric, dg[..., k, i, j] = d_k g_ij."""
    J, Hs = frame.J, frame.Hs
    # dgf[k,i,j] = d_k (J_i . J_j) = T[k,i,j] + T[k,j,i] with T[k,i,j] = d_k J_i . J_j
    T = np.swapaxes(np.moveaxis(Hs, -1, -3), -1, -2) @ J[..., None, :, :]
    dgf = T + np.swapaxes(T, -1, -2)
    gu = space_form.grad_u(frame.x)
    du = np.einsum("...ai,...a->...i", J, gu)  # chart derivatives of u
    e2u = np.asarray(frame.e_u**2)[..., None, None, None]
    return e2u * (dgf + 2.0 * du[..., :, None, None] * frame.gf[..., None, :, :])


def christoffels(immersion, space_form: SpaceForm, frame: PointFrame) -> np.ndarray:
    """Christoffel symbols Gamma^l_ij of the induced metric at a frame."""
    if frame.Gamma is not None:
        return frame.Gamma
    dg = metric_derivatives(immersion, space_form, frame)
    frame.Gamma = christoffel_symbols(frame.g_inv, dg)
    return frame.Gamma


def christoffel_symbols(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^l_ij = (1/2) g^{lk} (d_i g_kj + d_j g_ki - d_k g_ij) of any
    metric, from its inverse and dg[k, i, j] = d_k g_ij; both may carry a
    leading node axis."""
    n = dg.shape[-1]
    # S[k,i,j] = d_i g_kj + d_j g_ki - d_k g_ij
    S = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * (g_inv @ S.reshape(S.shape[:-2] + (n * n,))).reshape(S.shape)


def ricci_tensor(frame: PointFrame, K: int) -> np.ndarray:
    """Ricci tensor of the induced metric via the Gauss equation, (0,2)."""
    h, g, g_inv = frame.h, frame.g, frame.g_inv
    H = float(np.trace(g_inv @ h))
    n = frame.g.shape[0]
    return H * h - h @ g_inv @ h + (n - 1) * K * g


def ricci_min(frame: PointFrame, K: int) -> float:
    """Smallest eigenvalue of the Ricci tensor relative to the metric."""
    ric_on = symalg.to_orthonormal(ricci_tensor(frame, K), frame.g, mixed=False)
    return float(np.linalg.eigvalsh(ric_on).min())


def traceless_newton_tensors(frame: PointFrame) -> np.ndarray:
    """Traceless Newton tensors T-ring_m for m = 0..n-1 at a frame, mixed
    components stacked as (n, n, n)."""
    n = frame.g.shape[0]
    H = symalg.mean_curvatures(frame.kappa)
    T = symalg.newton_tensors(frame.g_inv @ frame.h, frame.g)
    return np.array([symalg.traceless_part(T[m], H[m], n, m) for m in range(n)])


def norm2(T: np.ndarray) -> np.ndarray:
    """Metric norm |T|^2 = tr(T T) of self-adjoint mixed tensors, taken
    over the last two axes."""
    return np.einsum("...ij,...ji->...", T, T)


# ---------------------------------------------------------------------------
# quadrature and cached surface data


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: ``order`` points per panel,
    2**level panels per direction."""

    order: int = 20
    level: int = 1

    def nodes(self, a: float = 0.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        xs, ws = roots_legendre(self.order)
        panels = 2 ** self.level
        nodes, weights = [], []
        width = (b - a) / panels
        for i in range(panels):
            lo = a + i * width
            nodes.append(lo + (xs + 1.0) * 0.5 * width)
            weights.append(ws * 0.5 * width)
        return np.concatenate(nodes), np.concatenate(weights)

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(self.order, self.level + 1)


class SurfaceData:
    """Frames, quadrature weights and per-node surface quantities for one
    immersion.

    ``full=False`` evaluates on the 1D profile with the orbit measure
    folded into the weights (symmetric integrands only); ``full=True``
    builds the tensor-product chart grid (n=2 only).  Node arrays are
    stacked along the first axis: ``x`` and ``nu_flat`` (N, n+1),
    ``kappa`` (N, n) and ``H`` (N, n+1) with H[:, k] = H_k; integrals are
    weighted sums against ``weights``.
    """

    def __init__(self, immersion: Immersion, quad: QuadratureSpec, full: bool = False):
        self.immersion = immersion
        self.space_form = immersion.space_form
        self.quad = quad
        self.full = full
        sf = self.space_form
        if full:
            if immersion.n != 2:
                raise ValueError("full charts are only supported for n=2")
            ts, wt = quad.nodes()
            ps, wp = quad.nodes(0.0, 2.0 * math.pi)
            self.frames = []
            for t, a in zip(ts, wt):
                for s, b in zip(ps, wp):
                    fr = frame_at(immersion, sf, np.array([t, s]))
                    fr.weight = a * b * fr.sqrt_det_g
                    self.frames.append(fr)
        else:
            if not immersion.symmetric:
                raise ValueError("profile quadrature needs a rotationally symmetric shape")
            ts, wt = quad.nodes()
            orbit = sphere_area(immersion.n - 1)
            self.frames = []
            for t, a in zip(ts, wt):
                fr = frame_at(immersion, sf, immersion._generic_point(t))
                fr.weight = a * immersion.area_density(t) * orbit
                self.frames.append(fr)
        self.weights = np.array([fr.weight for fr in self.frames])
        self.x = np.array([fr.x for fr in self.frames])
        self.nu_flat = np.array([fr.nu_flat for fr in self.frames])
        self.kappa = np.array([fr.kappa for fr in self.frames])
        self.H = symalg.mean_curvatures(self.kappa)

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    @cached_property
    def min_ricci(self) -> np.ndarray:
        """Smallest Ricci eigenvalue at every node, (N,)."""
        K = self.space_form.K
        return np.array([ricci_min(fr, K) for fr in self.frames])

    @cached_property
    def traceless_newton(self) -> np.ndarray:
        """T-ring_m at every node, (N, n, n, n) indexed [node, m]."""
        return np.array([traceless_newton_tensors(fr) for fr in self.frames])

    @cached_property
    def traceless_norm2(self) -> np.ndarray:
        """|T-ring_m|^2 at every node, (N, n) indexed [node, m]."""
        return norm2(self.traceless_newton)


def surface_data(immersion: Immersion, quad: QuadratureSpec, full: bool = False) -> SurfaceData:
    key = ("surf", quad.order, quad.level, full)
    if key not in immersion._cache:
        immersion._cache[key] = SurfaceData(immersion, quad, full)
    return immersion._cache[key]


class BoundaryData:
    """Boundary-orbit nodes and weights (t = 1)."""

    def __init__(self, immersion: Immersion, quad: QuadratureSpec, full: bool = False):
        if immersion.closed:
            self.frames, self.weights = [], np.zeros(0)
            return
        self.immersion = immersion
        sf = immersion.space_form
        if full:
            if immersion.n != 2:
                raise ValueError("full boundary charts are only supported for n=2")
            ps, wp = quad.nodes(0.0, 2.0 * math.pi)
            self.frames = []
            ws = []
            for s, b in zip(ps, wp):
                fr = frame_at(immersion, sf, np.array([1.0, s]))
                # boundary length element along the phi direction
                fr.weight = b * math.sqrt(fr.g[1, 1])
                self.frames.append(fr)
                ws.append(fr.weight)
            self.weights = np.array(ws)
        else:
            fr = frame_at(immersion, sf, immersion._generic_point(1.0))
            fr.weight = immersion.boundary_measure()
            self.frames = [fr]
            self.weights = np.array([fr.weight])


def boundary_data(immersion: Immersion, quad: QuadratureSpec, full: bool = False) -> BoundaryData:
    key = ("bdry", quad.order, quad.level, full)
    if key not in immersion._cache:
        immersion._cache[key] = BoundaryData(immersion, quad, full)
    return immersion._cache[key]


# ---------------------------------------------------------------------------
# boundary frame and free-boundary diagnostics


@dataclass
class BoundaryFrame:
    frame: PointFrame
    mu_chart: np.ndarray       # outward conormal, chart components
    mu_flat: np.ndarray        # same vector in model coordinates, flat-unit
    Nbar_flat: np.ndarray      # outward normal of the ball boundary, flat-unit
    nubar_flat: np.ndarray     # outward normal of the boundary orbit in dB
    mu_alignment: float        # 1 - cos(angle(mu, Nbar))
    nu_alignment: float        # 1 - cos(angle(nubar, nu))


def free_boundary_residual(immersion: Immersion, ball: BallDomain,
                           samples: int = 8) -> tuple[float, float]:
    """(position residual, angle residual) over boundary sample points."""
    if immersion.closed:
        return 0.0, 0.0
    pos = 0.0
    ang = 0.0
    for s in np.linspace(0.3, 2.9, samples):
        p = np.concatenate([[1.0], np.full(immersion.n - 1, s)])
        x = immersion.map(p)
        J = immersion.jac(p)
        Nf = generalized_cross(J)
        Nf /= np.linalg.norm(Nf)
        r = float(np.linalg.norm(x))
        pos = max(pos, abs(r - ball.R_model))
        ang = max(ang, abs(float(np.dot(Nf, x))) / r)
    return pos, ang


def boundary_frame_at(immersion: Immersion, ball: BallDomain,
                      q: np.ndarray | float) -> BoundaryFrame:
    """Boundary frame at angular chart point q (scalar for n=2)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    pos, ang = free_boundary_residual(immersion, ball)
    if ang > 1e-6:
        raise FreeBoundaryViolationError(f"angle residual {ang:.3g} exceeds 1e-6")
    p = np.concatenate([[1.0], q])
    fr = frame_at(immersion, immersion.space_form, p)
    n = immersion.n
    # profile charts are orthogonal: mu is the normalized t-direction
    mu_chart = np.zeros(n)
    mu_chart[0] = 1.0 / math.sqrt(fr.g[0, 0])
    mu_flat = fr.J @ mu_chart
    mu_flat /= np.linalg.norm(mu_flat)
    xhat = fr.x / np.linalg.norm(fr.x)
    if float(np.dot(mu_flat, xhat)) < 0:  # outward in the chart by construction
        mu_flat = -mu_flat
    v = fr.nu_flat - float(np.dot(fr.nu_flat, xhat)) * xhat
    nv = float(np.linalg.norm(v))
    nubar = v / nv if nv > 1e-14 else fr.nu_flat.copy()
    if float(np.dot(nubar, fr.nu_flat)) < 0:
        nubar = -nubar
    return BoundaryFrame(
        frame=fr, mu_chart=mu_chart, mu_flat=mu_flat, Nbar_flat=xhat,
        nubar_flat=nubar,
        mu_alignment=1.0 - float(np.dot(mu_flat, xhat)),
        nu_alignment=1.0 - float(np.dot(nubar, fr.nu_flat)),
    )


def principal_conormal_check(immersion: Immersion, ball: BallDomain,
                             samples: int = 6) -> float:
    """Max normalized residual of h(mu, Z) and T_k(mu, Z) over the boundary."""
    if immersion.closed:
        return 0.0
    worst = 0.0
    for s in np.linspace(0.4, 2.8, samples):
        q = np.full(immersion.n - 1, s)
        bf = boundary_frame_at(immersion, ball, q)
        fr = bf.frame
        n = immersion.n
        W = fr.g_inv @ fr.h
        tensors = symalg.newton_tensors(W, fr.g)
        scale_h = 1.0 + float(np.abs(fr.h).max())
        # mixed -> lowered: pairing T(mu, Z) = g_{ik} T^k_j mu^i Z^j
        for a in range(1, n):
            Z = np.zeros(n)
            Z[a] = 1.0 / math.sqrt(fr.g[a, a])
            worst = max(worst, abs(float(bf.mu_chart @ fr.h @ Z)) / scale_h)
            for T in tensors:
                lowered = fr.g @ T
                scale_T = 1.0 + float(np.abs(lowered).max())
                worst = max(worst, abs(float(bf.mu_chart @ lowered @ Z)) / scale_T)
    return worst


def non_umbilicity(immersion: Immersion, quad: QuadratureSpec) -> float:
    """Max principal-curvature spread over quadrature nodes."""
    kappa = surface_data(immersion, quad).kappa
    spread = kappa.max(axis=1) - kappa.min(axis=1)
    return float(np.max(spread / (1.0 + np.abs(kappa.mean(axis=1)))))


def convexity_min(immersion: Immersion, quad: QuadratureSpec) -> float:
    return float(surface_data(immersion, quad).kappa.min())


def ricci_min_over(immersion: Immersion, quad: QuadratureSpec) -> float:
    return float(surface_data(immersion, quad).min_ricci.min())


# ---------------------------------------------------------------------------
# shape generators


def make_cap(space_form: SpaceForm, ball: BallDomain, rho: float,
             axis: np.ndarray | None = None, n: int = 2) -> Immersion:
    """Model sphere of Euclidean radius rho meeting the ball boundary
    orthogonally: center at sqrt(rho^2 + R_model^2) along the axis."""
    if rho <= 0:
        raise DomainError(f"cap radius must be positive, got {rho}")
    Rm = ball.R_model
    c = math.sqrt(rho**2 + Rm**2)
    if space_form.K == -1 and Rm >= 1.0:
        raise DomainError("ball does not fit in the hyperbolic model")
    psi_max = math.acos(rho / c)
    r = trig_curve(0.0, sin_amps={psi_max: rho})
    z = trig_curve(c, cos_amps={psi_max: -rho})
    params = {"rho": rho, "n": n}
    if axis is not None:
        params["axis"] = list(np.asarray(axis, dtype=float))
    return Immersion(n, space_form, ball, r, z, "cap", params, axis=axis)


def make_flat_disk(space_form: SpaceForm, ball: BallDomain,
                   normal: np.ndarray | None = None, n: int = 2) -> Immersion:
    """Totally geodesic disk through the ball center."""
    Rm = ball.R_model
    r = Curve(lambda t: Rm * t, lambda t: Rm, lambda t: 0.0)
    z = Curve(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
    params = {"n": n}
    if normal is not None:
        params["normal"] = list(np.asarray(normal, dtype=float))
    # H = 0 on the disk, so the hint alone orients it: normal along the axis
    hint = np.eye(n + 1)[-1] if normal is None else np.asarray(normal, dtype=float)
    return Immersion(n, space_form, ball, r, z, "disk", params, axis=normal,
                     orientation_hint=hint)


def make_profile_shape(space_form: SpaceForm, ball: BallDomain, rho: float,
                       r_sin: dict[int, float] | None = None,
                       z_cos: dict[int, float] | None = None,
                       eps: float = 0.0, axis: np.ndarray | None = None,
                       n: int = 2, max_eps: float = 0.5) -> Immersion:
    """Perturbed rotationally symmetric free-boundary shape.

    Starts from the cap of radius rho, adds eps-scaled trigonometric
    perturbations (sin multiples on r, cos multiples on z, which keeps the
    axis crossing smooth), then restores the two contact constraints at
    t=1 by a Newton-corrected pair of extra modes.
    """
    if abs(eps) > max_eps:
        raise DomainError(f"perturbation amplitude {eps} beyond configured bound {max_eps}")
    Rm = ball.R_model
    c = math.sqrt(rho**2 + Rm**2)
    psi_max = math.acos(rho / c)
    r_sin = dict(r_sin or {})
    z_cos = dict(z_cos or {})

    def build(alpha: float, beta: float) -> tuple[Curve, Curve]:
        sa = {psi_max: rho + alpha}
        for mult, coeff in r_sin.items():
            w = mult * psi_max
            sa[w] = sa.get(w, 0.0) + eps * coeff
        ca = {psi_max: -rho - beta}
        for mult, coeff in z_cos.items():
            w = mult * psi_max
            ca[w] = ca.get(w, 0.0) + eps * coeff
        rc = trig_curve(0.0, sin_amps=sa)
        zc = trig_curve(c + beta, cos_amps=ca)
        return rc, zc

    def residuals(xi: np.ndarray) -> np.ndarray:
        rc, zc = build(xi[0], xi[1])
        r1, z1 = rc.v(1.0), zc.v(1.0)
        dr1, dz1 = rc.d1(1.0), zc.d1(1.0)
        return np.array([r1**2 + z1**2 - Rm**2, r1 * dz1 - z1 * dr1])

    xi = np.zeros(2)
    for _ in range(60):
        F = residuals(xi)
        if float(np.abs(F).max()) < 1e-13:
            break
        step = 1e-7
        Jm = np.column_stack([
            (residuals(xi + np.array([step, 0.0])) - residuals(xi - np.array([step, 0.0]))) / (2 * step),
            (residuals(xi + np.array([0.0, step])) - residuals(xi - np.array([0.0, step]))) / (2 * step),
        ])
        try:
            delta = np.linalg.solve(Jm, F)
        except np.linalg.LinAlgError as exc:
            raise ConstraintProjectionError("endpoint correction system singular") from exc
        xi = xi - delta
    else:
        raise ConstraintProjectionError("endpoint correction did not converge")

    rc, zc = build(xi[0], xi[1])
    if rc.d1(0.0) <= 0:
        raise ConstraintProjectionError("perturbation flipped the axis crossing")
    params = {"rho": rho, "eps": eps, "n": n,
              "r_sin": {str(k): v for k, v in r_sin.items()},
              "z_cos": {str(k): v for k, v in z_cos.items()}}
    if axis is not None:
        params["axis"] = list(np.asarray(axis, dtype=float))
    return Immersion(n, space_form, ball, rc, zc, "profile", params, axis=axis)


def make_closed_sphere(space_form: SpaceForm, r_geodesic: float,
                       cos_coeffs: list[float] | None = None, eps: float = 0.0,
                       n: int = 2) -> Immersion:
    """Closed geodesic sphere, optionally perturbed as a radial graph."""
    from .spaceform import radius_to_model

    s = radius_to_model(space_form, r_geodesic)
    coeffs = list(cos_coeffs or [])

    coeffs_arr = np.array(coeffs, dtype=float)
    freqs = np.arange(1, len(coeffs) + 1, dtype=float)

    def rho(psi):
        return s * (1.0 + eps * (np.cos(psi[..., None] * freqs) @ coeffs_arr))

    def drho(psi):
        return -s * eps * (np.sin(psi[..., None] * freqs) @ (coeffs_arr * freqs))

    def d2rho(psi):
        return -s * eps * (np.cos(psi[..., None] * freqs) @ (coeffs_arr * freqs**2))

    pi = math.pi

    def rv(t):
        p = pi * np.asarray(t, dtype=float)
        return rho(p) * np.sin(p)

    def rd1(t):
        p = pi * np.asarray(t, dtype=float)
        return pi * (drho(p) * np.sin(p) + rho(p) * np.cos(p))

    def rd2(t):
        p = pi * np.asarray(t, dtype=float)
        return pi**2 * (d2rho(p) * np.sin(p) + 2 * drho(p) * np.cos(p) - rho(p) * np.sin(p))

    def zv(t):
        p = pi * np.asarray(t, dtype=float)
        return rho(p) * np.cos(p)

    def zd1(t):
        p = pi * np.asarray(t, dtype=float)
        return pi * (drho(p) * np.cos(p) - rho(p) * np.sin(p))

    def zd2(t):
        p = pi * np.asarray(t, dtype=float)
        return pi**2 * (d2rho(p) * np.cos(p) - 2 * drho(p) * np.sin(p) - rho(p) * np.cos(p))

    params = {"r_geodesic": r_geodesic, "eps": eps, "cos_coeffs": coeffs, "n": n}
    return Immersion(n, space_form, None, Curve(rv, rd1, rd2), Curve(zv, zd1, zd2),
                     "closed", params, closed=True)


# ---------------------------------------------------------------------------
# JSON shape description


def shape_to_json(immersion: Immersion) -> dict:
    doc = {"kind": immersion.kind, "K": immersion.space_form.K,
           "R": immersion.ball.R if immersion.ball is not None else None,
           "params": immersion.params}
    return doc


def shape_from_json(doc: dict) -> Immersion:
    sf = SpaceForm(int(doc["K"]))
    kind = doc["kind"]
    params = dict(doc.get("params", {}))
    n = int(params.get("n", 2))
    ball = BallDomain(sf, float(doc["R"])) if doc.get("R") is not None else None
    axis = np.asarray(params["axis"], dtype=float) if "axis" in params else None
    if kind == "cap":
        return make_cap(sf, ball, float(params["rho"]), axis=axis, n=n)
    if kind == "disk":
        normal = np.asarray(params["normal"], dtype=float) if "normal" in params else None
        return make_flat_disk(sf, ball, normal=normal, n=n)
    if kind == "profile":
        r_sin = {int(k): float(v) for k, v in params.get("r_sin", {}).items()}
        z_cos = {int(k): float(v) for k, v in params.get("z_cos", {}).items()}
        return make_profile_shape(sf, ball, float(params["rho"]), r_sin=r_sin,
                                  z_cos=z_cos, eps=float(params.get("eps", 0.0)),
                                  axis=axis, n=n)
    if kind == "closed":
        return make_closed_sphere(sf, float(params["r_geodesic"]),
                                  cos_coeffs=params.get("cos_coeffs"),
                                  eps=float(params.get("eps", 0.0)), n=n)
    raise ValueError(f"unknown shape kind {kind!r}")
