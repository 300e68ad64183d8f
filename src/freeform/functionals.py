"""Integral functionals and inequality checkers.

Both sides of the main curvature inequalities (unweighted and weighted),
the closed-hypersurface specializations, quermassintegrals of convex
free-boundary shapes in the unit Euclidean ball, cap functions with
monotone inversion, and weak-form divergence identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import geometry as geo
from . import symalg
from .geometry import (Immersion, PointFrame, QuadratureSpec, SurfaceData,
                       surface_data, sphere_area)
from .spaceform import BallDomain, Potential, SpaceForm


class NonpositiveWeightError(ValueError):
    """Weight function not strictly positive on the hypersurface."""


class UnsupportedQuermassError(ValueError):
    """Quermassintegral order needing boundary quermassintegrals we do not build."""


class RangeError(ValueError):
    """Inversion target outside the attained range."""


DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12
GATE_TOL = 1e-10


@dataclass
class InequalityCheck:
    """Outcome of one inequality or identity check."""

    name: str
    k: int
    lhs: float
    rhs: float
    direction: str  # "le": pass iff lhs <= rhs; "ge": pass iff lhs >= rhs
    hypotheses: dict
    status: str = "pending"  # pass | fail | inapplicable
    equality_expected: bool = False
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    extra: dict = dfield(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.nan

    def finalize(self, hypotheses_ok: bool) -> "InequalityCheck":
        if not hypotheses_ok:
            self.status = "inapplicable"
            return self
        if self.direction == "le":
            ok = self.lhs <= self.rhs * (1.0 + self.rel_tol) + self.abs_tol
        else:
            ok = self.lhs >= self.rhs * (1.0 - self.rel_tol) - self.abs_tol
        self.status = "pass" if ok else "fail"
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name, "k": self.k, "lhs": self.lhs, "rhs": self.rhs,
            "ratio": None if math.isnan(self.ratio) else self.ratio,
            "direction": self.direction, "status": self.status,
            "equality_expected": self.equality_expected,
            "hypotheses": self.hypotheses, **self.extra,
        }


# ---------------------------------------------------------------------------
# pointwise helpers


def hk_value(frame: PointFrame, k: int) -> float:
    return float(symalg.mean_curvatures(frame.kappa)[k])


def traceless_newton_norm2(frame: PointFrame, k: int) -> float:
    """|T-ring_k|^2 in the metric norm (trace of the squared mixed tensor)."""
    return float(geo.norm2(geo.traceless_newton_tensors(frame)[k]))


def weight_value(weight: Potential | None, frame: PointFrame) -> float:
    return 1.0 if weight is None else weight.value(frame.x)


def weight_normal_derivative(weight: Potential, frame: PointFrame) -> float:
    """V_nu = metric gradient of V paired with the unit normal."""
    return float(np.dot(weight.grad(frame.x), frame.nu_flat)) / frame.e_u


def _node_weights(weight: Potential | None, data: SurfaceData) -> np.ndarray:
    """The weight at every node of ``data`` (ones when unweighted)."""
    if weight is None:
        return np.ones(len(data.weights))
    return np.array([weight.value(x) for x in data.x])


def _umbilic(data: SurfaceData) -> bool:
    return all(symalg.is_umbilic(kappa) for kappa in data.kappa)


def unit_euclidean_ball(immersion: Immersion) -> bool:
    """True iff the shape sits in the unit ball of Euclidean space."""
    ball = immersion.ball
    return immersion.space_form.K == 0 and ball is not None \
        and abs(ball.R_model - 1.0) <= 1e-12


def _data(immersion: Immersion, quad: QuadratureSpec, weight: Potential | None,
          full: bool | None = None):
    """Pick the profile or full-chart evaluation path for a weighted integral."""
    if full is None:
        full = False
        if weight is not None and immersion.symmetric:
            aligned = abs(abs(float(np.dot(weight.a, immersion.axis))) - 1.0) < 1e-12
            if not aligned:
                full = True
        if not immersion.symmetric:
            full = True
    return surface_data(immersion, quad, full)


# ---------------------------------------------------------------------------
# averages and the main inequality


def _average(values: np.ndarray, V: np.ndarray, data: SurfaceData) -> float:
    """Average of node values against the weight V dA; V must be positive."""
    if np.any(V <= 0.0):
        raise NonpositiveWeightError("weight nonpositive on the hypersurface")
    return float(np.sum(V * values * data.weights) / np.sum(V * data.weights))


def average_hk(immersion: Immersion, quad: QuadratureSpec, k: int,
               weight: Potential | None = None) -> float:
    """(possibly weighted) average of H_k over the hypersurface."""
    data = _data(immersion, quad, weight)
    return _average(data.H[:, k], _node_weights(weight, data), data)


def hypothesis_report(immersion: Immersion, quad: QuadratureSpec,
                      weight: Potential | None = None) -> dict:
    """Diagnostics entering the hypothesis gates of the theorems.

    The weight entries (``half_ball``, ``min_weight``, ``substatic_min``)
    are None when unweighted, so the keys are the same either way.  The
    report is computed once per shape, quadrature and weight direction and
    cached on the immersion; each call returns a copy.
    """
    data = _data(immersion, quad, weight)
    key = ("hyp", quad.order, quad.level, data.full,
           None if weight is None else tuple(weight.a))
    if key not in immersion._cache:
        immersion._cache[key] = _hypotheses(immersion, data, weight)
    return dict(immersion._cache[key])


def _hypotheses(immersion: Immersion, data: SurfaceData,
                weight: Potential | None) -> dict:
    if immersion.closed:
        fb_pos = fb_ang = 0.0
    else:
        fb_pos, fb_ang = geo.free_boundary_residual(immersion, immersion.ball)
    rep = {"ricci_min": float(data.min_ricci.min()),
           "convexity_min": float(data.kappa.min()),
           "free_boundary_pos": fb_pos, "free_boundary_angle": fb_ang,
           "half_ball": None, "substatic_min": None, "min_weight": None}
    if weight is not None:
        V = _node_weights(weight, data)
        ssmin = math.inf
        for fr, v in zip(data.frames, V):
            vn = weight_normal_derivative(weight, fr)
            M = symalg.substatic_tensor(fr.h, fr.g, v, vn)
            ssmin = min(ssmin, float(np.linalg.eigvalsh(M).min()))
        rep["half_ball"] = bool(V.min() > 0.0)
        rep["min_weight"] = float(V.min())
        rep["substatic_min"] = ssmin
    return rep


def check_main_inequality(immersion: Immersion, quad: QuadratureSpec, k: int,
                          weight: Potential | None = None,
                          rel_tol: float = DEFAULT_REL_TOL,
                          abs_tol: float = DEFAULT_ABS_TOL,
                          name: str | None = None) -> InequalityCheck:
    """Weighted L^2 deviation of H_k against the traceless Newton tensor.

    lhs = int w (H_k - avg)^2, rhs = n(n-1)/(n-k)^2 int w |T-ring_k|^2.
    A violated hypothesis marks the check inapplicable, never failed.
    Where the weight is not positive (no half ball) the weighted average
    is undefined and both sides are NaN.
    """
    n = immersion.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    data = _data(immersion, quad, weight)
    hyp = hypothesis_report(immersion, quad, weight)
    if weight is not None and not hyp["half_ball"]:
        lhs = rhs = math.nan
    else:
        V = _node_weights(weight, data)
        Hk = data.H[:, k]
        lhs = float(np.sum(V * (Hk - _average(Hk, V, data)) ** 2 * data.weights))
        rhs = n * (n - 1) / (n - k) ** 2 \
            * float(np.sum(V * data.traceless_norm2[:, k] * data.weights))
    if weight is None:
        hyp_ok = hyp["ricci_min"] >= -GATE_TOL
        default_name = "thm-main-unweighted"
    else:
        hyp_ok = bool(hyp["half_ball"]) and hyp["substatic_min"] >= -GATE_TOL
        default_name = "thm-main-weighted"
    if not immersion.closed:
        hyp_ok = hyp_ok and hyp["free_boundary_pos"] <= geo.POSITION_TOL * 10 \
            and hyp["free_boundary_angle"] <= geo.ANGLE_TOL
    check = InequalityCheck(name=name or default_name, k=k, lhs=lhs, rhs=rhs,
                            direction="le", hypotheses=hyp,
                            equality_expected=_umbilic(data),
                            rel_tol=rel_tol, abs_tol=abs_tol)
    return check.finalize(hyp_ok)


# ---------------------------------------------------------------------------
# closed-hypersurface specializations


def check_perez(immersion: Immersion, quad: QuadratureSpec,
                formulation: int = 1,
                rel_tol: float = DEFAULT_REL_TOL,
                abs_tol: float = DEFAULT_ABS_TOL) -> InequalityCheck:
    """Mean-curvature deviation bound for closed hypersurfaces in K=0.

    Formulation 1 compares int (H - avg)^2, formulation 2 compares
    int |h - (avg/n) g|^2; both against (n/(n-1)) int |h-ring|^2.
    """
    if not immersion.closed:
        raise ValueError("closed hypersurface required")
    if immersion.space_form.K != 0:
        raise ValueError("flat ambient space required")
    n = immersion.n
    data = surface_data(immersion, quad)
    H = data.H[:, 1]
    Hbar = float(np.sum(H * data.weights)) / data.area
    # |h-ring|^2 is the squared spread of the principal curvatures about H/n
    ring2 = np.sum((data.kappa - H[:, None] / n) ** 2, axis=1)
    hring = float(np.sum(ring2 * data.weights))
    dev = float(np.sum((H - Hbar) ** 2 * data.weights))
    rhs = n / (n - 1) * hring
    if formulation == 1:
        lhs = dev
    else:
        # |h - (Hbar/n) g|^2 = |h-ring|^2 + (H - Hbar)^2 / n
        lhs = hring + dev / n
    hyp = hypothesis_report(immersion, quad)
    check = InequalityCheck(name=f"perez-{formulation}", k=1, lhs=lhs, rhs=rhs,
                            direction="le", hypotheses=hyp,
                            equality_expected=_umbilic(data),
                            rel_tol=rel_tol, abs_tol=abs_tol,
                            extra={"deviation": dev, "hring2": hring})
    return check.finalize(hyp["ricci_min"] >= -GATE_TOL)


# ---------------------------------------------------------------------------
# quermassintegrals in the unit Euclidean ball


@dataclass
class Quermass:
    W: list            # W_0 .. W_3 (entries beyond n+1 are None)
    area: float        # |Sigma|
    boundary: float    # |dSigma|
    lid: float         # measure of the spherical lid closing the domain
    volume: float      # enclosed volume |Sigma-hat|
    int_H: dict        # k -> int H_k


def _lid_measure(n: int, cos_theta0: float) -> float:
    """Measure of the polar cap {y . a >= cos_theta0} of the unit n-sphere."""
    theta0 = math.acos(max(-1.0, min(1.0, cos_theta0)))
    xs, ws = np.polynomial.legendre.leggauss(64)
    ts = 0.5 * theta0 * (xs + 1.0)
    vals = np.sin(ts) ** (n - 1)
    return sphere_area(n - 1) * float(np.sum(vals * ws)) * 0.5 * theta0


def quermassintegrals(immersion: Immersion, quad: QuadratureSpec,
                      convexity_tol: float = GATE_TOL) -> Quermass:
    """W_0..W_3 of a convex rotationally symmetric free-boundary shape
    in the unit Euclidean ball."""
    if not unit_euclidean_ball(immersion):
        raise ValueError("quermassintegrals need the unit Euclidean ball")
    if not immersion.symmetric:
        raise ValueError("rotationally symmetric shape required")
    n = immersion.n
    data = surface_data(immersion, quad)
    if data.kappa.min() < -convexity_tol:
        raise ValueError("convex shape required")
    area = data.area
    boundary = immersion.boundary_measure()
    int_H = {k: float(np.sum(data.H[:, k] * data.weights)) for k in range(0, n + 1)}
    # lid: part of the unit sphere above the contact orbit
    z1 = float(np.dot(immersion.map(immersion._generic_point(1.0)), immersion.axis))
    lid = _lid_measure(n, z1)
    support = float(np.sum(np.einsum("ai,ai->a", data.x, data.nu_flat) * data.weights))
    volume = (support + lid) / (n + 1)
    W = [volume, area / (n + 1), None, None]
    W[2] = int_H[1] / (n * (n + 1)) + lid / ((n + 1) * n)
    if n >= 2:
        W[3] = int_H[2] / (math.comb(n, 2) * (n + 1)) \
            + 2.0 / ((n + 1) * (n - 1)) * (boundary / n)
    return Quermass(W=W, area=area, boundary=boundary, lid=lid,
                    volume=volume, int_H=int_H)


def quermass_k(immersion: Immersion, quad: QuadratureSpec, k: int) -> float:
    if k >= 4:
        raise UnsupportedQuermassError(
            f"W_{k} needs boundary quermassintegrals of order {k - 2} >= 2")
    q = quermassintegrals(immersion, quad)
    return q.W[k]


_CAP_CACHE: dict = {}


def cap_function(k: int, r: float, n: int,
                 quad: QuadratureSpec | None = None) -> float:
    """f_k(r) = W_k of the spherical cap of radius r in the unit ball."""
    if r <= 0:
        raise ValueError(f"cap radius must be positive, got {r}")
    quad = quad or QuadratureSpec()
    key = (k, round(r, 14), n, quad.order, quad.level)
    if key not in _CAP_CACHE:
        sf = SpaceForm(0)
        ball = BallDomain(sf, 1.0)
        cap = geo.make_cap(sf, ball, r, n=n)
        _CAP_CACHE[key] = quermass_k(cap, quad, k)
    return _CAP_CACHE[key]


def cap_function_inverse(k: int, value: float, n: int,
                         quad: QuadratureSpec | None = None,
                         lo: float = 1e-3, hi: float = 1e3,
                         tol: float = 1e-10) -> float:
    """Invert the strictly increasing cap function by bisection."""
    flo = cap_function(k, lo, n, quad)
    fhi = cap_function(k, hi, n, quad)
    if not (flo <= value <= fhi):
        raise RangeError(
            f"value {value} outside attained range [{flo}, {fhi}] of f_{k}")
    while hi - lo > tol * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if cap_function(k, mid, n, quad) < value:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_corollary_low_dim(immersion: Immersion, quad: QuadratureSpec,
                            which: str,
                            rel_tol: float = DEFAULT_REL_TOL,
                            abs_tol: float = DEFAULT_ABS_TOL) -> InequalityCheck:
    """Composite low-dimensional inequalities for convex free-boundary
    shapes in the unit Euclidean ball: case "i" (n=2) against 2 pi, case
    "ii" (n=3) against the composed cap functions.  Raises ValueError
    outside the unit Euclidean ball, where the corollary is not stated."""
    if not unit_euclidean_ball(immersion):
        raise ValueError("the low-dimensional corollary needs the unit Euclidean ball")
    n = immersion.n
    data = surface_data(immersion, quad)
    area = data.area
    int_H = float(np.sum(data.H[:, 1] * data.weights))
    boundary = immersion.boundary_measure()
    hyp = hypothesis_report(immersion, quad)
    hyp_ok = hyp["convexity_min"] >= -GATE_TOL \
        and hyp["free_boundary_angle"] <= geo.ANGLE_TOL
    if which == "i":
        if n != 2:
            raise ValueError("case (i) needs n=2")
        lhs = 0.25 * int_H**2 / area + boundary
        rhs = 2.0 * math.pi
    elif which == "ii":
        if n != 3:
            raise ValueError("case (ii) needs n=3")
        lhs = (int_H**2 / (3.0 * area) + boundary) / 12.0
        r_star = cap_function_inverse(1, area / 4.0, n, quad)
        rhs = cap_function(3, r_star, n, quad)
    else:
        raise ValueError(f"unknown case {which!r}")
    check = InequalityCheck(name=f"cor-lowdim-{which}", k=1, lhs=lhs, rhs=rhs,
                            direction="ge", hypotheses=hyp,
                            equality_expected=_umbilic(data),
                            rel_tol=rel_tol, abs_tol=abs_tol)
    return check.finalize(hyp_ok)


# ---------------------------------------------------------------------------
# weak-form divergence identities


def _bump(t: float, lo: float = 0.0, hi: float = 1.0, p: int = 6) -> tuple[float, float]:
    """Polynomial bump vanishing to order p at lo and hi; (value, derivative).

    Polynomial so Gauss-Legendre quadrature resolves it essentially exactly;
    order-p vanishing makes the boundary terms of the weak form negligible.
    """
    if not lo < t < hi:
        return 0.0, 0.0
    s = (t - lo) / (hi - lo)
    q = 4.0 * s * (1.0 - s)
    v = q**p
    dv = p * q ** (p - 1) * 4.0 * (1.0 - 2.0 * s) / (hi - lo)
    return v, dv


def divergence_free_check(immersion: Immersion, quad: QuadratureSpec, m: int,
                          full: bool | None = None) -> tuple[float, float]:
    """Weak-form residuals of div(T_m)=0 and of the traceless relation.

    Tests against a basket of compactly supported vector fields; both
    residuals are quadrature-limited and shrink under refinement.  The
    traceless relation div(T-traceless) = -((n-m)/n) grad H_m is checked
    with an independent finite-difference evaluation of grad H_m, so the
    two residuals are not algebraically equivalent.
    """
    if full is None:
        full = immersion.n == 2
    data = surface_data(immersion, quad, full=full)
    n = immersion.n
    fd_step = 1e-5

    def hm_at(p: np.ndarray) -> float:
        return hk_value(geo.frame_at(immersion, immersion.space_form, p), m)

    def fields(fr: PointFrame) -> list[tuple[np.ndarray, np.ndarray]]:
        """(X, dX) pairs at a frame; dX[i, j] = d_i X^j."""
        t = fr.p[0]
        v, dv = _bump(t)
        out = []
        X = np.zeros(n)
        dX = np.zeros((n, n))
        X[0], dX[0, 0] = v, dv
        out.append((X, dX))
        if full and n == 2:
            phi = fr.p[1]
            X2 = np.array([v * math.cos(phi), 0.0])
            dX2 = np.array([[dv * math.cos(phi), 0.0], [-v * math.sin(phi), 0.0]])
            out.append((X2, dX2))
            X3 = np.array([0.0, v])
            dX3 = np.array([[0.0, dv], [0.0, 0.0]])
            out.append((X3, dX3))
        return out

    n_fields = 3 if (full and n == 2) else 1
    res_div = np.zeros(n_fields)
    res_trace = np.zeros(n_fields)
    scale = 0.0
    for fr, Tr, Hm in zip(data.frames, data.traceless_newton[:, m], data.H[:, m]):
        T = Tr + ((n - m) * Hm / n) * np.eye(n)
        Gamma = geo.christoffels(immersion, immersion.space_form, fr)
        scale = max(scale, float(np.abs(T).max()))
        dHm = np.zeros(n)
        for i in range(n):
            pp, pm = fr.p.copy(), fr.p.copy()
            pp[i] += fd_step
            pm[i] -= fd_step
            dHm[i] = (hm_at(pp) - hm_at(pm)) / (2.0 * fd_step)
        for idx, (X, dX) in enumerate(fields(fr)):
            # covariant derivative nabla_i X^j
            cov = dX + np.einsum("jik,k->ij", Gamma, X)
            # pairing T^i_j nabla_i X^j with T[j, i] = T^j_i (row upper)
            res_div[idx] += float(np.einsum("ij,ij->", T, cov)) * fr.weight
            res_trace[idx] += (float(np.einsum("ij,ij->", Tr, cov))
                               - (n - m) / n * float(dHm @ X)) * fr.weight
    norm = max(1.0, scale)
    return float(np.abs(res_div).max()) / norm, float(np.abs(res_trace).max()) / norm
