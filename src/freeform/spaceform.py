"""Conformal ball models of the three space forms.

All three constant-curvature spaces are represented on a flat background:
Euclidean space itself (K=0), the Poincare ball (K=-1) and the punctured
round sphere (K=+1), with metric e^{2u} * delta.  Working in flat model
coordinates means angles (and hence the free-boundary condition) can be
checked with the flat inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Input outside the admissible range of a model."""


class DegenerateError(ValueError):
    """A quantity required to be nonzero vanished."""


# Points with |x| beyond this are rejected in the K=+1 model (south pole
# is at infinity in the model coordinates).
SPHERE_MODEL_CUTOFF = 1e6
LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SpaceForm:
    """One of the three constant-curvature ambient spaces, K in {-1,0,+1}."""

    K: int

    def __post_init__(self):
        if self.K not in (-1, 0, 1):
            raise DomainError(f"curvature label must be -1, 0 or +1, got {self.K}")

    def admissible(self, x: np.ndarray) -> bool:
        """True iff every point of x, one point (n,) or a stack (..., n),
        lies in the model."""
        x = np.asarray(x, dtype=float)
        return self._admissible((x * x).sum(axis=-1))

    def _admissible(self, r2) -> bool:
        if self.K == -1:
            return bool((r2 < 1.0).all())
        if self.K == 1:
            return bool((r2 < SPHERE_MODEL_CUTOFF**2).all())
        return True

    def _r2(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x as floats, |x|^2) after the admissibility check; a stack of
        points gives one |x|^2 per point."""
        x = np.asarray(x, dtype=float)
        r2 = (x * x).sum(axis=-1)
        if not self._admissible(r2):
            raise DomainError(f"point with |x|^2={np.max(r2):.3g} not admissible for K={self.K}")
        return x, r2

    def u(self, x: np.ndarray) -> float | np.ndarray:
        """Conformal exponent, metric = e^{2u} * delta.

        x is one point (n,) or a stack (..., n); a stack gives one value
        per point, as do ``grad_u`` and the methods of ``Potential``.
        """
        _, r2 = self._r2(x)
        if self.K == 0:
            return 0.0 * r2
        if self.K == -1:
            return LOG2 - np.log1p(-r2)
        return LOG2 - np.log1p(r2)

    def conformal_factor(self, x: np.ndarray) -> float:
        """e^{2u}(x)."""
        return np.exp(2.0 * self.u(x))

    def grad_u(self, x: np.ndarray) -> np.ndarray:
        """Flat gradient of u."""
        x, r2 = self._r2(x)
        if self.K == 0:
            return np.zeros_like(x)
        if self.K == -1:
            return 2.0 * x / (1.0 - r2)[..., None]
        return -2.0 * x / (1.0 + r2)[..., None]


@dataclass(frozen=True)
class BallDomain:
    """Geodesic ball of radius R about the model center.

    ``R_model`` is the Euclidean radius of its boundary sphere in model
    coordinates; the pair is kept consistent at construction.
    """

    space_form: SpaceForm
    R: float
    R_model: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "R_model", radius_to_model(self.space_form, self.R))


def radius_to_model(space_form: SpaceForm, R: float) -> float:
    """Euclidean model radius of the geodesic sphere of radius R."""
    if R <= 0:
        raise DomainError(f"geodesic radius must be positive, got {R}")
    K = space_form.K
    if K == 0:
        return float(R)
    if K == -1:
        return float(np.sqrt((np.cosh(R) - 1.0) / (np.cosh(R) + 1.0)))
    if R >= np.pi:
        raise DomainError(f"geodesic radius must be < pi when K=+1, got {R}")
    return float(np.sqrt((1.0 - np.cos(R)) / (1.0 + np.cos(R))))


def model_to_radius(space_form: SpaceForm, R_model: float) -> float:
    """Inverse of :func:`radius_to_model`."""
    if R_model <= 0:
        raise DomainError(f"model radius must be positive, got {R_model}")
    K = space_form.K
    if K == 0:
        return float(R_model)
    if K == -1:
        if R_model >= 1.0:
            raise DomainError("model radius must be < 1 when K=-1")
        return float(2.0 * np.arctanh(R_model))
    return float(2.0 * np.arctan(R_model))


@dataclass(frozen=True)
class Potential:
    """The linear-type potential V_a of a space form.

    V_a(x) = <x,a> for K=0 and 2<x,a>/(1 -+ |x|^2) for K=-+1, with a a
    flat unit vector.
    """

    space_form: SpaceForm
    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"direction must be a unit vector, |a|={norm}")
        object.__setattr__(self, "a", a)

    def value(self, x: np.ndarray) -> float | np.ndarray:
        x, r2 = self.space_form._r2(x)
        xa = x @ self.a
        K = self.space_form.K
        if K == 0:
            return xa
        if K == -1:
            return 2.0 * xa / (1.0 - r2)
        return 2.0 * xa / (1.0 + r2)

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Flat gradient of V_a."""
        x, r2 = self.space_form._r2(x)
        a = self.a
        K = self.space_form.K
        if K == 0:
            return np.broadcast_to(a, x.shape).copy()
        xa = (x @ a)[..., None]
        if K == -1:
            phi = 1.0 / (1.0 - r2)[..., None]
            return 2.0 * a * phi + 4.0 * xa * x * phi**2
        phi = 1.0 / (1.0 + r2)[..., None]
        return 2.0 * a * phi - 4.0 * xa * x * phi**2

    def hess(self, x: np.ndarray) -> np.ndarray:
        """Flat Hessian of V_a."""
        x, r2 = self.space_form._r2(x)
        a = self.a
        K = self.space_form.K
        dim = x.shape[-1]
        if K == 0:
            return np.zeros(x.shape + (dim,))
        xa = (x @ a)[..., None, None]
        ax = a[:, None] * x[..., None, :]
        xx = x[..., :, None] * x[..., None, :]
        sym = ax + np.swapaxes(ax, -1, -2) + xa * np.eye(dim)
        if K == -1:
            phi = 1.0 / (1.0 - r2)[..., None, None]
            return 4.0 * phi**2 * sym + 16.0 * xa * phi**3 * xx
        phi = 1.0 / (1.0 + r2)[..., None, None]
        return -4.0 * phi**2 * sym + 16.0 * xa * phi**3 * xx


def half_ball_membership(potential: Potential, ball: BallDomain, x: np.ndarray,
                         tol: float = 1e-10) -> bool:
    """True iff x lies in the closed ball and on the V_a > 0 side."""
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x)) > ball.R_model * (1.0 + tol) + tol:
        return False
    return potential.value(x) > 0.0


def boundary_sphere_shape_operator(space_form: SpaceForm, ball: BallDomain) -> float:
    """Umbilicity factor of the geodesic sphere bounding the ball.

    The second fundamental form of the boundary sphere is this factor
    times its induced metric: 1/R, coth R or cot R.
    """
    K = space_form.K
    if K == 0:
        return 1.0 / ball.R
    if K == -1:
        return float(1.0 / np.tanh(ball.R))
    return float(1.0 / np.tan(ball.R))


def boundary_potential_ratio(potential: Potential, ball: BallDomain, x: np.ndarray,
                             tol: float = 1e-8) -> float:
    """(V_a)_N / V_a at a point of the boundary sphere.

    N is the outward unit normal of the boundary sphere in the space-form
    metric.  Computed analytically from the flat gradient through the
    conformal relation; equals the umbilicity factor of the sphere.
    """
    sf = potential.space_form
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if abs(r - ball.R_model) > tol * (1.0 + ball.R_model):
        raise DomainError(f"point with |x|={r} not on the boundary sphere R_model={ball.R_model}")
    v = potential.value(x)
    if abs(v) < 1e-300:
        raise DegenerateError("potential vanishes at the boundary point")
    # N = e^{-u} x/|x| is the unit outward normal; the metric-gradient of
    # V pairs with it as e^{-u} <grad_flat V, x/|x|>.
    n_flat = x / r
    return float(np.exp(-sf.u(x)) * np.dot(potential.grad(x), n_flat) / v)
