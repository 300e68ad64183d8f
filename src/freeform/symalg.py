"""Pointwise algebra of principal curvatures.

Elementary symmetric mean curvatures H_k, Newton tensors T_m and their
traceless parts, Garding cones, the Newton-MacLaurin inequality and the
sub-static tensor factorization.  Everything here acts on a single point:
a shape operator with its metric, or just the vector of principal
curvatures; ``mean_curvatures`` and ``principal_curvatures`` also take a
stack of them along leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular


class AsymmetryError(ValueError):
    """Shape operator not self-adjoint with respect to the metric."""


class ConeViolationError(ValueError):
    """Curvature vector outside the required Garding cone."""


UMBILIC_RTOL = 1e-9


def mean_curvatures(kappa: np.ndarray) -> np.ndarray:
    """All elementary symmetric polynomials (H_0, ..., H_n) of kappa.

    Uses the coefficient recurrence of prod_i (1 + kappa_i t), which is
    O(n^2) and stable; the subset-sum definition is kept as a test oracle.
    Stacked input of shape (..., n) gives one row of shape (..., n+1) per
    curvature vector.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    H = np.zeros(kappa.shape[:-1] + (n + 1,))
    H[..., 0] = 1.0
    for i in range(n):
        H[..., 1:i + 2] = H[..., 1:i + 2] + kappa[..., i, None] * H[..., 0:i + 1]
    return H


def _check_self_adjoint(W: np.ndarray, g: np.ndarray, tol: float = 1e-10) -> None:
    gw = g @ W
    scale = max(1.0, float(np.abs(gw).max()))
    if float(np.abs(gw - gw.T).max()) > tol * scale:
        raise AsymmetryError("g @ W is not symmetric to tolerance")


def principal_curvatures(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the shape operator g^{-1} h, ascending; h and g may
    be stacks (..., n, n).

    Solved as a symmetric problem through the Cholesky factor of g, so a
    non-orthonormal chart cannot spoil symmetry.
    """
    L = np.linalg.cholesky(g)
    s = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, h), -1, -2))
    return np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, -1, -2)))


def to_orthonormal(M: np.ndarray, g: np.ndarray, mixed: bool = True) -> np.ndarray:
    """Components of a tensor in a g-orthonormal frame.

    For a (1,1) tensor pass ``mixed=True``; for a (0,2) tensor (both
    indices down) pass ``mixed=False``.
    """
    L = cholesky(g, lower=True)
    if mixed:
        out = L.T @ M @ solve_triangular(L, np.eye(len(g)), lower=True).T
    else:
        Linv = solve_triangular(L, np.eye(len(g)), lower=True)
        out = Linv @ M @ Linv.T
    return 0.5 * (out + out.T)


def newton_tensors(W: np.ndarray, g: np.ndarray | None = None) -> list[np.ndarray]:
    """Newton tensors (T_0, ..., T_{n-1}) of the shape operator W.

    Mixed (1,1)-components, built by the recursion T_m = H_m I - T_{m-1} W.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    if g is not None:
        _check_self_adjoint(W, np.asarray(g, dtype=float))
        kappa = principal_curvatures(np.asarray(g) @ W, np.asarray(g))
    else:
        kappa = np.linalg.eigvals(W).real
    H = mean_curvatures(np.sort(kappa))
    tensors = [np.eye(n)]
    for m in range(1, n):
        tensors.append(H[m] * np.eye(n) - tensors[-1] @ W)
    return tensors


def newton_tensor_delta_oracle(W: np.ndarray, m: int) -> np.ndarray:
    """Newton tensor straight from the generalized-Kronecker-delta sum.

    Brute force over injective index tuples; test oracle only, exponential
    in m, intended for small n.
    """
    import itertools
    import math

    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    T = np.zeros((n, n))
    idx = range(n)
    for i in idx:
        for I in itertools.permutations([p for p in idx if p != i], m):
            support = (i,) + I
            for j in support:
                rest = [p for p in support if p != j]
                for J in itertools.permutations(rest):
                    sign = _perm_sign(support, (j,) + J)
                    prod = 1.0
                    for a, b in zip(I, J):
                        prod *= W[a, b]
                    T[j, i] += sign * prod
    return T / math.factorial(m)


def _perm_sign(src: tuple, dst: tuple) -> int:
    """Sign of the permutation carrying tuple src to tuple dst."""
    pos = {v: k for k, v in enumerate(src)}
    perm = [pos[v] for v in dst]
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def newton_tensor_eigen_oracle(h: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
    """Independent Newton-tensor oracle via the eigenbasis.

    In the eigenbasis of the shape operator, T_m acts on the i-th
    eigenvector by the m-th elementary symmetric polynomial of the other
    eigenvalues (subset enumeration, no recursion).
    """
    import itertools

    L = cholesky(np.asarray(g, dtype=float), lower=True)
    s = solve_triangular(L, solve_triangular(L, np.asarray(h, dtype=float), lower=True).T,
                         lower=True)
    lam, Q = eigh(0.5 * (s + s.T))
    n = lam.size
    diag = np.zeros(n)
    for i in range(n):
        others = np.delete(lam, i)
        diag[i] = sum(np.prod(c) for c in itertools.combinations(others, m)) if m else 1.0
    s_T = Q @ np.diag(diag) @ Q.T
    # back to mixed chart components: W-mixed = L^{-T} S L^{T}
    Lt_inv = solve_triangular(L.T, np.eye(n), lower=False)
    return Lt_inv @ s_T @ L.T


def traceless_part(T_m: np.ndarray, H_m: float, n: int, m: int) -> np.ndarray:
    """T_m minus its trace part ((n-m) H_m / n) * identity, mixed indices."""
    return T_m - ((n - m) * H_m / n) * np.eye(n)


@dataclass(frozen=True)
class ConeReport:
    """Garding-cone membership of a curvature vector."""

    H: np.ndarray
    in_cone: np.ndarray  # in_cone[k] for k = 1..n
    max_k: int

    def in_cone_k(self, k: int) -> bool:
        return bool(self.in_cone[k - 1])


def cone_report(kappa: np.ndarray) -> ConeReport:
    H = mean_curvatures(kappa)
    n = len(kappa)
    flags = np.zeros(n, dtype=bool)
    ok = True
    max_k = 0
    for k in range(1, n + 1):
        ok = ok and H[k] > 0.0
        flags[k - 1] = ok
        if ok:
            max_k = k
    return ConeReport(H=H, in_cone=flags, max_k=max_k)


def is_umbilic(kappa: np.ndarray, rtol: float = UMBILIC_RTOL) -> bool:
    kappa = np.asarray(kappa, dtype=float)
    mean = float(kappa.mean())
    return float(np.abs(kappa - mean).max()) <= rtol * (1.0 + abs(mean))


def newton_maclaurin_check(kappa: np.ndarray, k: int) -> tuple[float, float, float]:
    """(lhs, rhs, slack) of ((n-k)/n) H_1 H_k >= (k+1) H_{k+1}."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    rep = cone_report(kappa)
    if not rep.in_cone_k(k):
        raise ConeViolationError(f"kappa not in Garding cone of order {k}")
    H = rep.H
    lhs = (n - k) / n * H[1] * H[k]
    rhs = (k + 1) * H[k + 1]
    return float(lhs), float(rhs), float(lhs - rhs)


def substatic_tensor(h: np.ndarray, g: np.ndarray, V: float, V_nu: float) -> np.ndarray:
    """Factorized sub-static tensor (V h - V_nu g)(H g - h), orthonormal frame.

    Both factors are polynomials in the shape operator, so the product is
    symmetric; returned in a g-orthonormal frame so positivity can be read
    off the eigenvalues directly.
    """
    h_on = to_orthonormal(np.asarray(h, dtype=float), np.asarray(g, dtype=float), mixed=False)
    n = h_on.shape[0]
    Hmean = float(np.trace(h_on))
    A1 = V * h_on - V_nu * np.eye(n)
    A2 = Hmean * np.eye(n) - h_on
    out = A1 @ A2
    return 0.5 * (out + out.T)
