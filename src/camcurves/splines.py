"""Cubic regression spline smooths over log training-set size.

The basis is the cardinal natural cubic spline family on a KnotVector: one
function per knot, interpolating 1 at its own knot and 0 at the others, with
natural boundary conditions and linear extrapolation beyond the boundary
knots, by one rule for both ends.  `basis_rows` evaluates it (every row sums
to 1), `penalty_matrix` is its exact integrated squared second derivative
(null space: the affine functions), `centring` gives the sum-to-zero
reparameterization Z and `centred_penalty` the penalty in its coordinates; a
centred smooth at x is `basis_rows(x, knots) @ Z`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import distinct
from .errors import InputError


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Strictly increasing knot locations on the covariate axis."""

    knots: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        if k.ndim != 1 or k.size < 3:
            raise InputError("need at least 3 knots")
        if not np.all(np.diff(k) > 0):
            raise InputError("knots must be strictly increasing")
        object.__setattr__(self, "knots", k)

    @property
    def count(self) -> int:
        return self.knots.size


def place_knots(distinct_covariate_values, k: int) -> KnotVector:
    """Knots at even quantiles of rank space over the distinct sorted values.

    The first and last knots coincide with the extreme values; interior knots
    interpolate linearly between adjacent distinct values.
    """
    values = np.asarray(distinct_covariate_values, dtype=float)
    vals = values[distinct(values)[0]]
    if vals.size < 2:
        raise InputError("need at least 2 distinct covariate values to place knots")
    if k < 3:
        raise InputError(f"knot count {k} below the minimum of 3")
    if not np.all(np.isfinite(vals)):
        raise InputError("covariate values must be finite")
    ranks = np.linspace(0.0, vals.size - 1.0, k)
    return KnotVector(knots=np.interp(ranks, np.arange(vals.size), vals))


def _natural_spline_system(knots: np.ndarray):
    """Value-to-second-derivative map F (k x k) and penalty S = D' B^-1 D.

    For a natural cubic spline through (t_j, f_j) the interior second
    derivatives m satisfy B m = D f with the classic tridiagonal B and
    second-difference D; the boundary second derivatives are zero.  The
    integrated squared second derivative is then f' D' B^-1 D f.
    """
    t = knots
    k = t.size
    h = np.diff(t)
    B = np.zeros((k - 2, k - 2))
    D = np.zeros((k - 2, k))
    for i in range(k - 2):
        B[i, i] = (h[i] + h[i + 1]) / 3.0
        if i + 1 < k - 2:
            B[i, i + 1] = h[i + 1] / 6.0
            B[i + 1, i] = h[i + 1] / 6.0
        D[i, i] = 1.0 / h[i]
        D[i, i + 1] = -1.0 / h[i] - 1.0 / h[i + 1]
        D[i, i + 2] = 1.0 / h[i + 1]
    binv_d = np.linalg.solve(B, D)
    F = np.zeros((k, k))
    F[1:-1, :] = binv_d
    S = D.T @ binv_d
    return F, 0.5 * (S + S.T)


def basis_rows(x, knots: KnotVector) -> np.ndarray:
    """Rows of the raw cardinal basis at points x, one column per knot.

    Inside the knot range each row mixes the bracketing hat coordinates with
    the second-derivative map.  Beyond an end knot t[end] the spline is linear
    (natural spline behavior), one rule for both ends: the unit row of that
    knot plus (x - t[end]) times the slope (e[nxt] - e[end]) / d - d/6 F[nxt]
    at it, where nxt is the knot next to it and d = t[nxt] - t[end].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InputError("covariate values must be finite")
    t = knots.knots
    k = t.size
    h = np.diff(t)
    F, _ = _natural_spline_system(t)

    rows = np.zeros((x.size, k))

    inside = (x >= t[0]) & (x <= t[-1])
    xi = x[inside]
    j = np.clip(np.searchsorted(t, xi, side="right") - 1, 0, k - 2)
    hj = h[j]
    left = (t[j + 1] - xi) / hj
    right = (xi - t[j]) / hj
    cl = ((t[j + 1] - xi) ** 3 / hj - hj * (t[j + 1] - xi)) / 6.0
    cr = ((xi - t[j]) ** 3 / hj - hj * (xi - t[j])) / 6.0
    block = cl[:, None] * F[j] + cr[:, None] * F[j + 1]
    idx = np.flatnonzero(inside)
    rows[idx] = block
    rows[idx, j] += left
    rows[idx, j + 1] += right

    unit = np.eye(k)
    for outside, end, nxt in ((x < t[0], 0, 1), (x > t[-1], -1, -2)):
        if outside.any():
            d = t[nxt] - t[end]
            slope = (unit[nxt] - unit[end]) / d - d / 6.0 * F[nxt]
            rows[outside] = unit[end] + (x[outside] - t[end])[:, None] * slope

    return rows


def penalty_matrix(knots: KnotVector) -> np.ndarray:
    """The k x k integrated squared second derivative in the raw basis."""
    return _natural_spline_system(knots.knots)[1]


def centring(rows: np.ndarray, weights) -> np.ndarray:
    """Sum-to-zero reparameterization Z over weighted rows.

    Z is k x (k-1) with orthonormal columns and `weights @ rows @ Z` is zero,
    so the smooth carries no constant next to an intercept.  Raw rows sum to
    1, so a positive weight sum keeps the column sums away from zero.
    """
    weights = np.asarray(weights, dtype=float)
    if not weights.sum() > 0.0:
        raise InputError("centring weights must have a positive sum")
    col_sums = weights @ rows
    Q, _ = np.linalg.qr(col_sums.reshape(-1, 1) / np.linalg.norm(col_sums), mode="complete")
    return Q[:, 1:]


def centred_penalty(penalty: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A raw-basis penalty in the centred coordinates Z of `centring`: Z' S Z, symmetrized."""
    centred = Z.T @ penalty @ Z
    return 0.5 * (centred + centred.T)
