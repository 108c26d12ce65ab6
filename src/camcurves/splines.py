"""Cubic regression spline smooths over log training-set size.

The basis is the cardinal natural cubic spline family on a knot array: one
function per knot, interpolating 1 at its own knot and 0 at the others, with
natural boundary conditions and linear extrapolation beyond the boundary
knots, by one rule for both ends.  `basis_rows` evaluates it (every row sums
to 1), `turning_points` finds where a spline in it may turn, `penalty_matrix`
is its exact integrated squared second derivative (null space: the affine
functions), `centring` gives the sum-to-zero reparameterization Z and
`centred_penalty` the penalty in its coordinates; a centred smooth at x is
`basis_rows(x, knots) @ Z`.  The knots are a plain float array of at least 3
strictly increasing values, as `place_knots` returns them; these functions do
not check it, a GAM's layout (`betagam._Layout`) does, once, when it is built
from a fit or a file.
"""

from __future__ import annotations

import numpy as np

from ._numeric import distinct
from .errors import InputError


def place_knots(distinct_covariate_values, k: int) -> np.ndarray:
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
    return np.interp(ranks, np.arange(vals.size), vals)


def _natural_spline_system(knots: np.ndarray):
    """Value-to-second-derivative map F (k x k) and penalty S = D' B^-1 D.

    For a natural cubic spline through (t_j, f_j) the interior second
    derivatives m satisfy B m = D f with the classic tridiagonal B and
    second-difference D; the boundary second derivatives are zero.  The
    integrated squared second derivative is then f' D' B^-1 D f.
    """
    h = np.diff(knots)
    i = np.arange(h.size - 1)
    B = np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(h[1:-1] / 6.0, 1) + np.diag(h[1:-1] / 6.0, -1)
    D = np.zeros((h.size - 1, h.size + 1))
    D[i, i], D[i, i + 1], D[i, i + 2] = 1.0 / h[:-1], -1.0 / h[:-1] - 1.0 / h[1:], 1.0 / h[1:]
    binv_d = np.linalg.solve(B, D)
    S = D.T @ binv_d
    return np.pad(binv_d, ((1, 1), (0, 0))), 0.5 * (S + S.T)


def basis_rows(x, knots: np.ndarray) -> np.ndarray:
    """Rows of the raw cardinal basis at points x, one column per knot; `knots`
    must be at least 3 strictly increasing floats, which is not checked here.

    Inside the knot range each row mixes the bracketing hat coordinates with
    the second-derivative map.  Beyond an end knot t[end] the spline is linear
    (natural spline behavior), one rule for both ends: the unit row of that
    knot plus (x - t[end]) times the slope (e[nxt] - e[end]) / d - d/6 F[nxt]
    at it, where nxt is the knot next to it and d = t[nxt] - t[end].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InputError("covariate values must be finite")
    t = knots
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


def turning_points(values, knots: np.ndarray) -> np.ndarray:
    """The sorted x at which the natural cubic spline through (knots, values) may
    turn; none on its linear tails.  On [t_j, t_j+1] its slope at t_j + u is the
    quadratic a u^2 + m_j u + c in the values v and second derivatives m = F v.
    Its real roots in the interval, widened by 1e-9 of its width (rounding can put
    a root at a knot outside both of its intervals), are kept; an interval whose
    quadratic overflows is skipped."""
    h = np.diff(knots)
    m = _natural_spline_system(knots)[0] @ values
    a, c = (m[1:] - m[:-1]) / (2.0 * h), np.diff(values) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    return np.sort([
        min(max(knots[j] + u.real, knots[j]), knots[j + 1])
        for j in np.flatnonzero(np.isfinite([a, m[:-1], c]).all(axis=0))
        for u in np.roots([a[j], m[j], c[j]])
        if u.imag == 0.0 and -1e-9 * h[j] <= u.real <= (1.0 + 1e-9) * h[j]
    ])


def penalty_matrix(knots: np.ndarray) -> np.ndarray:
    """The k x k integrated squared second derivative in the raw basis; `knots`
    must be at least 3 strictly increasing floats, which is not checked here."""
    return _natural_spline_system(knots)[1]


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
