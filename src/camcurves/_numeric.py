"""Small numeric helpers used by the model-fitting modules.

The special functions of the Beta likelihood and the Wald test are written
here in numpy and the standard library, so that fitting needs no scipy:
`gammaln_psi` gives log Gamma, digamma and trigamma from one shift recurrence
and one asymptotic step, and `chi2_sf` the chi-square tail.  The recurrence
is elementwise: it shifts only the arguments below `_ASYMPTOTIC`, each by the
same count, so every output depends on its own argument alone and one call on
a stacked array gives what a call per part would.  `distinct` finds
distinct values without np.unique, so that fitting needs no numpy.ma either.
"""

import math

import numpy as np

# the recurrence shifts an argument below _ASYMPTOTIC by _ASYMPTOTIC unit steps, to
# at least _ASYMPTOTIC, where the asymptotic series below are exact to ~1e-14 relative
_ASYMPTOTIC = 8

# Bernoulli numbers B_2, B_4, ..., B_12, the coefficients of the asymptotic
# series of log Gamma, digamma and trigamma in 1/z^2
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)
_DIGAMMA_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
_STIRLING_SERIES = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def logit(p):
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return float(out) if out.ndim == 0 else out


def inv_logit(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def distinct(*columns) -> tuple:
    """(firsts, inverse) of the distinct tuples of equal-length 1-d `columns`, in sorted order.

    firsts holds the index of each tuple's first occurrence, so `column[firsts]`
    is a column's values on the distinct tuples (for one column, its sorted
    distinct values), and inverse each element's index among the tuples.  One
    stable sort and a neighbour comparison: np.unique, which does the same for
    one column, imports numpy.ma on its first call (~12 ms).
    """
    # np.lexsort sorts by its last key first; a stable sort keeps equal tuples in order
    order = np.lexsort(columns[::-1])
    starts = np.zeros(order.size, dtype=bool)  # where a new tuple begins in sorted order
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _horner(w, coefficients):
    """sum_k coefficients[k] * w**k, with one array updated in place."""
    out = coefficients[-1] * w
    for c in coefficients[-2:0:-1]:
        out += c
        out *= w
    out += coefficients[0]
    return out


def gammaln_psi(x):
    """(log Gamma(x), digamma(x), trigamma(x)) for 0 < x < 1e38, elementwise.

    An argument below _ASYMPTOTIC is shifted by exactly _ASYMPTOTIC unit
    steps, to z = x + _ASYMPTOTIC; one at or above it is not shifted.  Each
    x + j, j < _ASYMPTOTIC, enters the product whose log is subtracted from
    log Gamma, and its reciprocal enters both psi(x) = psi(x+1) - 1/x and
    psi'(x) = psi'(x+1) + 1/x^2.  The asymptotic series finish all three at z
    (Bernardo 1976, AS 103; Abramowitz & Stegun 6.1.40-41, 6.3.18 and 6.4.12):
    log Gamma(z) ~ (z - 1/2) log z - z + log(2 pi)/2 + sum_k B_2k / (2k (2k-1) z^(2k-1)),
    psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k) and
    psi'(z) ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1).
    Every output is the same, bit for bit, as that of a call on its argument
    alone.  The product of the shifted arguments stays finite while x < 1e38.
    """
    x = np.asarray(x, dtype=float)
    v = x.ravel()
    low = np.flatnonzero(v < _ASYMPTOTIC)
    xs = v[low]
    shifted = np.ones_like(xs)
    psi_low = np.zeros_like(xs)
    tri_low = np.zeros_like(xs)
    for j in range(_ASYMPTOTIC):
        xj = xs + j
        shifted *= xj
        r = 1.0 / xj
        psi_low -= r
        r *= r
        tri_low += r
    z = v
    if low.size:
        z = v.copy()
        z[low] = xs + _ASYMPTOTIC
    # in place where it can be: on a stacked (a, b, phi) of a large design, a
    # new array costs about as much as the operation that fills it
    zi = 1.0 / z
    zi2 = zi * zi
    log_z = np.log(z)
    lgamma = z - 0.5
    lgamma *= log_z
    lgamma -= z
    lgamma += _HALF_LOG_2PI
    lgamma[low] -= np.log(shifted)
    series = _horner(zi2, _STIRLING_SERIES)
    series *= zi
    lgamma += series
    psi = zi * -0.5
    psi += log_z
    series = _horner(zi2, _DIGAMMA_SERIES)
    series *= zi2
    psi -= series
    psi[low] += psi_low
    tri = zi * 0.5
    tri += 1.0
    series = _horner(zi2, _BERNOULLI)
    series *= zi2
    tri += series
    tri *= zi
    tri[low] += tri_low
    if x.ndim == 0:
        return float(lgamma[0]), float(psi[0]), float(tri[0])
    return lgamma.reshape(x.shape), psi.reshape(x.shape), tri.reshape(x.shape)


def chi2_sf(df: int, x: float) -> float:
    """Upper tail of the chi-square distribution with integer df at x.

    Closed forms (Abramowitz & Stegun 26.4.4-5), with y = x/2: for even df,
    e^-y sum_{k<df/2} y^k/k!; for odd df, erfc(sqrt y) plus
    e^-y sum_{k<(df-1)/2} y^(k+1/2)/Gamma(k+3/2).  Each term is formed in log
    space, so no factor overflows.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    half = 0.5 * (df % 2)
    head = math.erfc(math.sqrt(y)) if half else 0.0
    return head + math.fsum(
        math.exp((k + half) * log_y - y - math.lgamma(k + half + 1.0)) for k in range(df // 2)
    )
