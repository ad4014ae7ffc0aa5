"""Reference-distribution tail functions implemented in double precision.

Everything here is self-contained so the statistical results of the
package do not depend on an external statistics runtime. The tail
functions take one float; normal_quantile takes a float or an array and
gives each element the same bits either way. The incomplete
gamma function follows the classical split: a power series on the left of
the a+1 ridge, a Lentz continued fraction on the right. Target accuracy is
1e-10 absolute or better over the whole real line, including far tails.
"""

from __future__ import annotations

import math
import sys
from itertools import count

import numpy as np

from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_EPS = 1e-16
_TINY = 1e-300


def normal_cdf(x: float) -> float:
    """Standard normal lower-tail probability P(Z <= x)."""
    if math.isnan(x):
        raise NumericalError("normal_cdf: NaN argument")
    # erfc keeps full relative accuracy in the far left tail, where the
    # naive 0.5*(1+erf(...)) form would round to 0 too early.
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_two_sided_p(z: float) -> float:
    """Two-sided p-value for an observed standard normal deviate."""
    return min(1.0, math.erfc(abs(z) / _SQRT2))


# Acklam's rational approximation for the inverse normal CDF; the raw
# approximation is good to ~1.15e-9, one Halley refinement against our own
# normal_cdf brings it to machine precision.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


# math's own functions, elementwise over float arrays: the array quantile
# makes the same libm calls, in the same order, as one scalar evaluation.
_LOG, _EXP, _ERFC = (np.frompyfunc(f, 1, 1) for f in (math.log, math.exp, math.erfc))
_P_LOW = 0.02425
# The largest argument math.exp takes without OverflowError.
_EXP_LIMIT = math.log(sys.float_info.max)


def normal_quantile(p):
    """Inverse of normal_cdf on [0, 1], for a float or an array of them.

    Returns a float for a float (or any 0-d input) and a float array of p's
    shape otherwise; -inf at 0 and +inf at 1. Each element takes Acklam's
    approximation and one Halley step (none below p of about 1e-311, where
    the step would overflow), the same IEEE operations in the same order
    for every shape, so an element's value does not depend on what else was
    passed with it. A NaN or a value outside [0, 1] anywhere
    raises NumericalError naming the first such value.
    """
    probs = np.asarray(p, dtype=float)
    outside = ~((probs >= 0.0) & (probs <= 1.0))  # NaN fails both comparisons
    if outside.any():
        raise NumericalError(f"normal_quantile: probability {float(probs[outside][0])!r} outside [0, 1]")
    # 1 - p is exact for p in [0.5, 1]; working in the lower tail keeps the
    # refinement residual F(x) - p free of cancellation.
    upper = probs > 0.5
    low = np.where(upper, 1.0 - probs, probs)
    x = np.full(low.shape, -math.inf)
    tail, central = (low > 0.0) & (low < _P_LOW), low >= _P_LOW

    q = np.sqrt(-2.0 * _LOG(low[tail]).astype(float))
    a, b, c, d, e, f = _ACKLAM_C
    x[tail] = (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
        (((_ACKLAM_D[0] * q + _ACKLAM_D[1]) * q + _ACKLAM_D[2]) * q + _ACKLAM_D[3]) * q + 1.0
    )
    q = low[central] - 0.5
    r = q * q
    a, b, c, d, e, f = _ACKLAM_A
    x[central] = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q / (
        ((((_ACKLAM_B[0] * r + _ACKLAM_B[1]) * r + _ACKLAM_B[2]) * r + _ACKLAM_B[3]) * r + _ACKLAM_B[4]) * r + 1.0
    )

    # One Halley step: u = (F(x) - p) / phi(x); x <- x - u / (1 + x*u/2),
    # with F(x) = normal_cdf(x) written out. Below p of about 1e-311,
    # exp(x*x/2) overflows; those elements keep Acklam's value, within
    # 2e-9 relative down to 5e-324, and every other element takes the step.
    step = (low > 0.0) & (0.5 * x * x <= _EXP_LIMIT)
    xi = x[step]
    err = 0.5 * _ERFC(-xi / _SQRT2).astype(float) - low[step]
    u = err * _SQRT2PI * _EXP(0.5 * xi * xi).astype(float)
    x[step] = xi - u / (1.0 + 0.5 * xi * u)
    x = np.where(upper, -x, x)
    return float(x) if x.ndim == 0 else x


def _term_budget(size: float) -> int:
    """Terms allowed to a series or continued fraction whose largest shape is size.

    About 9.2 sqrt(size) are needed near the switch point. Past size 1e8, or
    at inf or NaN, the prefactor's rounding alone exceeds 1e-7: the budget
    stops growing there, so such input fails instead of hanging.
    """
    return 600 + math.ceil(10.0 * math.sqrt(min(1e8, size)))


def _lentz(c: float, d: float, terms, budget: int, stride: int = 1) -> float | None:
    """Modified Lentz continued fraction (Numerical Recipes 5.2) from C = c, f = D = 1/d.

    Each (a_n, b_n) of terms multiplies f by C_n D_n; convergence is tested
    after every stride-th term. None if budget terms do not converge.
    """
    h = d = 1.0 / (_TINY if abs(d) < _TINY else d)
    for n, (an, bn) in zip(range(1, budget + 1), terms):
        d = an * d + bn
        if abs(d) < _TINY:
            d = _TINY
        c = bn + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS and n % stride == 0:
            return h
    return None


def _lower_gamma_series(a: float, x: float) -> float:
    """P(a, x) over x^a e^-x / Gamma(a), by power series (x < a+1)."""
    term = total = 1.0 / a
    denom = a
    for _ in range(_term_budget(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise NumericalError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_gamma_cf(a: float, x: float) -> float:
    """Q(a, x) over x^a e^-x / Gamma(a), by continued fraction (x >= a+1)."""
    def terms(b):
        for i in count(1):
            b += 2.0
            yield -i * (i - a), b
    b = x + 1.0 - a
    if (h := _lentz(1.0 / _TINY, b, terms(b), _term_budget(a))) is None:
        raise NumericalError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")
    return h


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0 or x < 0.0 or math.isnan(a) or math.isnan(x):
        raise NumericalError(f"regularized_gamma_q: invalid arguments a={a!r}, x={x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if prefactor == 0.0:
        # Either side's ratio multiplies a prefactor that has underflowed,
        # and far out the continued fraction need not converge at all.
        return 1.0 if x < a + 1.0 else 0.0
    if x < a + 1.0:
        q = 1.0 - prefactor * _lower_gamma_series(a, x)
    else:
        q = prefactor * _upper_gamma_cf(a, x)
    return min(1.0, max(0.0, q))


def chisq_upper_tail(x: float, dof: int) -> float:
    """Upper-tail probability P(X > x) for a chi-squared variable with dof degrees.

    Parameters
    ----------
    x : float
        Nonnegative quadratic-form statistic.
    dof : int
        Positive integer degrees of freedom.

    Returns
    -------
    float
        Tail probability in [0, 1]; monotone nonincreasing in x and exactly
        1.0 at x = 0.
    """
    if dof < 1 or int(dof) != dof:
        raise NumericalError(f"chisq_upper_tail: dof must be a positive integer, got {dof!r}")
    if math.isnan(x) or x < 0.0:
        raise NumericalError(f"chisq_upper_tail: statistic must be nonnegative, got {x!r}")
    return regularized_gamma_q(0.5 * dof, 0.5 * x)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta, in even and odd terms.

    Convergence is tested after each odd term only: testing after every term
    moves the last bits of many values (8% of 30 000 random arguments).
    """
    def terms():
        for m in count(1):
            m2 = 2 * m
            yield m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)), 1.0
            yield -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)), 1.0
    if (h := _lentz(1.0, 1.0 - (a + b) * x / (a + 1.0), terms(), 2 * _term_budget(max(a, b)), 2)) is None:
        raise NumericalError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")
    return h


def regularized_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0 and 0.0 <= x <= 1.0):  # NaN fails every comparison
        raise NumericalError(f"regularized_inc_beta: invalid arguments a={a!r}, b={b!r}, x={x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cf(a, b, x) / a
    else:
        value = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, value))


def student_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided p-value for an observed t statistic."""
    if math.isnan(t):
        raise NumericalError(f"student_t_two_sided_p: statistic must be a number, got {t!r}")
    if math.isinf(t):
        return 0.0
    return min(1.0, regularized_inc_beta(0.5 * dof, 0.5, dof / (dof + t * t)))
