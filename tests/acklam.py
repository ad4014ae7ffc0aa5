"""The scalar standard normal quantile, kept as a test oracle.

``special.normal_quantile`` evaluates Acklam's rational approximation and
one Halley step over whole arrays, with ``math.log``, ``math.exp`` and
``math.erfc`` applied elementwise. This is the one-value-at-a-time form
it replaced, with the same constants and the same operations in the same
order, so the array form must return the same bits for every p.
"""

from __future__ import annotations

import math

from betta.errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

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


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1); +-inf at the endpoints."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise NumericalError(f"normal_quantile: probability {p!r} outside [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p > 0.5:
        return -normal_quantile(1.0 - p)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        a, b, c, d, e, f = _ACKLAM_C
        x = (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
            (((_ACKLAM_D[0] * q + _ACKLAM_D[1]) * q + _ACKLAM_D[2]) * q + _ACKLAM_D[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        a, b, c, d, e, f = _ACKLAM_A
        x = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q / (
            ((((_ACKLAM_B[0] * r + _ACKLAM_B[1]) * r + _ACKLAM_B[2]) * r + _ACKLAM_B[3]) * r + _ACKLAM_B[4]) * r + 1.0
        )
    # One Halley step: u = (F(x) - p) / phi(x); x <- x - u / (1 + x*u/2).
    err = 0.5 * math.erfc(-x / _SQRT2) - p
    u = err * _SQRT2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)
