"""Closed forms the tests check the engines against; the package does not use them."""

import math

from randmap.specfun import SpecfunDomainError, dilog


def hk_closed_form(k: int, xi: float) -> float:
    """Closed forms of L^-1[E(eta)^k / eta], available for k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"closed form available for k in {{0,1,2}}, got {k}")
    if not 0.0 <= xi < math.inf:
        raise SpecfunDomainError(f"xi must be finite and >= 0, got {xi}")
    if k == 0:
        return 1.0
    if k == 1:
        return math.log(xi) if xi >= 1.0 else 0.0
    if xi < 2.0:
        return 0.0
    return -math.pi**2 / 6.0 + math.log(xi) ** 2 + 2.0 * dilog(1.0 / xi)
