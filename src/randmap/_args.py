"""The integer rule every count, rank, size and seed argument follows."""

import math


def integer(value, name: str, low=-math.inf, high=math.inf, error=ValueError) -> int:
    """``value`` as an int if it is an int or an integral float in [low, high];
    else ``error`` naming the argument, its bounds and the value."""
    try:
        ok = low <= value <= high and value == int(value)
    except (TypeError, ValueError, OverflowError):  # a str or None, an array, inf
        ok = False
    if not ok:
        bounds = f" in [{low}, {high}]" if high < math.inf else f" >= {low}" if low > -math.inf else ""
        shown = repr(value) if isinstance(value, str) else value  # np.float64(2.5) shows as 2.5
        raise error(f"{name} must be an integer{bounds}, got {shown}")
    return int(value)
