"""Resource limits and error types shared across the package.

Every combinatorial enumeration in this package is exponential in its
radius or depth parameter, so limits are hard errors rather than silent
truncations.  The radius cap is `DEFAULT_MAX_RADIUS`, which
`BDL_MAX_RADIUS` in the environment overrides; the cylinder depth cap is
`DEFAULT_MAX_DEPTH` and has no override.
"""

from __future__ import annotations

import os

DEFAULT_MAX_RADIUS = 12
DEFAULT_MAX_DEPTH = 8


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ResourceLimitError(RuntimeError):
    """A radius/depth parameter exceeded the configured bound."""


def max_radius() -> int:
    raw = os.environ.get("BDL_MAX_RADIUS")
    if not raw:
        return DEFAULT_MAX_RADIUS
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"BDL_MAX_RADIUS must be an integer, got {raw!r}") from None


def check_radius(R: int) -> None:
    if R < 0:
        raise DomainError(f"radius must be nonnegative, got {R}")
    if R > max_radius():
        raise ResourceLimitError(
            f"radius {R} exceeds the configured bound {max_radius()} "
            "(set BDL_MAX_RADIUS to raise it)"
        )


def check_depth(d: int) -> None:
    if d < 0:
        raise DomainError(f"depth must be nonnegative, got {d}")
    if d > DEFAULT_MAX_DEPTH:
        raise ResourceLimitError(
            f"cylinder depth {d} exceeds the configured bound {DEFAULT_MAX_DEPTH}"
        )
