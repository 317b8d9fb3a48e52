"""Shared tolerance configuration."""

from __future__ import annotations

import math
import os

# Slack accepted on the 2/sqrt(3) ratio bound in theorem-level checks.
DEFAULT_THEOREM_TOL = 1e-6

ENV_THEOREM_TOL = "TVERBERG_TOL"


def theorem_tol(override: float | None = None) -> float:
    """Resolve the theorem tolerance: explicit override, then the
    TVERBERG_TOL environment variable, then the default.  Either source must
    give a finite positive value."""
    raw = override if override is not None else os.environ.get(ENV_THEOREM_TOL)
    if raw is None:
        return DEFAULT_THEOREM_TOL
    value = float(raw)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"tolerance (--tol or {ENV_THEOREM_TOL}) must be finite and positive, got {raw}"
        )
    return value
