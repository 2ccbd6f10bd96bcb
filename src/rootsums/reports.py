"""The slack factor shared by the asymptotic envelopes."""

from __future__ import annotations

import math


def slack_factor(q: float, slack_exponent: float) -> float:
    """The (log q)^s factor standing in for q^{o(1)} in asymptotic envelopes."""
    return math.log(q) ** slack_exponent if slack_exponent else 1.0
