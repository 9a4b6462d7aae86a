"""Top-level classification: route a state to the strongest decidable verdict.

classify_state is defined in `rank4`, next to decide_rank4, because the
two call each other; this module re-exports it as the public entry point.
"""

from __future__ import annotations

from .rank4 import classify_state

__all__ = ["classify_state"]
