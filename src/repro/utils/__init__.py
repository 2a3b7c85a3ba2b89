"""Shared utilities: seeded RNG management, summary statistics, formatting."""

from .rng import make_generator
from .stats import confidence_interval_95, summarize
from .tables import format_table

__all__ = [
    "make_generator",
    "confidence_interval_95",
    "summarize",
    "format_table",
]
