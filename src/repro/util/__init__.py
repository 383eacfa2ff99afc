"""Small cross-cutting utilities (timing, concurrency)."""

from .concurrency import RWLock
from .timing import (
    format_timing_table,
    get_timings,
    merge_timings,
    reset_timings,
    timed,
    timing_report,
)

__all__ = [
    "RWLock",
    "format_timing_table",
    "get_timings",
    "merge_timings",
    "reset_timings",
    "timed",
    "timing_report",
]
