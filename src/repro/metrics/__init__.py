"""Measurement: bandwidth utilization, merge statistics, run reports."""

from .bandwidth import BandwidthTracker
from .merge_stats import MergeStats
from .report import format_run_report
from .timeline import Span, Timeline

__all__ = ["BandwidthTracker", "MergeStats", "Span", "Timeline",
           "format_run_report"]
