"""Experiment harness: one driver per paper figure/table + text reports."""

from . import experiments
from .experiments import *  # noqa: F401,F403 - experiments.__all__
from .reporting import render_curve, render_table, summarize_speedups

__all__ = [
    *experiments.__all__,
    "render_table",
    "render_curve",
    "summarize_speedups",
]
