"""Signal-analysis helpers for the Elastic Cache Manager's monitors."""

from repro.analysis.export import (
    render_gantt,
    result_to_csv,
    results_to_csv,
    write_rows_csv,
)
from repro.analysis.savgol import savgol_coefficients, savgol_smooth
from repro.analysis.trends import mean_growth_rate, rolling_std, slope

__all__ = [
    "savgol_smooth",
    "savgol_coefficients",
    "slope",
    "mean_growth_rate",
    "rolling_std",
    "result_to_csv",
    "results_to_csv",
    "write_rows_csv",
    "render_gantt",
]
