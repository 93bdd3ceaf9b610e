"""Result emitters: CSV and Markdown artifacts of study results."""

from .emit import result_from_csv, result_to_csv, result_to_markdown, series_to_csv

__all__ = [
    "result_to_csv",
    "result_from_csv",
    "result_to_markdown",
    "series_to_csv",
]
