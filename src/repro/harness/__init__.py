"""Result emitters: CSV artifacts of study results."""

from .emit import result_from_csv, result_to_csv, series_to_csv

__all__ = [
    "result_to_csv",
    "result_from_csv",
    "series_to_csv",
]
