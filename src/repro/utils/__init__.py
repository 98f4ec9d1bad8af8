"""General-purpose utilities shared across the library."""

from repro.utils.rng import RngFactory, new_rng
from repro.utils.tables import format_table, format_series
from repro.utils.serialization import save_json, load_json, save_npz, load_npz

__all__ = [
    "RngFactory",
    "new_rng",
    "format_table",
    "format_series",
    "save_json",
    "load_json",
    "save_npz",
    "load_npz",
]
