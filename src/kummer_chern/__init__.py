"""Exact Chern numbers of generalised Kummer varieties.

The pipeline localizes the universal complex genus of Hilbert schemes of
points on a toric surface at the torus-fixed points, assembles the Kummer
series from the logarithm of the genus series as described in
:mod:`kummer_chern.assembly`, and converts the resulting power-sum
integrals into Chern numbers.  All arithmetic is exact.
"""

from .assembly import (
    KummerResult,
    hilbert_chern_numbers,
    hilbert_genus_series,
    kummer_chern_numbers,
    kummer_genus_series,
)
from .localization import (
    GenericityError,
    SurfaceModel,
    build_surface_model,
    find_generic_model,
    hilbert_genus,
)
from .symfun import ChernTable, evaluate_genus, genus_log_coefficients

__all__ = [
    "ChernTable",
    "GenericityError",
    "KummerResult",
    "SurfaceModel",
    "build_surface_model",
    "evaluate_genus",
    "find_generic_model",
    "genus_log_coefficients",
    "hilbert_chern_numbers",
    "hilbert_genus",
    "hilbert_genus_series",
    "kummer_chern_numbers",
    "kummer_genus_series",
]

__version__ = "0.1.0"
