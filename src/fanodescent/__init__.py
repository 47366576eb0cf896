"""Exact Chern-character descent for chains of minimal rational-curve families.

The package models a polarized Fano manifold by the rational scalars of
its Chern character (the "split" model), descends that data to minimal
families of rational curves, walks the resulting chains, and gates two
families of positivity hypotheses with exact proof-trace certificates.
All arithmetic is exact; no floating point appears anywhere.
"""

from . import coeffs, descent, exact, theorems
from .exact import *
from .coeffs import *
from .descent import *
from .theorems import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *coeffs.__all__, *descent.__all__, *theorems.__all__, "__version__"]
