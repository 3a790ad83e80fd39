"""Modal decomposition of snapshot-pair data.

Fit the best linear one-step map to matched snapshot matrices, extract
its eigenvalues and modes by several equivalent routes, and cross-check
the result against balanced realization (from Markov parameters) and
linear inverse modeling (from EOF coefficients), which both estimate
the same operator from different inputs.
"""

from . import dmd, era, errors, generators, lim, linalg, pairs, scaling
from .dmd import *
from .era import *
from .errors import *
from .generators import *
from .lim import *
from .linalg import *
from .pairs import *
from .scaling import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (dmd, era, errors, generators, lim, linalg, pairs, scaling)
    for name in module.__all__
] + ["__version__"]
