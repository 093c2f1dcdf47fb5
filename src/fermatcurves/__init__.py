"""Stable evaluation and sampling of the curves x^(2N) + y^(2N) = 1.

The package covers the closed-form parameterization of the family, its
affine generalization, the square that the family converges to, arc-length
tooling, convergence diagnostics, and brute-force reference solvers for
cross-checking. See ``fermatcurves.cli`` for the command-line front end.

Each module lists its public names in its own ``__all__``; the package
exports exactly those.
"""

from . import core, errors, oracle, sampling
from .core import *
from .errors import *
from .oracle import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *errors.__all__, *oracle.__all__, *sampling.__all__, "__version__"]
