"""Ground states of the 1D fractional NLS with one-sided derivatives.

The package discretizes the line problem

    (D_+^alpha D_-^alpha) u + V(x) u = f(u),   u >= 0, u != 0,

on a large periodic window by a Fourier pseudospectral method, builds the
constrained variational problem behind it (fibering map, natural constraint,
least energy level c), and exposes solvers plus the checkable consequences of
the theory: nonnegativity of minimizers, the gap c < c_infinity for potentials
below their limit at infinity, continuity of the level under potential shifts,
and the symmetry of ground states for even nondecreasing potentials via the
symmetric decreasing rearrangement.
"""

# the module objects, taken before `from .rearrange import *` rebinds the
# name `rearrange` to the function; each module's `__all__` is its exports
from . import energy, exceptions, grid, nehari, problem, rearrange, solver, spaces, verify

_MODULES = (exceptions, grid, spaces, problem, energy, solver, nehari, rearrange, verify)

from .exceptions import *
from .grid import *
from .spaces import *
from .problem import *
from .energy import *
from .solver import *
from .nehari import *
from .rearrange import *
from .verify import *

__version__ = "0.1.0"

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
