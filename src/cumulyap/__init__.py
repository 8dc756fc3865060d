"""Steady-state cumulant tools for linear Lévy-driven SDE models on graphs.

The package solves the steady-state cumulant equations of a stable linear
SDE driven by a Lévy process, certifies identifiability of the drift
sparsity pattern through coefficient-matrix ranks, estimates the scale-free
drift from higher-order empirical cumulants with asymptotic inference, and
samples the stationary law exactly for compound Poisson noise.

The public names are each module's own ``__all__``, republished here.
"""

# importing a submodule also binds its name here, so `cli.__all__` below resolves
from .cli import *
from .coefficients import *
from .cumulants import *
from .estimation import *
from .graphs import *
from .lyapunov import *
from .sampling import *
from .study import *
from .tensors import *

__version__ = "0.1.0"

__all__ = [
    *cli.__all__,
    *coefficients.__all__,
    *cumulants.__all__,
    *estimation.__all__,
    *graphs.__all__,
    *lyapunov.__all__,
    *sampling.__all__,
    *study.__all__,
    *tensors.__all__,
]
