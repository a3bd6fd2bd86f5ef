"""Winners-take-all network dynamics.

Simulation, equilibrium classification, stability analysis, and
opponent-selection optimization for the zero-sum resource-competition
dynamics dx_i = sum_j a_ij (x_i - x_j) x_i x_j on weighted undirected
graphs, including the reverse-time consensus form.

The package re-exports every library module's __all__, which is the one
list of that module's public names.
"""

__version__ = "0.1.0"

from . import analysis, dynamics, experiments, graph, integrate, optimize
from .graph import *
from .dynamics import *
from .integrate import *
from .analysis import *
from .optimize import *
from .experiments import *

__all__ = ["__version__", *graph.__all__, *dynamics.__all__, *integrate.__all__,
           *analysis.__all__, *optimize.__all__, *experiments.__all__]
