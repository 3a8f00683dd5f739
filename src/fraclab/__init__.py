"""Numerical toolbox for the fractional critical-exponent equation.

Closed-form constants with quadrature oracles, singular-integral
evaluation of the fractional Laplacian and Riesz potential, the
degenerate harmonic extension with its conormal trace, Green/Kelvin
comparison machinery, a moving-spheres lab, the constraint-driven
multi-bubble construction, and a monotone fractional Dirichlet solver.
"""

# numpy 2 loads numpy.random (the seeded generators of the suites) and
# numpy.ma (which np.unique reads) on first use; they load with the
# package, so that a command pays all of its imports here.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .params import Params
from .fields import ScalarField, radial_field
from .constants import ConstantSet, constant_set
from .fracops import (OpResult, frac_lap_at, frac_lap_radial, riesz_field,
                      riesz_potential)
from .bubbles import KelvinMap, model_bubble, standard_bubble
from .extension import extend, conormal_derivative
from .green import GreenContext, green_eval, phi_potential
from .movingsphere import ComparisonState, lambda_star_sweep
from .construction import SequencePlan, plan_sequences, validate_plan
from .solver import (FractionalDirichletProblem, IterationTrace,
                     build_problem, monotone_iterate)
from .reports import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "Params", "ScalarField", "radial_field",
    "ConstantSet", "constant_set", "OpResult", "frac_lap_at",
    "frac_lap_radial", "riesz_field", "riesz_potential", "KelvinMap",
    "model_bubble", "standard_bubble", "extend", "conormal_derivative",
    "GreenContext",
    "green_eval", "phi_potential", "ComparisonState", "lambda_star_sweep",
    "SequencePlan", "plan_sequences", "validate_plan",
    "FractionalDirichletProblem", "IterationTrace", "build_problem",
    "monotone_iterate", "RunConfig", "run_suite",
]
