"""Exact computation of torus weights along equivariant maps of graded free
modules, minimal free resolutions, and graded components of modules.

Everything is computed over the rationals with a self-contained Groebner
basis engine.  All values are immutable after construction and all
operations are pure functions, so concurrent use needs no synchronization.
"""

from .errors import (
    DependentColumnsError,
    HomogeneityError,
    InputError,
    MinimalityError,
    PolynomialSyntaxError,
    ProblemFileError,
    ResolutionStepError,
    SingularMatrixError,
)
from .groebner import (
    DivisionResult,
    GroebnerBasis,
    Resolution,
    buchberger,
    change_of_basis,
    enumerate_terms,
    is_minimal_map,
    minimal_resolution,
    normal_form,
    sort_gb_columns,
    standard_monomials,
    syzygies,
)
from .modules import (
    FreeModuleSpec,
    ModuleElement,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    ScalarMatrix,
    dual_map,
    permute_columns,
    split_by_column_degree,
)
from .parsing import parse_polynomial, polynomial_to_string
from .propagate import (
    PropagationResult,
    ResolutionStep,
    ResolutionWeights,
    negate_weights,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
    propagate_single_degree,
)
from .rings import Polynomial, RingSpec

__all__ = [
    "DependentColumnsError",
    "DivisionResult",
    "FreeModuleSpec",
    "GroebnerBasis",
    "HomogeneityError",
    "InputError",
    "MinimalityError",
    "ModuleElement",
    "ModuleTerm",
    "ModuleTermOrder",
    "PolyMatrix",
    "Polynomial",
    "PolynomialSyntaxError",
    "ProblemFileError",
    "PropagationResult",
    "Resolution",
    "ResolutionStep",
    "ResolutionStepError",
    "ResolutionWeights",
    "RingSpec",
    "ScalarMatrix",
    "SingularMatrixError",
    "buchberger",
    "change_of_basis",
    "dual_map",
    "enumerate_terms",
    "is_minimal_map",
    "minimal_resolution",
    "negate_weights",
    "normal_form",
    "parse_polynomial",
    "permute_columns",
    "polynomial_to_string",
    "propagate",
    "propagate_forward",
    "propagate_graded_components",
    "propagate_resolution",
    "propagate_single_degree",
    "sort_gb_columns",
    "split_by_column_degree",
    "standard_monomials",
    "syzygies",
]
