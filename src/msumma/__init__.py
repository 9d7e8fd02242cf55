"""msumma: moment Borel summability of formal solutions of moment PDEs.

Formal power-series solutions of P(d_{m1,t}, d_{m2,z}) u = 0 with
divergent Cauchy data: exact solvers, Gevrey-order measurement,
Borel-plane singularity detection, summability-direction verdicts, and
moment Borel-Laplace resummation.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .analysis import (GevreyEstimate, SingularitySet, SummabilityReport,
                       borel_singularities, estimate_gevrey,
                       summability_verdict)
from .characteristic import (CharPolynomial, CharRoot, newton_polygon_roots,
                             summability_levels)
from .dsl import ProblemFile, parse_problem
from .errors import (DecompositionError, GridError, KappaMismatchError,
                     MomentPoleError, MsummaError, ParseError, RayBlockedError,
                     ResummationError, SectorError, SemanticError,
                     TruncationError, UnsupportedKernelError,
                     UnsupportedRangeError)
from .moments import (GAMMA_0, GAMMA_1, KernelPair, MomentFunction,
                      kernel_pair_for, mittag_leffler)
from .operators import borel, inverse_borel, moment_derivative, monomial_pseudo
from .resummation import (ResummationResult, kernel_solution_quadrature,
                          laplace_resum)
from .scaled import ScaledComplex
from .series import BiSeries, RamifiedSeries
from .solver import (PdeProblem, SimplePiece, decompose,
                     solve_constant_leading, solve_simple, sum_pieces)

__all__ = [
    "BACKEND", "__version__",
    "ScaledComplex", "RamifiedSeries", "BiSeries",
    "MomentFunction", "KernelPair", "kernel_pair_for",
    "mittag_leffler", "GAMMA_0", "GAMMA_1",
    "borel", "inverse_borel", "moment_derivative",
    "monomial_pseudo",
    "CharPolynomial", "CharRoot", "newton_polygon_roots", "summability_levels",
    "PdeProblem", "SimplePiece", "solve_constant_leading", "solve_simple",
    "decompose", "sum_pieces",
    "GevreyEstimate", "SingularitySet", "SummabilityReport", "estimate_gevrey",
    "borel_singularities", "summability_verdict",
    "ResummationResult", "laplace_resum",
    "kernel_solution_quadrature",
    "ProblemFile", "parse_problem",
    "MsummaError", "KappaMismatchError", "MomentPoleError",
    "UnsupportedKernelError", "UnsupportedRangeError", "GridError",
    "TruncationError", "DecompositionError", "RayBlockedError",
    "ResummationError", "SectorError",
    "ParseError", "SemanticError",
]
