"""Certified zero-finding for bivariate polynomial systems.

Systems are tensor-product coefficient grids in the power, Bernstein, or
Chebyshev basis. kts_solve locates every zero of the denoted map on the
unit square by subdivision, discarding patches through coefficient
enclosures and certifying zeros through a Kantorovich-style Newton
convergence test.
"""

import logging

from .basis import (
    Basis,
    BivariateSystem,
    DegreeLimitError,
    UnivariatePolynomial,
    bernstein_product,
    chebyshev_nodes,
    convert,
    convert_uni,
    derivative_bi,
    derivative_uni,
    eval_bi,
    eval_uni,
    monomial_to_chebyshev,
)
from .bounding import (
    ControlHull,
    Zonotope,
    bounding_interval,
    bounding_polytope,
    contains_origin,
    gamma,
    support,
    theta,
    xi_bernstein,
)
from .families import (
    bench_systems,
    generate_family,
    interval_comparison,
)
from .reparam import Patch, reparametrize
from .solver import (
    KantorovichOutcome,
    SolveReport,
    SolverConfig,
    ZeroRecord,
    condition_estimate,
    exclusion_test,
    kantorovich_test,
    kts_solve,
    lipschitz_bound,
    newton,
    rho_star,
)

__version__ = "0.1.0"

logging.getLogger("ktsolve").addHandler(logging.NullHandler())

__all__ = [
    "Basis",
    "BivariateSystem",
    "ControlHull",
    "DegreeLimitError",
    "KantorovichOutcome",
    "Patch",
    "SolveReport",
    "SolverConfig",
    "UnivariatePolynomial",
    "ZeroRecord",
    "Zonotope",
    "bench_systems",
    "bernstein_product",
    "bounding_interval",
    "bounding_polytope",
    "chebyshev_nodes",
    "condition_estimate",
    "contains_origin",
    "convert",
    "convert_uni",
    "derivative_bi",
    "derivative_uni",
    "eval_bi",
    "eval_uni",
    "exclusion_test",
    "gamma",
    "generate_family",
    "interval_comparison",
    "kantorovich_test",
    "kts_solve",
    "lipschitz_bound",
    "monomial_to_chebyshev",
    "newton",
    "reparametrize",
    "rho_star",
    "support",
    "theta",
    "xi_bernstein",
]
