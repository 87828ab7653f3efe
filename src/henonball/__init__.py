"""Numerical toolkit for the Henon problem on the unit ball.

Computes the unique radial solution of -Δu = |x|^α u^(p_α-ε), the spectrum of
its linearization, and the nonradial bifurcation points where the first
linearized eigenvalue crosses a sphere eigenvalue.
"""

from .closedform import (
    ProblemParams,
    bifurcation_alpha,
    first_eigenfunction_closed,
    gamma,
    henon_constant,
    lambda1_closed,
    limit_lambda,
    limit_profile,
    sphere_eigen,
    sphere_multiplicity,
    sup_norm_constant,
    threshold_exponent,
)
from .errors import (
    BracketError,
    DegeneratePointError,
    DomainError,
    HenonError,
    NumericsError,
    SupercriticalError,
)

__version__ = "0.1.0"
