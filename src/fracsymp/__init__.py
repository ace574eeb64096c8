"""Canonical analysis of first-order actions with coarse-grained time.

The package covers: an exact-arithmetic expression core, fractional calculus
built on the modified Riemann-Liouville derivative, constraint analysis of
first-order Lagrangians by the symplectic iteration, fractional initial value
problem integrators, and the planar charged-particle worked example.
"""

from .expr import (
    Constant,
    Expr,
    FracsympError,
    GammaFactor,
    ParseError,
    Power,
    Product,
    Sum,
    SymbolicConstant,
    Variable,
    diff,
    evaluate,
    free_names,
    parse_expression,
    simplify,
    substitute,
    sym,
    to_text,
    var,
)
from .frac import (
    FracOrder,
    InsufficientGrid,
    NegativeBase,
    OutsideFragment,
    PoleAtNonPositiveInteger,
    SampledFunction,
    SymbolicPower,
    chain_partial,
    chain_partial_expr,
    chain_rule_a,
    chain_rule_b,
    coarse_grained_factor,
    fractional_poisson_bracket,
    gamma,
    mrl_derivative_grid,
    mrl_derivative_power,
    mrl_derivative_quadrature,
    mrl_partial,
    mrl_partial_expr,
)

__all__ = [
    "Constant", "Expr", "FracsympError", "GammaFactor", "ParseError", "Power",
    "Product", "Sum", "SymbolicConstant", "Variable", "diff", "evaluate",
    "free_names", "parse_expression", "simplify", "substitute", "sym",
    "to_text", "var",
    "FracOrder", "InsufficientGrid", "NegativeBase", "OutsideFragment",
    "PoleAtNonPositiveInteger", "SampledFunction", "SymbolicPower",
    "chain_partial", "chain_partial_expr", "chain_rule_a", "chain_rule_b",
    "coarse_grained_factor", "fractional_poisson_bracket", "gamma",
    "mrl_derivative_grid", "mrl_derivative_power",
    "mrl_derivative_quadrature", "mrl_partial", "mrl_partial_expr",
]

__version__ = "0.1.0"
