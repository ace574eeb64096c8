"""Fractional calculus of coarse-grained functions.

The derivative implemented here is the modified Riemann-Liouville form with
lower terminal 0: the value of the function at 0 is subtracted before the
weakly singular kernel is applied, so constants differentiate to zero.  Orders
live in (0, 1]; order exactly 1 short-circuits to the ordinary derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expr import (
    GAMMA_EXACT_MAX,
    Constant,
    Expr,
    FracsympError,
    GammaFactor,
    NonDifferentiable,
    Power,
    Product,
    Sum,
    Variable,
    diff,
    evaluate,
    free_names,
    simplify,
)


class FracError(FracsympError):
    pass


class InvalidOrder(FracError, ValueError):
    """A derivative order outside (0, 1]."""


class PoleAtNonPositiveInteger(FracError):
    def __init__(self, x: float):
        super().__init__(f"gamma pole at {x}")
        self.x = x


class InsufficientGrid(FracError):
    pass


class NegativeBase(FracError):
    pass


class OutsideFragment(FracError):
    """The requested fractional partial has no closed form in the supported
    power fragment."""


def gamma(x: float) -> float:
    """Gamma(x) in float64, for every float argument.

    At the positive integers up to GAMMA_EXACT_MAX it is the exact (n-1)!,
    so that classical-limit identities like Gamma(2) = 1 hold to the last
    bit.  The non-positive integers are poles and raise
    PoleAtNonPositiveInteger.  Everything else is math.gamma's value,
    with float64's answer where math.gamma raises: inf where Gamma passes
    the largest float (x > 171.62, and the integers from 172 up), and nan
    at -inf.  gamma(inf) is inf and gamma(nan) is nan.
    """
    x = float(x)
    if x.is_integer():
        if x <= 0:
            raise PoleAtNonPositiveInteger(x)
        if x <= GAMMA_EXACT_MAX:
            return float(math.factorial(int(x) - 1))
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf
    except ValueError:  # -inf, the one argument left that is not a pole
        return math.nan


@dataclass(frozen=True)
class FracOrder:
    """Derivative order restricted to (0, 1]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not 0.0 < v <= 1.0:
            raise InvalidOrder(f"order must lie in (0, 1], got {v}")
        object.__setattr__(self, "value", v)


def _order(alpha) -> float:
    if isinstance(alpha, FracOrder):
        return alpha.value
    return FracOrder(float(alpha)).value


@dataclass(frozen=True)
class SymbolicPower:
    """A function given as a finite sum of c * x^beta terms, beta >= 0."""

    expr: Expr
    varname: str

    def terms(self):
        return power_terms(self.expr, self.varname)


@dataclass(frozen=True)
class SampledFunction:
    """Uniform samples on [0, x_max] starting at exactly 0."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("need matching one-dimensional sample arrays")
        if abs(xs[0]) > 1e-15:
            raise ValueError("grid must start at 0")
        steps = np.diff(xs)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def h(self) -> float:
        return float(self.xs[1] - self.xs[0])


def power_terms(e: Expr, varname: str):
    """Decompose a canonical expression into (coefficient, exponent) pairs in
    one variable.  Raises OutsideFragment when the variable hides inside an
    irreducible base."""
    canon = simplify(e)
    terms = canon.terms if isinstance(canon, Sum) else (canon,)
    out = []
    for t in terms:
        factors = t.factors if isinstance(t, Product) else (t,)
        beta = Fraction(0)
        coeff_parts = []
        for f in factors:
            base, ex = (f.base, f.exponent) if isinstance(f, Power) else (f, Fraction(1))
            if isinstance(base, Variable) and base.name == varname:
                beta += ex
            elif varname in free_names(base):
                raise OutsideFragment(
                    f"'{varname}' appears inside an irreducible factor {base!r}")
            else:
                coeff_parts.append(f)
        if beta < 0:
            raise OutsideFragment(f"negative power of '{varname}'")
        coeff = Product(tuple(coeff_parts)) if coeff_parts else Constant(Fraction(1))
        out.append((simplify(coeff), beta))
    return out


def mrl_derivative_power(f: SymbolicPower, alpha) -> SymbolicPower:
    """Closed-form derivative on the power fragment.

    Each monomial c x^beta maps to c Gamma(beta+1)/Gamma(beta+1-alpha)
    x^(beta-alpha); additive constants are annihilated.
    """
    a = _order(alpha)
    fa = Fraction(a)
    x = Variable(f.varname)
    pieces = []
    for coeff, beta in f.terms():
        if beta == 0:
            continue
        num = GammaFactor(Constant(beta + 1))
        den = Power(GammaFactor(Constant(beta + 1 - fa)), Fraction(-1))
        pieces.append(Product((coeff, num, den, Power(x, beta - fa))))
    if not pieces:
        return SymbolicPower(Constant(Fraction(0)), f.varname)
    return SymbolicPower(simplify(Sum(tuple(pieces))), f.varname)


# -- product-integration quadrature -----------------------------------------

def product_weights(mu: float, n_max: int):
    """Piecewise-linear product-integration weights of order mu.

    The weakly singular kernel integrated exactly against the linear
    interpolant gives, up to the factor h^mu / Gamma(mu + 2), weight 1 on
    the endpoint node n, d2[n - j - 1] on an interior node j, and a0[n] on
    the origin node, where

        d2[k - 1] = (k + 1)^(mu + 1) - 2 k^(mu + 1) + (k - 1)^(mu + 1),
        a0[n] = (n - 1)^(mu + 1) - n^mu (n - mu - 1)

    for k = 1 .. n_max and n = 1 .. n_max (a0[0] = 0).
    """
    ks = np.arange(0, n_max + 2, dtype=float)
    p = ks ** (mu + 1.0)
    d2 = p[2:] - 2.0 * p[1:-1] + p[:-2]
    ns = ks[1:n_max + 1]
    a0 = np.zeros(n_max + 1)
    a0[1:] = p[:n_max] - ns ** mu * (ns - mu - 1.0)
    return d2, a0


def lag_sums(g: np.ndarray, x: np.ndarray, start: int, count: int,
             hats: dict) -> np.ndarray:
    """s[t] = sum_j g[start + t - j] * x[j] for t = 0 .. count - 1, the sum
    running over the rows j of x, with g zero at negative lags and past its
    end.

    One real-FFT product of the rows of x with the stretch of g these sums
    read, so the cost is O(n log n) in n = len(x) + count instead of the
    direct O(len(x) * count).  hats keeps g's transform per (start,
    len(x), count), for callers that reuse a block shape.
    """
    p = len(x)
    lo = max(0, start - p + 1)
    # at least p + count - 1 points, so none of the wanted sums wraps round
    size = 1 << (p + count - 2).bit_length()
    key = (start, p, count)
    hat = hats.get(key)
    if hat is None:
        hat = hats[key] = np.fft.rfft(g[lo:start + count], size).reshape(
            (-1,) + (1,) * (x.ndim - 1))
    # x scaled by a power of two, which is exact, so that the transform
    # does not overflow where the sums themselves do not
    e = math.frexp(np.abs(x).max(initial=0.0))[1]
    xhat = np.fft.rfft(np.ldexp(x, -e), size, axis=0)
    xhat *= hat
    s = np.fft.irfft(xhat, size, axis=0)[start - lo:start - lo + count]
    return np.ldexp(s, e)


def _frac_integral_all(dy: np.ndarray, mu: float, h: float) -> np.ndarray:
    """Fractional integral of order mu of the sampled, zero-at-origin
    function dy, at every grid node.

    Piecewise-linear product integration (see product_weights), which keeps
    the O(h^2)-class rate a plain trapezoid rule would lose at the endpoint.
    All nodes at once: the interior and endpoint sums are one convolution,
    taken by FFT (lag_sums).
    """
    n_max = len(dy) - 1
    d2, a0 = product_weights(mu, n_max)
    kernel = np.concatenate(([1.0], d2[:n_max - 1]))
    out = np.zeros(n_max + 1)
    out[1:] = lag_sums(kernel, dy[1:], 0, n_max, {}) + a0[1:] * dy[0]
    return h**mu / gamma(mu + 2.0) * out


def _grid_index(f: SampledFunction, x: float) -> int:
    h = f.h
    k = int(round(x / h))
    if k < 0 or k >= len(f.xs) or abs(f.xs[k] - x) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"x = {x} is not a grid node")
    return k


def mrl_derivative_quadrature(f: SampledFunction, alpha, x: float) -> float:
    """Numerical derivative at a grid node: node k of mrl_derivative_grid
    on the samples up to node k + 1, or up to k itself at the last node.

    So the difference is centered when a node is available beyond x and
    one-sided at the end of the grid, and never the looser one-sided
    stencil at the origin.
    """
    a = _order(alpha)
    k = _grid_index(f, x)
    if k < 4:
        raise InsufficientGrid(f"need at least 4 nodes before x, have {k}")
    stop = min(k + 2, len(f.xs))
    head = SampledFunction(f.xs[:stop], f.ys[:stop])
    return float(mrl_derivative_grid(head, a)[k])


def mrl_derivative_grid(f: SampledFunction, alpha) -> np.ndarray:
    """Derivative at every node, for composing sequential applications.

    Interior nodes are centered differences of the fractional integral; the
    two ends use second-order one-sided stencils.  Looser at the origin
    than at the nodes mrl_derivative_quadrature reads (k >= 4) by
    construction: the one-sided stencil at node 0 sees an integral that is
    not smooth there, so its error is O(h^(1-alpha)) for smooth f (the
    exact value 0 comes out as a multiple of h^(1-alpha)) and O(1), not
    vanishing under refinement, for an x^alpha-type onset.
    A sequential composition inherits that error: the outer stage subtracts
    the node-0 value from every node, so an error delta there shifts the
    outer derivative by -delta * x^(-alpha) / Gamma(1-alpha).
    """
    a = _order(alpha)
    h = f.h
    ys = f.ys
    n = len(ys) - 1
    if n < 2:
        raise InsufficientGrid("need at least 3 nodes")
    if a == 1.0:
        i = ys.astype(float)
    else:
        i = _frac_integral_all(ys - ys[0], 1.0 - a, h)
    out = np.empty(n + 1)
    out[1:n] = (i[2:] - i[:-2]) / (2.0 * h)
    out[0] = (-3.0 * i[0] + 4.0 * i[1] - i[2]) / (2.0 * h)
    out[n] = (3.0 * i[n] - 4.0 * i[n - 1] + i[n - 2]) / (2.0 * h)
    return out


# -- chain rules -------------------------------------------------------------

def _stencil_derivative(fn: Callable, x: float, h: float = 1e-4) -> float:
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def chain_rule_a(f: SymbolicPower, u: Callable, alpha, x: float,
                 du: Callable | None = None) -> float:
    """Fractional-outer / smooth-inner composition: the fractional derivative
    of f at u(x), scaled by (u'(x)) ** alpha.  A negative inner slope has no
    real alpha-th power and is rejected."""
    a = _order(alpha)
    up = du(x) if du is not None else _stencil_derivative(u, x)
    if up < 0:
        raise NegativeBase(f"inner derivative {up} < 0 at x = {x}")
    dfa = mrl_derivative_power(f, a)
    val = evaluate(dfa.expr, {f.varname: u(x)})
    return val * up**a


def chain_rule_b(fn: Callable, u, alpha, x: float,
                 dfn: Callable | None = None) -> float:
    """Smooth-outer / fractional-inner composition: f'(u(x)) times the
    fractional derivative of u at x.  `u` may be symbolic or sampled."""
    a = _order(alpha)
    if isinstance(u, SymbolicPower):
        u_val = evaluate(u.expr, {u.varname: x})
        dua = evaluate(mrl_derivative_power(u, a).expr, {u.varname: x})
    elif isinstance(u, SampledFunction):
        u_val = float(u.ys[_grid_index(u, x)])
        dua = mrl_derivative_quadrature(u, a, x)
    else:
        raise TypeError("u must be symbolic or sampled")
    fp = dfn(u_val) if dfn is not None else _stencil_derivative(fn, u_val)
    return fp * dua


def coarse_grained_factor(alpha) -> float:
    """Gamma(1 + alpha): the factor relating a coarse increment to the
    fractional differential, and the divisor in the effective frequency."""
    return gamma(1.0 + _order(alpha))


# -- fractional partials and the coarse-grained Poisson bracket --------------

def mrl_partial_expr(e: Expr, name: str, alpha) -> Expr:
    """Fractional partial in one coordinate, all others held constant.

    Applies the one-variable power rule, `mrl_derivative_power`: the
    expression must be polynomial-with-rational-powers in `name`
    (coefficients may involve the other names).  Order 1 short-circuits to
    the ordinary partial.
    """
    a = _order(alpha)
    if a == 1.0:
        try:
            return diff(e, name)
        except NonDifferentiable as exc:
            raise OutsideFragment(str(exc)) from exc
    return mrl_derivative_power(SymbolicPower(e, name), a).expr


def _partial_at(partial_expr, e: Expr, name: str, alpha, binding) -> float:
    """Evaluate a fractional partial at a point.  A fractional order needs a
    nonnegative coordinate; evaluation failures map to OutsideFragment."""
    a = _order(alpha)
    val = float(binding[name]) if name in binding else None
    if a < 1.0 and val is not None and val < 0:
        raise OutsideFragment(
            f"coordinate '{name}' = {val} must be positive for fractional partials")
    try:
        return evaluate(partial_expr(e, name, a), binding)
    except (ValueError, ZeroDivisionError) as exc:
        raise OutsideFragment(str(exc)) from exc


def mrl_partial(e: Expr, name: str, alpha, binding) -> float:
    return _partial_at(mrl_partial_expr, e, name, alpha, binding)


def chain_partial_expr(e: Expr, name: str, alpha) -> Expr:
    """Fractional partial of a smooth observable over a coarse coordinate.

    Smooth-outer composition: the ordinary partial dF/du times the fractional
    derivative of the bare coordinate, u^(1-alpha)/Gamma(2-alpha).  This is
    the partial the coarse Hamilton-Jacobi equations use; contrast with
    mrl_partial_expr, which fractionally differentiates F itself.
    """
    a = _order(alpha)
    try:
        base = diff(e, name)
    except NonDifferentiable as exc:
        raise OutsideFragment(str(exc)) from exc
    if a == 1.0:
        return base
    fa = Fraction(a)
    scale = Product((
        Power(Variable(name), Fraction(1) - fa),
        Power(GammaFactor(Constant(Fraction(2) - fa)), Fraction(-1)),
    ))
    return simplify(Product((base, scale)))


def chain_partial(e: Expr, name: str, alpha, binding) -> float:
    return _partial_at(chain_partial_expr, e, name, alpha, binding)


def split_pairs(names: Sequence[str]):
    if len(names) % 2:
        raise ValueError("phase space needs an even number of variables")
    half = len(names) // 2
    return list(zip(names[:half], names[half:]))


def poisson_alpha(U: Expr, V: Expr, pairs, alpha, binding) -> float:
    """Coarse-grained Poisson bracket over explicit (coordinate, momentum)
    pairs, with one-variable fractional partials and a 1/Gamma(1+alpha)^2
    prefactor.  Antisymmetric by construction: the second term differentiates
    V with respect to the coordinate, mirroring the first."""
    a = _order(alpha)
    pref = 1.0 / coarse_grained_factor(a) ** 2
    acc = 0.0
    for qn, pn in pairs:
        acc += (mrl_partial(U, qn, a, binding) * mrl_partial(V, pn, a, binding)
                - mrl_partial(U, pn, a, binding) * mrl_partial(V, qn, a, binding))
    return pref * acc


def fractional_poisson_bracket(U: Expr, V: Expr, m, alpha, point) -> float:
    """Bracket on a model treated as a phase space: the first half of the
    variable list are coordinates, the second half their momenta."""
    return poisson_alpha(U, V, split_pairs(m.variables), alpha,
                         {**m.constants, **point})
