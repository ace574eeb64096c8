"""Fractional calculus: gamma, power rule, quadrature, chain rules,
partials, and the coarse-grained Poisson bracket."""

import math

import numpy as np
import pytest

from fracsymp.expr import evaluate, parse_expression, simplify, to_text
from fracsymp.frac import (
    FracOrder,
    InsufficientGrid,
    InvalidOrder,
    NegativeBase,
    OutsideFragment,
    PoleAtNonPositiveInteger,
    SampledFunction,
    SymbolicPower,
    _frac_integral_all,
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
    poisson_alpha,
    power_terms,
    product_weights,
    split_pairs,
)


def sp(text, varname="x"):
    return SymbolicPower(parse_expression(text, variables=(varname,)), varname)


def grid(fn, x_max, h):
    xs = h * np.arange(int(round(x_max / h)) + 1)
    return SampledFunction(xs, np.array([fn(float(x)) for x in xs]))


def _frac_integral_at(dy: np.ndarray, mu: float, h: float, n: int) -> float:
    # the direct-sum oracle for the grid integral: product_weights read off
    # at one node
    if n == 0:
        return 0.0
    d2, a0 = product_weights(mu, n)
    acc = a0[n] * dy[0] + dy[n] + float(np.dot(d2[:n - 1][::-1], dy[1:n]))
    return h**mu / gamma(mu + 2.0) * acc


# -- gamma -------------------------------------------------------------------

def test_gamma_against_stdlib():
    worst = 0.0
    x = 0.05
    while x <= 30.0:
        worst = max(worst, abs(gamma(x) - math.gamma(x)) / abs(math.gamma(x)))
        x += 0.0611
    assert worst < 1e-12


def test_gamma_exact_at_integers():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert gamma(5.0) == 24.0


def test_gamma_reflection_negative_noninteger():
    for x in (-0.5, -1.5, -2.3):
        assert abs(gamma(x) - math.gamma(x)) / abs(math.gamma(x)) < 1e-12


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma(x)


# float64's answer where math.gamma raises or Gamma leaves the float range
@pytest.mark.parametrize("x, want", [
    (171.0, float(math.factorial(170))),
    (171.5, 9.483367566824801e307),
    (171.7, math.inf),
    (172.0, math.inf),
    (1e6, math.inf),
    (-200.5, -0.0),
    (math.inf, math.inf),
    (-math.inf, math.nan),
    (math.nan, math.nan),
])
def test_gamma_float64_values(x, want):
    got = gamma(x)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_frac_order_bounds():
    FracOrder(1.0)
    FracOrder(1e-9)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidOrder):
            FracOrder(bad)


# -- power fragment ----------------------------------------------------------

def test_power_terms_decomposition():
    terms = power_terms(parse_expression("3*x^2 - x + 5", variables=("x",)), "x")
    exps = sorted(float(b) for _, b in terms)
    assert exps == [0.0, 1.0, 2.0]


def test_power_terms_rejects_negative_exponent():
    with pytest.raises(OutsideFragment):
        power_terms(parse_expression("x^(-1)", variables=("x",)), "x")


def test_power_terms_rejects_opaque_dependence():
    e = parse_expression("(1 + x)^(1/2)", variables=("x",))
    with pytest.raises(OutsideFragment):
        power_terms(e, "x")


def test_power_rule_monomial():
    # D^a x^b = Gamma(b+1)/Gamma(b+1-a) x^(b-a)
    d = mrl_derivative_power(sp("x^2"), 0.5)
    got = evaluate(d.expr, {"x": 1.0})
    assert abs(got - gamma(3.0) / gamma(2.5)) < 1e-14


def test_power_rule_annihilates_constants():
    d = mrl_derivative_power(sp("7"), 0.5)
    assert simplify(d.expr) == simplify(parse_expression("0"))


def test_power_rule_classical_limit():
    d = mrl_derivative_power(sp("x^3 - 2*x"), 1.0)
    for x in (0.5, 1.0, 2.0):
        assert abs(evaluate(d.expr, {"x": x}) - (3 * x * x - 2)) < 1e-12


def test_power_rule_linearity():
    a = 0.7
    d_sum = mrl_derivative_power(sp("x^2 + 4*x"), a)
    d1 = mrl_derivative_power(sp("x^2"), a)
    d2 = mrl_derivative_power(sp("x"), a)
    for x in (0.5, 1.5):
        lhs = evaluate(d_sum.expr, {"x": x})
        rhs = evaluate(d1.expr, {"x": x}) + 4 * evaluate(d2.expr, {"x": x})
        assert abs(lhs - rhs) < 1e-12


# -- quadrature --------------------------------------------------------------

def test_quadrature_matches_power_rule_pointwise():
    f = grid(lambda x: x * x, 2.5, 1e-3)
    want = gamma(3.0) / gamma(2.5)
    got = mrl_derivative_quadrature(f, 0.5, 1.0)
    assert abs(got - want) < 1e-4


def test_quadrature_accepts_order_one():
    f = grid(lambda x: x * x * x, 2.0, 1e-3)
    got = mrl_derivative_quadrature(f, 1.0, 1.0)
    assert abs(got - 3.0) < 1e-5


def _stencil(g, k, last, h):
    # the centered difference of g at node k, one-sided at the last node
    if k < last:
        return (g(k + 1) - g(k - 1)) / (2.0 * h)
    return (3.0 * g(k) - 4.0 * g(k - 1) + g(k - 2)) / (2.0 * h)


def test_quadrature_grid_matches_pointwise_interior():
    # against the stencil applied to the direct-sum integral, and at order 1
    # to the samples themselves, bit for bit
    h = 1e-3
    f = grid(lambda x: x * x, 2.0, h)
    dy = f.ys - f.ys[0]
    last = len(f.ys) - 1
    for x in (0.5, 1.0, 1.5, 2.0):
        k = int(round(x / h))
        want = _stencil(lambda n: _frac_integral_at(dy, 0.5, h, n), k, last, h)
        assert abs(mrl_derivative_quadrature(f, 0.5, x) - want) < 1e-12, x
        exact = _stencil(lambda n: f.ys[n], k, last, h)
        assert mrl_derivative_quadrature(f, 1.0, x) == exact, x


def test_grid_integral_matches_pointwise_at_every_node():
    # the all-nodes convolution against the one-node sum; the offset sample
    # puts weight on the origin anchor as well
    xs = 1e-3 * np.arange(1501)
    for dy in (np.sin(3.0 * xs) + np.sqrt(xs), np.cos(3.0 * xs) + 0.5):
        for mu in (0.1, 0.5, 0.9):
            got = _frac_integral_all(dy, mu, 1e-3)
            want = np.array([_frac_integral_at(dy, mu, 1e-3, n)
                             for n in range(len(dy))])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_grid_integral_matches_pointwise_on_a_long_grid():
    # 8000 nodes, where the all-nodes sum is a blocked FFT product; every
    # seventh node and the last one, against the direct one-node sum
    xs = 1e-3 * np.arange(8001)
    nodes = np.r_[0:8001:7, 8000]
    for dy in (np.sin(3.0 * xs) + np.sqrt(xs), np.cos(3.0 * xs) + 0.5):
        for mu in (0.1, 0.5, 0.9):
            got = _frac_integral_all(dy, mu, 1e-3)[nodes]
            want = np.array([_frac_integral_at(dy, mu, 1e-3, n) for n in nodes])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_quadrature_convergence_order():
    # halving h should cut the error by at least 1.8x on a smooth monomial
    want = gamma(3.0) / gamma(2.5)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        f = grid(lambda x: x * x, 2.0, h)
        errs.append(abs(mrl_derivative_quadrature(f, 0.5, 1.0) - want))
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_quadrature_acceptance_grid():
    # the full monomial/order/point grid at h = 1e-3, tolerance 1e-3
    h = 1e-3
    for beta in (0, 1, 2, 3):
        f = grid(lambda x, b=beta: x ** b, 2.5, h)
        for alpha in (0.25, 0.5, 0.75):
            d = mrl_derivative_power(sp("x^%d" % beta), alpha)
            for x in (0.5, 1.0, 2.0):
                want = evaluate(d.expr, {"x": x})
                got = mrl_derivative_quadrature(f, alpha, x)
                assert abs(got - want) < 1e-3, (beta, alpha, x)


def test_quadrature_needs_grid_room():
    f = grid(lambda x: x, 1.0, 0.25)
    with pytest.raises(InsufficientGrid):
        mrl_derivative_quadrature(f, 0.5, 0.25)


def test_quadrature_off_node_rejected():
    f = grid(lambda x: x, 1.0, 1e-3)
    with pytest.raises(ValueError):
        mrl_derivative_quadrature(f, 0.5, 0.12345)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.5, 1.0]), np.array([1.0, 2.0]))


# -- chain rules -------------------------------------------------------------

def test_chain_rule_a_linear_inner_exact():
    # for power f and linear inner u the fractional-outer rule is exact
    alpha = 0.5
    direct = mrl_derivative_power(sp("4*x^2"), alpha)
    for x in (0.5, 1.0, 1.5):
        got = chain_rule_a(sp("u^2", "u"), lambda t: 2.0 * t, alpha, x,
                           du=lambda t: 2.0)
        want = evaluate(direct.expr, {"x": x})
        assert abs(got - want) < 1e-9


def test_chain_rule_a_stencil_fallback():
    alpha = 0.5
    got = chain_rule_a(sp("u^2", "u"), lambda t: 2.0 * t, alpha, 1.0)
    want = evaluate(mrl_derivative_power(sp("4*x^2"), alpha).expr, {"x": 1.0})
    assert abs(got - want) < 1e-6


def test_chain_rule_a_rejects_negative_slope():
    with pytest.raises(NegativeBase):
        chain_rule_a(sp("u^2", "u"), lambda t: -t, 0.5, 1.0,
                     du=lambda t: -1.0)


def test_chain_rule_b_symbolic_inner():
    # f'(u(x)) * D^a u(x) with u = x^2: oracle assembled by hand
    alpha = 0.5
    x = 1.5
    u = sp("x^2")
    u_val = x * x
    du_frac = evaluate(mrl_derivative_power(u, alpha).expr, {"x": x})
    want = 2.0 * u_val * du_frac
    got = chain_rule_b(lambda v: v * v, u, alpha, x, dfn=lambda v: 2.0 * v)
    assert abs(got - want) < 1e-12


def test_chain_rule_b_sampled_inner():
    alpha = 0.5
    f = grid(lambda t: t * t, 2.0, 1e-3)
    want_inner = evaluate(mrl_derivative_power(sp("x^2"), alpha).expr,
                          {"x": 1.0})
    got = chain_rule_b(lambda v: v * v, f, alpha, 1.0, dfn=lambda v: 2.0 * v)
    assert abs(got - 2.0 * 1.0 * want_inner) < 1e-3


def test_chain_rule_b_classical_limit():
    got = chain_rule_b(lambda v: v * v, sp("x^2"), 1.0, 1.5,
                       dfn=lambda v: 2.0 * v)
    assert abs(got - 4.0 * 1.5 ** 3) < 1e-12


# -- partials and the bracket ------------------------------------------------

def test_mrl_partial_one_variable_at_a_time():
    e = parse_expression("q^2*p", variables=("q", "p"))
    d = mrl_partial_expr(e, "q", 0.5)
    want = gamma(3.0) / gamma(2.5) * 2.0 ** 1.5 * 3.0
    assert abs(evaluate(d, {"q": 2.0, "p": 3.0}) - want) < 1e-12


def test_mrl_partial_order_one_is_ordinary():
    e = parse_expression("q^2*p", variables=("q", "p"))
    d = mrl_partial_expr(e, "q", 1.0)
    assert abs(evaluate(d, {"q": 2.0, "p": 3.0}) - 12.0) < 1e-12


def test_mrl_partial_guards_negative_coordinate():
    e = parse_expression("q^2", variables=("q",))
    with pytest.raises(OutsideFragment, match="must be positive"):
        mrl_partial(e, "q", 0.5, {"q": -1.0})


def test_mrl_partial_outside_fragment():
    e = parse_expression("(1 + q)^(1/2)", variables=("q",))
    with pytest.raises(OutsideFragment):
        mrl_partial(e, "q", 0.5, {"q": 1.0})


@pytest.mark.parametrize("partial, alpha", [
    (mrl_partial_expr, 1.0), (chain_partial_expr, 1.0), (chain_partial_expr, 0.5)],
    ids=["mrl-order-one", "chain-order-one", "chain-fractional"])
def test_partial_through_a_gamma_argument_is_outside_the_fragment(partial, alpha):
    e = parse_expression("Gamma(1 + q)*p", variables=("q", "p"))
    with pytest.raises(OutsideFragment, match="gamma factor depends on 'q'"):
        partial(e, "q", alpha)


def test_chain_partial_smooth_outer():
    # dF/du * u^(1-a)/Gamma(2-a); for F = p^2/2 at p = 1, a = 0.5 this is
    # 1/Gamma(1.5) = 1.128379...
    e = parse_expression("1/2*p^2", variables=("p",))
    got = chain_partial(e, "p", 0.5, {"p": 1.0})
    assert abs(got - 1.0 / gamma(1.5)) < 1e-12


def test_chain_partial_guards_negative_coordinate():
    e = parse_expression("q^2", variables=("q",))
    with pytest.raises(OutsideFragment, match="must be positive"):
        chain_partial(e, "q", 0.5, {"q": -1.0})
    # order 1 is the ordinary partial, defined at any coordinate
    assert chain_partial(e, "q", 1.0, {"q": -1.0}) == -2.0


def test_partial_semantics_differ_on_quadratics():
    e = parse_expression("1/2*p^2", variables=("p",))
    direct = mrl_partial(e, "p", 0.5, {"p": 1.0})
    chained = chain_partial(e, "p", 0.5, {"p": 1.0})
    assert abs(direct - 0.5 * gamma(3.0) / gamma(2.5)) < 1e-12
    assert abs(direct - chained) > 0.3


def test_partial_semantics_agree_on_linear():
    e = parse_expression("3*q", variables=("q",))
    a = 0.5
    assert abs(mrl_partial(e, "q", a, {"q": 1.0})
               - chain_partial(e, "q", a, {"q": 1.0})) < 1e-12


def test_split_pairs():
    assert split_pairs(("q1", "q2", "p1", "p2")) == [("q1", "p1"), ("q2", "p2")]
    with pytest.raises(ValueError):
        split_pairs(("q", "p", "z"))


def test_poisson_alpha_canonical_value():
    q = parse_expression("q", variables=("q", "p"))
    p = parse_expression("p", variables=("q", "p"))
    got = poisson_alpha(q, p, [("q", "p")], 0.5, {"q": 1.0, "p": 1.0})
    assert abs(got - 1.0 / gamma(1.5) ** 4) < 1e-12


def test_poisson_alpha_antisymmetric_bilinear():
    U = parse_expression("q^2", variables=("q", "p"))
    V = parse_expression("q*p", variables=("q", "p"))
    pt = {"q": 1.3, "p": 0.7}
    a = 0.6
    uv = poisson_alpha(U, V, [("q", "p")], a, pt)
    vu = poisson_alpha(V, U, [("q", "p")], a, pt)
    assert abs(uv + vu) < 1e-12
    W = parse_expression("q^2 + 2*q*p", variables=("q", "p"))
    w_bracket = poisson_alpha(W, V, [("q", "p")], a, pt)
    u_bracket = poisson_alpha(U, V, [("q", "p")], a, pt)
    vv = poisson_alpha(V, V, [("q", "p")], a, pt)
    assert abs(w_bracket - (u_bracket + 2.0 * vv)) < 1e-12
    assert abs(vv) < 1e-15


def test_poisson_alpha_classical_limit():
    q = parse_expression("q", variables=("q", "p"))
    p = parse_expression("p", variables=("q", "p"))
    got = poisson_alpha(q, p, [("q", "p")], 1.0, {"q": 0.4, "p": 2.2})
    assert abs(got - 1.0) < 1e-14


def test_fractional_poisson_bracket_from_model():
    from fracsymp.symplectic import Model
    names = ("q", "p")
    kin = tuple(parse_expression(t, variables=names) for t in ("p", "0"))
    pot = parse_expression("1/2*(q^2 + p^2)", variables=names)
    m = Model(names, kin, pot, 0.5, {}, ())
    q = parse_expression("q", variables=names)
    p = parse_expression("p", variables=names)
    got = fractional_poisson_bracket(q, p, m, 0.5, {"q": 1.0, "p": 1.0})
    assert abs(got - 1.0 / gamma(1.5) ** 4) < 1e-12


def test_coarse_grained_factor():
    assert coarse_grained_factor(1.0) == 1.0
    assert abs(coarse_grained_factor(0.5) - gamma(1.5)) < 1e-15


# -- sequential composition: the genuine inequality --------------------------

def test_sequential_composition_differs_on_root_function():
    # D^(1/2) applied twice to x^(1/2) is far from the ordinary derivative:
    # the inner half-derivative of x^(1/2) is the constant Gamma(3/2), which
    # the exact second half-derivative annihilates, while D x^(1/2) at x = 1
    # is 1/2.  On the grid the two-stage value is 0.127, not 0, at every h:
    # the inner grid derivative reads 0.661 at node 0 instead of 0.886, and
    # the outer stage turns that error delta into -delta * x^(-1/2) /
    # Gamma(1/2).  The bound on |seq| allows for that residual.
    h = 1e-4
    f = grid(lambda x: math.sqrt(x), 1.25, h)
    inner = mrl_derivative_grid(f, 0.5)
    seq = mrl_derivative_quadrature(SampledFunction(f.xs, inner), 0.5, 1.0)
    direct = 0.5
    assert abs(seq - direct) > 0.3
    assert abs(seq) < 0.2
