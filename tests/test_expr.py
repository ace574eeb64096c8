"""Expression-tree core: parsing, canonical forms, calculus, evaluation."""

import math
from fractions import Fraction

import pytest

from fracsymp.expr import (
    EULER_GAMMA,
    Constant,
    GammaFactor,
    ONE,
    ParseError,
    Power,
    Product,
    Sum,
    UnboundSymbol,
    Variable,
    ZERO,
    compile_expr,
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


def parse(text, variables=("q", "p", "x")):
    return parse_expression(text, variables=variables)


def test_parse_round_trip():
    for text in (
        "q",
        "q + p",
        "2*q*p",
        "1/2*(p^2 + q^2)",
        "q^(1/2)",
        "-q + 3*p - 1/3",
        "Gamma(1 + alpha)*q",
        "q*p^(-2)",
    ):
        e = parse(text)
        again = parse(to_text(e))
        assert simplify(again) == simplify(e), text


def test_simplify_collects_and_cancels():
    e = parse("q + q + p - p")
    assert simplify(e) == simplify(parse("2*q"))
    assert simplify(parse("q - q")) == ZERO
    assert simplify(parse("q*p - p*q")) == ZERO
    assert simplify(parse("(q + p)^2 - q^2 - 2*q*p - p^2")) == ZERO


def test_exact_rational_arithmetic():
    e = simplify(parse("1/3 + 1/6"))
    assert e == Constant(Fraction(1, 2))
    assert evaluate(e) == 0.5


def test_inverse_factors_cancel():
    assert simplify(parse("(q + p)*(q + p)^(-1)")) == ONE
    # distributed quotients stay numerically equal to the reduced form
    e = simplify(parse("(q^2 - p^2)*(q + p)^(-1)"))
    got = evaluate(e, {"q": 1.7, "p": 0.3})
    assert abs(got - (1.7 - 0.3)) < 1e-12


def test_exactly_divisible_multi_term_denominator_cancels():
    # q ranks below Gamma(1 + alpha) among the bases, yet q^2 leads the
    # product: the division needs a real monomial order to find 3q - Gamma
    e = simplify(parse("(2*q + 2*Gamma(1 + alpha))*(3*q - Gamma(1 + alpha))"
                       "*(2*q + 2*Gamma(1 + alpha))^(-1)"))
    assert to_text(e) == "3*q - Gamma(1 + alpha)"
    # not divisible: the denominator stays
    kept = simplify(parse("(q^2 + 1)*(q + Gamma(1 + alpha))^(-1)"))
    assert to_text(kept) == ("q^2*(q + Gamma(1 + alpha))^(-1)"
                             " + (q + Gamma(1 + alpha))^(-1)")


def test_diff_polynomial():
    e = parse("1/2*(p^2 + q^2) + q*p")
    assert diff(e, "q") == simplify(parse("q + p"))
    assert diff(e, "p") == simplify(parse("p + q"))
    assert diff(e, "z") == ZERO


def test_diff_powers_and_constants():
    assert diff(parse("q^3"), "q") == simplify(parse("3*q^2"))
    assert diff(parse("q^(-1)"), "q") == simplify(parse("-q^(-2)"))
    assert diff(parse("Gamma(1 + alpha)*q"), "q") == simplify(
        parse("Gamma(1 + alpha)"))


def test_gamma_factor_opaque_to_diff():
    from fracsymp.expr import NonDifferentiable
    with pytest.raises(NonDifferentiable):
        diff(parse("Gamma(1 + alpha)*q"), "alpha")


def test_gamma_factor_structure():
    e = parse("Gamma(1 + alpha)")
    assert isinstance(simplify(e), GammaFactor)
    assert evaluate(e, {"alpha": 1.0}) == 1.0


def test_substitute():
    e = parse("q^2 + p")
    assert simplify(substitute(e, "q", ZERO)) == simplify(parse("p"))
    assert simplify(substitute(e, "p", parse("q"))) == simplify(
        parse("q^2 + q"))


def test_evaluate_bindings():
    e = parse("2*q + p^2")
    assert evaluate(e, {"q": 1.5, "p": 2.0}) == 7.0
    with pytest.raises(UnboundSymbol):
        evaluate(e, {"q": 1.0})


def test_reserved_euler_constant():
    e = parse_expression("gamma_ec", variables=())
    assert evaluate(e) == EULER_GAMMA
    assert evaluate(e, {"gamma_ec": 0.25}) == 0.25


def test_compile_matches_evaluate():
    e = parse("1/2*p^2 - q^3 + Gamma(1 + alpha)*q")
    fn = compile_expr(e, ("q", "p"), {"alpha": 0.5})
    for q, p in ((0.5, 1.0), (2.0, -1.0), (1.0, 0.0)):
        want = evaluate(e, {"q": q, "p": p, "alpha": 0.5})
        assert abs(fn((q, p)) - want) < 1e-14


def test_free_names():
    e = parse("q*p + Gamma(1 + alpha)*e")
    assert free_names(e) == frozenset({"q", "p", "alpha", "e"})


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse("q + ")
    with pytest.raises(ParseError):
        parse("(q + p")
    with pytest.raises(ParseError):
        parse("q @ p")
    err = None
    try:
        parse_expression("q + bad", variables=("q",), allowed=("q",))
    except ParseError as exc:
        err = exc
    assert err is not None and "bad" in str(err)


def test_power_simplification():
    assert simplify(parse("q^2*q^3")) == simplify(parse("q^5"))
    assert simplify(parse("q^(1/2)*q^(1/2)")) == simplify(parse("q"))
    half = simplify(parse("q^(1/2)"))
    assert isinstance(half, Power) and half.exponent == Fraction(1, 2)


def test_node_equality_is_structural():
    assert var("q") == Variable("q")
    assert sym("e") != var("e")
    assert Product((var("q"), var("p"))) == Product((var("q"), var("p")))
    assert Sum((var("q"),)) != Sum((var("p"),))


def test_to_text_deterministic():
    e = simplify(parse("p*q + q^2 - 1/2"))
    assert to_text(e) == to_text(simplify(parse("q^2 + q*p - 1/2")))
