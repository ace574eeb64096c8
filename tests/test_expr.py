"""Expression-tree core: parsing, canonical forms, calculus, evaluation."""

import dataclasses
import math
import pathlib
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracsymp.expr import (
    EULER_GAMMA,
    Constant,
    FracsympError,
    GammaFactor,
    NegativeBaseRoot,
    ONE,
    NonDifferentiable,
    ParseError,
    Power,
    Product,
    Sum,
    SymbolicConstant,
    UnboundSymbol,
    Variable,
    ZERO,
    ZeroToNegativePower,
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
from fracsymp import expr
from fracsymp.expr import (_RANKS, _base_key, _kept_poly, _poly_add, _poly_mul,
                           _read_back, _rebuild, _sorted_mono, _to_poly)
from fracsymp.frac import FracError
from fracsymp.modelfile import parse_model_file
from fracsymp import symplectic
from fracsymp.symplectic import fj_iterate


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


@pytest.mark.parametrize("text, want", [
    ("2^(1/2)*q*2^(1/2) + 2*q", "4*q"),
    ("(2^(-3/2))^2", "1/8"),
    ("(2^(1/2)*q*2^(1/2) + 2*q)^(1/2)", "(4*q)^(1/2)"),
    ("Gamma(2^(1/2)*2^(1/2)*3^(1/2)*3^(1/2))", "120"),
    ("((1 + 2^(1/2))^2)^2*(1 + 2^(1/2))^(-1)", "7 + 3*2^(1/2) + 2^(3/2)"),
])
def test_integer_powers_of_constant_roots_are_numbers(text, want):
    # also inside an opaque base or a Gamma argument, so a second
    # simplify has nothing left to fold
    e = simplify(parse(text))
    assert to_text(e) == want
    assert simplify(e) == e


def test_constant_root_denominator_divides_exactly():
    # inside the arithmetic 2^(1/2)*2^(1/2) stays the monomial 2^1, so
    # (1 + 2^(1/2))^2 is still exactly divisible by 1 + 2^(1/2)
    e = simplify(parse("(1 + 2^(1/2))^2*(1 + 2^(1/2))^(-1)"))
    assert to_text(e) == "1 + 2^(1/2)"


def test_merged_quotient_is_divided_again():
    # the quotient of the (1 + q^2)^(-2) group lands on the (1 + q^2)^(-1)
    # group, which divides only after the merge
    d = diff(parse("(q + q^3)*(1 + q^2)^(-1)"), "q")
    assert to_text(d) == "1"


def test_merged_quotients_that_cancel_leave_zero():
    # both groups land on (1 + q)^(-1/2) and sum to zero there; a zero
    # numerator divides by anything, so it must not be tried again
    e = simplify(parse("(1 + p)*(1 + p)^(-1)*(1 + q)^(-1/2) - (1 + q)^(-1/2)"))
    assert e == ZERO


def test_quotient_merges_into_a_finished_group():
    # the (2 + q) group divides down to p on (1 + q)^(-1)*(1 + p)^(-1), and
    # the merged 1 + p there divides down to 1 on (1 + q)^(-1), a group that
    # the first pass already finished: the two must add, not overwrite
    e = simplify(parse("(1 + q)^(-1) + (1 + q)^(-1)*(1 + p)^(-1)"
                       " + (2*p + q*p)*(1 + q)^(-1)*(1 + p)^(-1)*(2 + q)^(-1)"))
    assert to_text(e) == "2*(1 + q)^(-1)"


def test_gamma_of_large_integers_stays_opaque():
    start = time.perf_counter()
    e = simplify(parse("Gamma(Gamma(Gamma(5)))"))
    assert time.perf_counter() - start < 1.0
    assert to_text(e) == "Gamma(25852016738884976640000)"
    assert simplify(parse("Gamma(171)")) == Constant(Fraction(math.factorial(170)))
    assert to_text(simplify(parse("Gamma(172)"))) == "Gamma(172)"


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


@pytest.mark.parametrize("text, point, typed, builtin", [
    ("q^(-1)", 0.0, ZeroToNegativePower, ZeroDivisionError),
    ("q^(1/2)", -1.0, NegativeBaseRoot, ValueError),
], ids=["zero-base", "negative-base"])
def test_undefined_powers_are_typed_errors(text, point, typed, builtin):
    with pytest.raises(FracsympError) as err:
        evaluate(parse(text), {"q": point})
    assert isinstance(err.value, typed) and isinstance(err.value, builtin)


def test_reserved_euler_constant():
    e = parse_expression("gamma_ec", variables=())
    assert evaluate(e) == EULER_GAMMA
    assert evaluate(e, {"gamma_ec": 0.25}) == 0.25


def test_compile_matches_evaluate():
    # Sum((-p,)) is +0.0 at p = 0, as in evaluate's sum() from 0
    exprs = [parse("1/2*p^2 - q^3 + Gamma(1 + alpha)*q"), parse("-p*q"),
             Sum((-var("p"),)), ONE]
    fn = compile_expr(exprs, ("q", "p"), {"alpha": 0.5})
    for q, p in ((0.5, 1.0), (2.0, -1.0), (1.0, 0.0)):
        want = tuple(evaluate(e, {"q": q, "p": p, "alpha": 0.5}) for e in exprs)
        assert _bits(fn((q, p))) == _bits(want)
    with pytest.raises(UnboundSymbol):
        compile_expr(exprs, ("q", "p"))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


_EXPONENTS = [Fraction(k) for k in (2, 3, -1, -2)] + [
    Fraction(1, 2), Fraction(1, 3), Fraction(-3, 2)]
_LEAVES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3),
                     Fraction(7, 2)]).map(Constant),
    st.sampled_from([var("q"), var("p"), sym("k"), sym("gamma_ec")]))


def _compound(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
        st.builds(Power, children, st.sampled_from(_EXPONENTS)),
        children.map(GammaFactor))


_POSITIVE = st.floats(1e-3, 1e3)
_TREES = st.recursive(_LEAVES, _compound, max_leaves=12)


@st.composite
def _sharing_lists(draw):
    """One to three trees whose leaves may come from a common pool of
    subtrees, so that compound subtrees repeat within and across them."""
    pool = draw(st.lists(_compound(_TREES), min_size=1, max_size=2))
    tree = st.recursive(st.one_of(_LEAVES, st.sampled_from(pool)), _compound,
                        max_leaves=12)
    return draw(st.lists(tree, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(_sharing_lists(), _POSITIVE, _POSITIVE, _POSITIVE)
# the shape of a quartic potential's gradient rates: every cube is shared
@example([parse("1/3*p + 1/6*p^3 + 1/2*q^3"),
          parse("-1/3*q - 1/6*q^3 + 1/4*p^3"),
          parse("-1/2*q^3 - 1/4*p^3*Gamma(1 + k)")], 0.7, -1.3, 0.5)
# the shared q^(-1) first fails in the second component, at q = 0
@example([parse("p + 1"), parse("k*q^(-1) + p"), parse("q^(-1)")],
         0.0, 2.0, 3.0)
def test_compiled_vector_matches_evaluate_bitwise(exprs, q, p, k):
    """On trees of sums, products, integer, fractional and negative powers,
    Gamma factors, bound symbols and gamma_ec at positive points, with
    subtrees shared within and across the trees, the generated function
    returns evaluate()'s values bit for bit, or raises what evaluate raises
    on the first failing component."""
    fn = compile_expr(exprs, ("q", "p"), {"k": k})
    want = []
    for e in exprs:
        try:
            want.append(evaluate(e, {"q": q, "p": p, "k": k}))
        except (ArithmeticError, ValueError, FracError) as exc:
            with pytest.raises(type(exc)):
                fn([q, p])
            return
    assert _bits(fn([q, p])) == _bits(want)


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


@pytest.mark.parametrize("text, message", [
    ("(q)p", "trailing input 'p' (column 4)"),
    ("q p", "trailing input 'p' (column 3)"),
    ("q +   @", "unexpected character '@' (column 7)"),
    ("sin(q)", "unknown function 'sin' (column 1)"),
    ("q^p", "exponent must reduce to a rational constant (column 3)"),
], ids=["trailing-input", "after-a-space", "unexpected-after-spaces",
        "unknown-function", "non-constant-exponent"])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, same_as", [
    ("q^-2", "q^(-2)"),
    ("+q - +p", "q - p"),
], ids=["signed-exponent", "unary-plus"])
def test_signs_the_grammar_accepts(text, same_as):
    assert parse(text) == parse(same_as)


@pytest.mark.parametrize("text, root", [
    ("(10^400)^(1/2)", 10**200),
    ("(1000000000000000000000000000007^2)^(1/2)",
     1000000000000000000000000000007),
    ("(123456789012345678901^3)^(1/3)", 123456789012345678901),
    ("(10^400)^(1/4)", 10**100),
], ids=["past-float-range", "past-2^53", "cube-past-2^53", "fourth-root"])
def test_integer_roots_are_exact(text, root):
    assert simplify(parse(text)) == Constant(Fraction(root))


def test_inexact_large_roots_stay_opaque():
    assert simplify(parse("(10^401 + 1)^(1/3)")) == Power(
        Constant(Fraction(10**401 + 1)), Fraction(1, 3))


@pytest.mark.parametrize("text", ["0^(-1)*q", "(q - q)^(-1)"])
def test_zero_to_a_negative_power_is_a_typed_error(text):
    with pytest.raises(ZeroToNegativePower):
        simplify(parse(text))


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


# -- properties of the canonical form ------------------------------------------

_TREES = st.recursive(_LEAVES, _compound, max_leaves=8)
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _canonical(e):
    try:
        return simplify(e)
    except ZeroDivisionError:  # zero under a negative power
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example(parse("2^(1/2)*q*2^(1/2) + 2*q"))
@example(parse("(2^(1/2)*q*2^(1/2) + 2*q)^(1/2)"))
@example(parse("(1 + 3*q^2)*(1 + q^2)^(-1) - 2*q*(q + q^3)*(1 + q^2)^(-2)"))
@example(parse("((1 + q)^(-1))^(-2)"))
@example(parse("((q^2)^(1/2))^(-2)"))
@example(parse("(1 + q)^(1/2)*(1 + q)^(1/2) - 1 - q"))
@example(parse("((1 + q)^(-1))^(-2)*(1 + 2*q + q^2)^(-1)"))
@example(parse("(c*(1 + c)^(-2) - c*(1 + c)^(-1))*(-c^2*(1 + c)^(-2))^(-1)"))
def test_simplify_is_idempotent(e):
    s = _canonical(e)
    assert to_text(simplify(s)) == to_text(s)


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example(parse("((1 + q)^(-1))^(-2)"))
@example(parse("((q^2)^(1/2))^(-2)"))
@example(parse("(1 + q)^(1/2)*(1 + q)^(1/2) - 1 - q"))
@example(parse("((1 + q)^(-1))^(-2)*(1 + 2*q + q^2)^(-1)"))
@example(parse("(c*(1 + c)^(-2) - c*(1 + c)^(-1))*(-c^2*(1 + c)^(-2))^(-1)"))
def test_text_round_trip_up_to_simplify(e):
    s = _canonical(e)
    assert simplify(parse(to_text(s))) == s


@settings(max_examples=200, deadline=None)
@given(_TREES, _TREES, _RATIONALS, _RATIONALS)
def test_diff_is_linear(x, y, a, b):
    combo = Sum((Product((Constant(a), x)), Product((Constant(b), y))))
    try:
        dx, dy, dcombo = diff(x, "q"), diff(y, "q"), diff(combo, "q")
    except (NonDifferentiable, ZeroDivisionError):
        assume(False)
    want = Sum((Product((Constant(a), dx)), Product((Constant(b), dy))))
    assert dcombo == simplify(want)


# -- stored sort keys and hashes -----------------------------------------------

def _children(n):
    if isinstance(n, Sum):
        return n.terms
    if isinstance(n, Product):
        return n.factors
    if isinstance(n, Power):
        return (n.base,)
    if isinstance(n, GammaFactor):
        return (n.arg,)
    return ()


def _rebuilt(n):
    """An equal tree of new nodes, built from the raw field values that
    __post_init__ normalises: lists for tuples, int for Fraction."""
    def raw(v):
        return v.numerator if v.denominator == 1 else v
    if isinstance(n, Constant):
        return Constant(raw(n.value))
    if isinstance(n, Sum):
        return Sum([_rebuilt(t) for t in n.terms])
    if isinstance(n, Product):
        return Product([_rebuilt(f) for f in n.factors])
    if isinstance(n, Power):
        return Power(_rebuilt(n.base), raw(n.exponent))
    if isinstance(n, GammaFactor):
        return GammaFactor(_rebuilt(n.arg))
    return type(n)(n.name)


def _assert_stored_values_fresh(n):
    # children first: a node's field repr and field hash use its children's
    # stored values, which are then known to be fresh
    for c in _children(n):
        _assert_stored_values_fresh(c)
    fields = tuple(getattr(n, f.name) for f in dataclasses.fields(n))
    assert _base_key(n) == (_RANKS[type(n)], type(n)._field_repr(n))
    assert repr(n) == _base_key(n)[1]
    assert hash(n) == hash(fields)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_stored_key_and_hash_match_fresh_values(e):
    for tree in (e, _rebuilt(e), _canonical(e), _rebuilt(_canonical(e))):
        _assert_stored_values_fresh(tree)
    twin = _rebuilt(e)
    assert twin == e and twin is not e
    assert hash(twin) == hash(e) and _base_key(twin) == _base_key(e)


# -- stored polynomial forms -------------------------------------------------

_NO_POSITIVE, _Q_POSITIVE = frozenset(), frozenset({"q"})


def _assert_kept_dict_is_fresh(n):
    kept = _kept_poly(n)
    if kept is not None:
        for positive in (_NO_POSITIVE, _Q_POSITIVE):
            assert kept == _to_poly(_rebuilt(n), positive), (n, positive)
            assert _to_poly(n, positive) is kept


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example(parse("(1 + (q^2)^(1/2))^(1/2)"))
@example(parse("x*(1 + q)^(-1) + Gamma(1 + k)*(1 + q^2)^(1/2)"))
def test_polynomial_memo_matches_fresh_conversion(e):
    """`_to_poly` on a node equals the conversion of an equal twin of new
    nodes, while `positive` switches on the same node and the children
    were converted under the other set, and the conversion stores no dict
    on a tree that `_rebuild` did not build.  The example's opaque base
    rebuilds to a different tree under each set.  The canonical form of
    the tree under either set, where it keeps a dict for every set, keeps
    the twin's conversion under both."""
    try:
        for c in _children(e):
            _to_poly(c, _Q_POSITIVE)
        for positive in (_NO_POSITIVE, _Q_POSITIVE, _NO_POSITIVE, _Q_POSITIVE):
            got = _to_poly(e, positive)
            assert got == _to_poly(_rebuilt(e), positive)
            if not isinstance(e, (Constant, Variable, SymbolicConstant)):
                assert _kept_poly(e) is None
        for positive in (_NO_POSITIVE, _Q_POSITIVE):
            _assert_kept_dict_is_fresh(simplify(e, positive))
    except ZeroDivisionError:  # zero under a negative power
        assume(False)


@pytest.mark.parametrize("text", [
    "(q^2)^(1/2)",
    "2^(1/2)*3^(1/2)",
    "Gamma((p^2)^(1/2))*q",
])
def test_refused_base_keeps_no_dict_for_every_set(text):
    """A power base, a constant root, or a Gamma factor of a tree without
    a kept dict converts otherwise or depends on `positive`: its tree
    keeps no dict and converts afresh."""
    for positive in (_NO_POSITIVE, _Q_POSITIVE):
        s = simplify(parse(text), positive)
        assert _kept_poly(s) is None, to_text(s)
        assert _to_poly(s, positive) == _to_poly(_rebuilt(s), positive)


@pytest.mark.parametrize("text, want", [
    ("(1 + q)^(1/2)*(1 + q)^(1/2)*p", "p + p*q"),
    ("(1 + q)^(1/2)*(1 + q)^(1/2) - 1 - q", "0"),
])
def test_a_sum_at_a_positive_integer_power_folds_and_keeps_a_dict(text, want):
    """The sum base (1 + q)^1 is multiplied out where the tree is built,
    so every factor left round-trips and the tree keeps its dict under
    each set; 0 is a constant, whose dict is empty."""
    for positive in (_NO_POSITIVE, _Q_POSITIVE):
        s = simplify(parse(text), positive)
        assert to_text(s) == want
        assert (_kept_poly(s) is not None) == (s != ZERO)
        _assert_kept_dict_is_fresh(s)


def test_a_sum_base_alone_keeps_its_own_dict():
    """(1 + q)^(1/2)*(1 + q)^(1/2) is the monomial (1 + q)^1, which the
    fold multiplies out to the dict of 1 + q; the sum rebuilt from it
    keeps that dict."""
    s = simplify(parse("(1 + q)^(1/2)*(1 + q)^(1/2)"))
    assert to_text(s) == "1 + q"
    assert _kept_poly(s) == _to_poly(parse("1 + q"), _NO_POSITIVE)


def _diff_node(e, name):
    """The product rule on the tree e: the oracle `diff` is checked
    against."""
    if isinstance(e, (Constant, SymbolicConstant)):
        return ZERO
    if isinstance(e, Variable):
        return ONE if e.name == name else ZERO
    if isinstance(e, GammaFactor):
        if name in free_names(e.arg):
            raise NonDifferentiable(name)
        return ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff_node(t, name) for t in e.terms))
    if isinstance(e, Product):
        fs = e.factors
        return Sum(tuple(Product(fs[:i] + (_diff_node(fs[i], name),) + fs[i + 1:])
                         for i in range(len(fs))))
    return Product((Constant(e.exponent), Power(e.base, e.exponent - 1),
                    _diff_node(e.base, name)))


def _derivative(e, name, positive, differentiate):
    try:
        return differentiate(e, name, positive)
    except (FracsympError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=2000, deadline=None)
@given(_TREES)
@example(parse("(1 + q)^(-1)"))
@example(parse("Gamma(1 + alpha)*q"))
@example(parse("Gamma(1 + q)"))
@example(parse("Gamma(1 + q)*p"))
@example(parse("(1 + q^2)^(1/2)"))
@example(parse("(q + q^3)*(1 + q^2)^(-1)"))
@example(parse("Gamma(0*p)"))
@example(parse("0^(1/2)"))
@example(parse("Gamma(0^(-2))"))
@example(parse("(q^2)^(1/2)"))
@example(parse("(-2*q)^(1/2)"))
@example(parse("2^(1/2)*q"))
def test_diff_on_the_kept_dict_matches_the_tree_rule(e):
    """For any tree e and its canonical form s under {} and {q}, `diff`
    of e and of s by q and by p equals `simplify` of the product-rule
    tree of an equal twin of s made of new nodes (which keeps no dict),
    or both raise the same error; where `simplify(e)` raises, `diff(e)`
    raises the same.  So `diff` is the derivative of the canonical form,
    not an approximation: Gamma(0*p) by p is 0, Gamma(0^(-2)) raises
    ZeroToNegativePower, and Gamma(1 + q) raises NonDifferentiable by q.
    (q^2)^(1/2) differs under the two sets, and (-2*q)^(1/2) and the
    constant root 2^(1/2) stay opaque factors."""
    def by_tree(s, name, positive):
        return simplify(_diff_node(_rebuilt(s), name), positive)

    for positive in (_NO_POSITIVE, _Q_POSITIVE):
        try:
            s = simplify(e, positive)
        except (FracsympError, ArithmeticError) as exc:
            for name in ("q", "p"):
                assert _derivative(e, name, positive, diff) is type(exc)
            continue
        for name in ("q", "p"):
            want = _derivative(s, name, positive, by_tree)
            assert _derivative(e, name, positive, diff) == want, (e, name, positive)
            assert _derivative(s, name, positive, diff) == want, (to_text(s), name)


# -- dicts read back as `simplify` reads them -----------------------------------

def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (FracsympError, ArithmeticError) as exc:
        return type(exc)


def _dicts(*trees):
    try:
        return [_to_poly(t, _NO_POSITIVE) for t in trees]
    except ZeroDivisionError:  # zero under a negative power
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES, st.booleans())
@example(parse("2^(1/2)*q"), parse("(q^2)^(1/2) + 1"), True)
@example(parse("4^(1/4)"), parse("4^(1/4) - 2^(1/2)"), True)
@example(parse("(1 + q)^(1/2)"), parse("(1 + q)^(1/2)"), True)
@example(parse("(2 + 2)^(1/3) - q"), parse("(q^2)^(1/2)*(1 + q)^(-1)"), False)
def test_read_back_is_the_dict_of_the_rebuilt_tree(x, y, product):
    """For a sum or product p of two dicts, some of whose factors do not
    round-trip (a constant root, a power base, a sum at a positive
    integer power), `_read_back(p)` is `_to_poly(_rebuild(p), {})`, or
    both raise the same error."""
    a, b = _dicts(x, y)
    p = _poly_mul(a, b) if product else _poly_add(a, b)
    want = _outcome(lambda: _to_poly(_rebuild(p), _NO_POSITIVE))
    assert _outcome(_read_back, p) == want


def _ratio_by_trees(x: dict, p: dict):
    """x / p through simplified trees: both dicts times every opaque sum
    denominator that they hold, each rebuilt and simplified, then
    simplify(a * b^-1); its value when that is a Constant, else None.
    Kept as the oracle of `_null_basis`'s one exact division of dicts."""
    den: dict = {}
    for z in (x, p):
        for mono in z:
            for b, e in mono:
                if e < 0 and isinstance(b, Sum):
                    den[b] = max(den.get(b, 0), -e)
    d = {_sorted_mono(den.items()): Fraction(1)}
    a, b = (simplify(_rebuild(_poly_mul(z, d))) for z in (x, p))
    ratio = simplify(Product((a, Power(b, Fraction(-1)))))
    return ratio.value if isinstance(ratio, Constant) else None


_ENTRIES = ["c*y", "c*y + z", "c*y + z - simplify(z)"]


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES, st.just(Fraction(0)) | _RATIONALS, st.sampled_from(_ENTRIES))
@example(parse("q"), parse("4^(1/4)*4^(1/4) - 2"), Fraction(0), "c*y + z")
@example(parse("q"), parse("(1 + q)^(1/2)*(1 + q)^(1/2) - 1 - q"), Fraction(0), "c*y + z")
@example(parse("2^(-1/2)*q"), parse("2^(1/2)*q"), Fraction(0), "c*y + z")
@example(parse("(1 + q)^(-1)*p"), parse("p + q*p"), Fraction(0), "c*y + z")
@example(parse("2^(1/2)*(1 + q)^(-1) + k"), parse("((1 + q)^(-1))^(-2)"), Fraction(-2),
         "c*y + z - simplify(z)")
def test_null_vector_entry_is_the_ratio_of_the_simplified_trees(y, z, c, entry):
    """With p the dict of y and the entry x the dict that `entry` names, the
    null vector of one pivot row holds -x/p as the tree oracle gives it,
    or the form is refused with RankDisagreement where the oracle's ratio
    is no constant.  z - simplify(z) is 0 though its dict need not be
    empty, so the entries include ones whose value is 0 and constant
    multiples of p that are so only once read back."""
    p, dz = _dicts(y, z)
    x = {m: c * v for m, v in p.items()} if c else {}
    if entry != "c*y":
        x = _poly_add(x, dz)
    if entry == "c*y + z - simplify(z)":
        x = _poly_add(x, {m: -v for m, v in _dicts(_canonical(z))[0].items()})
    assume(x and p)  # an empty entry is skipped; an empty pivot is none
    want = _outcome(_ratio_by_trees, x, p)
    got = _outcome(symplectic._null_basis, [{1: x}], [0], p, 2)
    if isinstance(want, type):
        assert issubclass(got, ZeroDivisionError) and issubclass(want, ZeroDivisionError)
    elif want is None:
        assert got is symplectic.RankDisagreement
    else:
        assert got == (symplectic._primitive((-want, Fraction(1))),)


_TESTS = pathlib.Path(__file__).parent
_QUANTIZED = sorted((_TESTS.parent / "src" / "fracsymp" / "models").glob("*.model")) + \
    sorted((_TESTS / "golden").glob("*.model"))


def test_stored_polynomial_forms_are_never_mutated(monkeypatch):
    """After the quantize pipeline (iteration and JSON table) on every
    bundled and golden model, at the file's order, at a symbolic order and
    at the orders 1/2 and 1/4, the dict kept on every tree `_rebuild`
    built on the way, the table entries and the inverse's shared
    determinant among them, such as the elimination's rows that
    `invert_form` rebuilds, equals its recomputation from an equal twin
    under both {} and {q}, so no caller edited a shared dict."""
    kept = []

    def rebuilding(p, rebuild=expr._rebuild):
        tree = rebuild(p)
        if _kept_poly(tree) is not None:
            kept.append(tree)
        return tree

    monkeypatch.setattr(expr, "_rebuild", rebuilding)
    monkeypatch.setattr(symplectic, "_rebuild", rebuilding)
    for path in _QUANTIZED:
        doc = parse_model_file(path)
        for alpha in (doc.model.alpha, None, 0.5, 0.25):
            m = dataclasses.replace(doc.model, alpha=alpha)
            _, table = fj_iterate(m, gauge_conditions=doc.gauge_conditions)
            if table is not None:
                table.to_json_dict()
    monkeypatch.undo()
    assert len(kept) > 1000
    for n in kept:
        _assert_kept_dict_is_fresh(n)


# -- stored texts and shared opaque bases ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(_TREES)
@example(parse("x*(1 + q)^(-1) - Gamma(1 + k)*((q^2)^(1/2))^(1/3)"))
def test_rendered_node_equals_an_unrendered_twin(e):
    """A tree and its canonical form, once rendered and so holding the
    stored texts of their opaque factors, are ==, hash-equal and
    repr-equal to equal trees of new nodes, and render as they do."""
    for tree in (e, _canonical(e)):
        twin = _rebuilt(tree)
        text = to_text(tree)
        _assert_stored_values_fresh(tree)
        assert twin == tree and hash(twin) == hash(tree)
        assert repr(twin) == repr(tree)
        assert to_text(twin) == to_text(tree) == text


def _opaque_bases(d):
    e = simplify(Sum((Product((var("x"), Power(d, -1))),
                      Product((var("p"), Power(d, -2))))))
    assert to_text(e) == "p*(1 + k + q)^(-2) + x*(1 + k + q)^(-1)"
    bases = [f.base for t in e.terms for f in t.factors if isinstance(f, Power)]
    assert len(bases) == 2
    return bases


def test_powers_of_one_opaque_base_share_one_tree():
    """Every power of one canonical compound base kept opaque converts to
    that base itself, through the dict it keeps, so its text is rendered
    once for all the terms.  A raw base that keeps no dict is rebuilt for
    each power, to equal trees with the same text."""
    d = simplify(parse("1 + q + k"))
    bases = _opaque_bases(d)
    assert bases[0] is d and bases[1] is d
    raw = _opaque_bases(parse("1 + q + k"))
    assert raw[0] == raw[1] == d
    assert to_text(raw[0]) == to_text(raw[1]) == "1 + k + q"
