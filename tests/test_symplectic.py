"""Symplectic analysis: form assembly, constraint iteration, bracket tables,
coarse Hamilton-Jacobi flow, and the coarse Dirac bracket."""

import copy
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fracsymp
from fracsymp.cli import main
from fracsymp.expr import (
    ONE,
    ZERO,
    Constant,
    GammaFactor,
    Power,
    Product,
    Sum,
    SymbolicConstant,
    UnboundSymbol,
    Variable,
    _Packing,
    _denominator_lcm,
    _divide,
    _eliminate,
    _joined,
    _mul_sub,
    _nonzero,
    _poly_div,
    _poly_mul,
    _rebuild,
    _round_trips,
    _sorted_mono,
    _term_text,
    _terms,
    _text_pair,
    _to_poly,
    diff,
    evaluate,
    parse_expression,
    simplify,
    substitute,
    to_text,
    var,
)
from fracsymp.frac import OutsideFragment, _gamma_power, gamma
from fracsymp import symplectic
from fracsymp.modelfile import parse_model_file, parse_model_text
from fracsymp.serialize import render_json
from fracsymp.symplectic import (
    GAUGE_THEORY,
    INCONSISTENT,
    REGULAR,
    BracketTable,
    DegenerateConstraintMatrix,
    Model,
    ModelError,
    RankDisagreement,
    SingularForm,
    SymplecticError,
    CONVENTION,
    SymplecticForm,
    _in_rational_span,
    _scaled,
    assemble_form,
    coarse_dirac_bracket,
    coarse_hamilton_jacobi,
    constraints_from_zero_modes,
    extend_model,
    fj_iterate,
    fractional_equations_of_motion,
    invert_form,
    momentum_name,
    primary_constraints,
)
from test_expr import _TREES

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"


def ex(text, names):
    return parse_expression(text, variables=names)


def canonical_pair(alpha=1.0):
    names = ("q", "p")
    kin = tuple(ex(t, names) for t in ("p", "0"))
    return Model(names, kin, ex("1/2*(q^2 + p^2)", names), alpha, {}, ())


def three_var(potential_text):
    names = ("q", "p", "z")
    kin = tuple(ex(t, names) for t in ("p", "0", "0"))
    return Model(names, kin, ex(potential_text, names), 1.0, {}, ())


def two_pair(kinetic=("p1", "p2", "0", "0"), alpha=1.0):
    names = ("q1", "q2", "p1", "p2")
    kin = tuple(ex(t, names) for t in kinetic)
    return Model(names, kin, ex("1/2*(q1^2 + q2^2 + p1^2 + p2^2)", names),
                 alpha, {}, ())


# -- model validation --------------------------------------------------------

def test_model_rejects_kinetic_count_mismatch():
    names = ("q", "p")
    with pytest.raises(ModelError):
        Model(names, (ex("p", names),), ex("0", names), 1.0, {}, ())


def test_model_rejects_duplicate_names():
    names = ("q", "q")
    kin = (ex("0", ("q",)), ex("0", ("q",)))
    with pytest.raises(ModelError):
        Model(names, kin, ex("0", ("q",)), 1.0, {}, ())


def test_model_rejects_bad_order():
    with pytest.raises(ValueError):
        canonical_pair(alpha=1.5)


def test_model_rejects_undeclared_names():
    names = ("q", "p")
    kin = tuple(ex(t, names) for t in ("p", "0"))
    with pytest.raises(ModelError):
        Model(names, kin, parse_expression("w^2", variables=("w",)), 1.0, {}, ())


@pytest.mark.parametrize("constants", [
    {"alpha": 0.3}, {"gamma_ec": 2.0}, {"q": 1.0}],
    ids=["order", "euler-gamma", "variable"])
def test_model_rejects_a_constant_with_a_taken_name(constants):
    """A constant named after a variable, or after alpha or gamma_ec, which
    `binding` and `evaluate` supply, would be read on one path and
    shadowed on another."""
    names = ("q", "p")
    kin = tuple(ex(t, names) for t in ("p", "0"))
    with pytest.raises(ModelError, match="are variables or reserved"):
        Model(names, kin, ex("1/2*(q^2 + p^2)", names), 0.5, constants, ())


@pytest.mark.parametrize("names", [("alpha", "p"), ("q", "gamma_ec")],
                         ids=["order", "euler-gamma"])
def test_model_rejects_a_variable_with_a_reserved_name(names):
    """A variable named alpha would be read as the order by `binding`, and
    one named gamma_ec as Euler's constant by `evaluate`."""
    kin = tuple(ex(t, names) for t in (names[1], "0"))
    with pytest.raises(ModelError, match="are reserved"):
        Model(names, kin, ex("0", names), None, {}, ())


def test_model_alpha_always_a_legal_name():
    names = ("q", "p")
    kin = (parse_expression("Gamma(1 + alpha)*p", variables=names),
           ex("0", names))
    m = Model(names, kin, ex("0", names), None, {}, ())
    assert m.alpha is None


# -- form assembly and inversion --------------------------------------------

def test_assemble_canonical_form():
    f = assemble_form(canonical_pair())
    vals = [[evaluate(x, {"q": 0.0, "p": 0.0}) for x in row] for row in f.entries]
    assert vals == [[0.0, -1.0], [1.0, 0.0]]
    assert f.rank == 2
    assert f.null_basis == ()


def test_invert_canonical_form():
    inv = invert_form(assemble_form(canonical_pair()))
    vals = [[evaluate(x, {}) for x in row] for row in inv]
    assert vals == [[0.0, 1.0], [-1.0, 0.0]]


def test_form_antisymmetry_on_corpus():
    for name in ("canonical_pair", "landau_full", "constrained_3d"):
        doc = parse_model_file(MODELS / (name + ".model"))
        f = assemble_form(doc.model)
        n = len(doc.model.variables)
        for i in range(n):
            for j in range(n):
                s = simplify(parse_expression("0"))
                lhs = simplify(f.entries[i][j])
                rhs = simplify(parse_expression(
                    "-(" + to_text(f.entries[j][i]) + ")",
                    variables=doc.model.variables + tuple(doc.model.constants)))
                assert to_text(lhs) == to_text(rhs) or (lhs == s and rhs == s)


def test_singular_form_raises_on_invert():
    f = assemble_form(three_var("1/2*(q^2 + p^2)"))
    assert f.rank == 2
    assert f.null_basis == ((0, 0, 1),)
    with pytest.raises(SingularForm):
        invert_form(f)


def constant_form_model(names, upper, alpha=None, constants=None):
    """A model whose two-form is constant with the given upper-triangle
    texts: a_j = sum_(i<j) f_ij eta_i."""
    kin = []
    for j in range(len(names)):
        terms = ["(%s)*%s" % (upper[i][j - i - 1], names[i]) for i in range(j)]
        kin.append(ex(" + ".join(terms) or "0", names))
    potential = ex(" + ".join("1/2*%s^2" % v for v in names), names)
    return Model(names, tuple(kin), potential, alpha, constants or {}, ())


_G = "Gamma(1 + alpha)"


@pytest.mark.parametrize("names, upper, rank, null_basis", [
    # a decoupled first variable: free column 0 before the pivot columns
    (("z", "q", "p"), [["0", "0"], ["1"]], 2, ((1, 0, 0),)),
    # a decoupled middle variable
    (("q", "z", "p"), [["0", "1"], ["0"]], 2, ((0, 1, 0),)),
    # G*(u v^T - v u^T), u = (1, 2, 0, 0), v = (0, 0, 1, 1): column 1 is
    # twice column 0, so free column 1 sits before pivot column 2
    (("x1", "x2", "x3", "x4"),
     [["0", _G, _G], ["2*" + _G, "2*" + _G], ["0"]], 2,
     ((2, -1, 0, 0), (0, 0, 1, -1))),
    # the symbolic n = 5 member of the benchmark's dense family at seed 1:
    # F0 - G (e0 u^T - u e0^T) with the constant zero mode (0, -2, 2, -1, 1)
    (("x1", "x2", "x3", "x4", "x5"),
     [["14 - 3*" + _G, "-74 + " + _G, "45 + 3*" + _G, "221 - 5*" + _G],
      ["4", "-12", "-20"], ["23", "15"], ["70"]], 4,
     ((0, 2, -2, 1, -1),)),
], ids=["decoupled-first", "decoupled-middle", "free-before-pivot", "dense5-symbolic"])
def test_rank_and_null_basis_are_exact(names, upper, rank, null_basis):
    f = assemble_form(constant_form_model(names, upper))
    assert f.rank == rank
    assert f.null_basis == null_basis
    for nu in f.null_basis:
        for row in f.entries:
            terms = tuple(Product((Constant(c), e)) for c, e in zip(nu, row))
            assert simplify(Sum(terms)) == ZERO


def test_field_dependent_zero_mode_is_rejected(tmp_path, capsys):
    """The zero mode (0, p, -x) of f_qp = -x, f_qx = -p depends on the
    fields: outside the constant-mode fragment, a typed error and exit code
    1."""
    names = ("q", "p", "x")
    kin = tuple(ex(t, names) for t in ("x*p", "0", "0"))
    m = Model(names, kin, ex("1/2*(q^2 + p^2 + x^2)", names), 1.0, {}, ())
    message = "null space is not spanned by constant vectors in this fragment"
    with pytest.raises(RankDisagreement, match=message):
        assemble_form(m)
    path = tmp_path / "field_dependent.model"
    path.write_text("variables: q, p, x\nalpha: 1\nkinetic q: x*p\n"
                    "kinetic p: 0\nkinetic x: 0\n"
                    "potential: 1/2*(q^2 + p^2 + x^2)\n")
    assert main(["quantize", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("candidate, basis, inside", [
    ("2*q - 3/2*p", ("q", "p"), True),
    ("q + p^2", ("q + p", "p", "p - p^2"), True),
    ("q*p", ("q", "p"), False),
    ("q", ("0", "q + p", "2*q + 2*p"), False),
    ("0", ("q",), True),
    ("0", (), True),
    ("q", (), False),
], ids=["combination", "three-term", "new-monomial", "parallel-basis",
        "zero", "zero-empty", "empty"])
def test_rational_span_membership(candidate, basis, inside):
    names = ("q", "p")
    got = _in_rational_span(ex(candidate, names), [ex(b, names) for b in basis])
    assert got is inside


@pytest.mark.parametrize("names, upper", [
    (("x1", "x2", "x3", "x4"),
     [["(1 + c^2)^(-1)", "1", "0"], ["0", "1"], ["1 + c^2"]]),
    (("x1", "x2", "x3", "x4", "x5"),
     [["(1 + c^2)^(-1)", "1", "0", "0"], ["0", "1", "0"], ["1 + c^2", "0"], ["0"]]),
], ids=["four", "decoupled-fifth"])
def test_pivots_that_vanish_only_on_simplifying_are_skipped(names, upper):
    """The Pfaffian (1 + c^2)^(-1)*(1 + c^2) - 1 is 0, though the ring of
    `_to_poly` takes the opaque (1 + c^2)^(-1) as independent of 1 + c^2:
    the rank is 2, and the zero modes, which hold 1 + c^2, are not
    constant."""
    entries = upper_entries(upper, names)
    pivots = _eliminate(
        [[_to_poly(e, frozenset()) for e in row] for row in entries], len(entries))[0]
    assert len(pivots) == 2
    with pytest.raises(RankDisagreement, match="not spanned by constant vectors"):
        SymplecticForm(entries)
    m = constant_form_model(names, upper, 1.0, {"c": 2})
    with pytest.raises(RankDisagreement, match="not spanned by constant vectors"):
        assemble_form(m)


def test_row_scales_move_with_their_rows():
    """Row 0 is swapped down at both pivots and ends as the one non-pivot
    row, so its scale (5) must not stand in for a pivot row's (2 and 3):
    p is the pivot minor 1/6, not 1/10.  No column is free, and a left
    block with more rows than columns gives no right block."""
    f = Fraction
    rows = [[{}, {}, {(): f(1, 5)}],
            [{(): f(1, 2)}, {}, {}],
            [{}, {(): f(1, 3)}, {}]]
    assert _eliminate(rows, 2) == ([0, 1], {(): f(1, 6)}, 1, [{}, {}], None)


# The elimination as one interleaved pass over every column, written back
# into its rows, as `_eliminate` ran before it deferred the carried columns
# to a replay and returned only what callers read: kept as the oracle for
# the split, which runs the same integer step on each entry, so every entry
# a caller reads must be the same dict.

def _interleaved_eliminate(rows, ncols):
    pk = _Packing([x for row in rows for x in row], 4 * len(rows))
    scales = [_denominator_lcm(c for x in row for c in x.values()) for row in rows]
    mat = [[pk.to_ints(x, s) for x in row] for row, s in zip(rows, scales)]
    pivots, free, sign, prev = [], [], 1, {0: 1}
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat))
                    if mat[i][c] and _nonzero(pk.from_ints(mat[i][c], Fraction(1)))),
                   None)
        if sel is None:
            free.append(c)
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
            scales[r], scales[sel] = scales[sel], scales[r]
            sign = -sign
        pivot = mat[r]
        p = pivot[c]
        cols = free + list(range(c + 1, len(pivot)))
        for i, row in enumerate(mat):
            if i == r:
                continue
            a = row[c]
            for j in cols:
                row[j] = _divide(_mul_sub(p, row[j], a, pivot[j]), prev)
        pivots.append(c)
        prev = p
    s = math.prod(scales[:len(pivots)])
    p = pk.from_ints(prev, Fraction(1, s))
    for i, row in enumerate(mat):
        factor = Fraction(1, s if i < len(pivots) else s * scales[i])
        rows[i] = [pk.from_ints(x, factor) for x in row]
        for k, pc in enumerate(pivots):
            rows[i][pc] = dict(p) if k == i else {}
    return pivots, p, sign


def _poly(text):
    return _to_poly(simplify(parse_expression(text, variables=("q", "p"))),
                    frozenset())


# zeros force row swaps; 1/2, -2/3 and 3/4 give rows different scales; the
# opaque (1 + c^2)^(-1) and 1 + c^2 make pivots that are 0 only once
# simplified, and the atoms with negative and fractional exponents make
# the packing's bases round-trip
_ELIMINATED = tuple(_poly(t) for t in (
    "0", "0", "0", "1", "-2", "1/2", "-2/3", "3/4", "q", "-1/2*q",
    "Gamma(1 + alpha)", "q^(-1)", "p^(1/2)", "q + 1/3*p",
    "2*Gamma(1 + alpha) - q", "(1 + c^2)^(-1)", "1 + c^2"))


@st.composite
def _elimination_inputs(draw):
    """An n x (n + k) matrix of dicts, eliminated over its first n columns;
    some rows of the left block are multiples of others, so that the rank
    can fall short of n."""
    n = draw(st.integers(1, 4))
    k = draw(st.sampled_from((0, 1, n)))
    rows = [[draw(st.sampled_from(_ELIMINATED)) for _ in range(n + k)]
            for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            scale = draw(st.sampled_from(_ELIMINATED))
            rows[i][:n] = [_poly_mul(scale, x) for x in rows[j][:n]]
    return rows, n


_PFAFFIAN_FOUR = [[_poly(t) for t in row] for row in (
    ("0", "(1 + c^2)^(-1)", "1", "0", "1", "0", "0", "0"),
    ("-(1 + c^2)^(-1)", "0", "0", "1", "0", "1", "0", "0"),
    ("-1", "0", "0", "1 + c^2", "0", "0", "1", "0"),
    ("0", "-1", "-1 - c^2", "0", "0", "0", "0", "1"))]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_elimination_inputs())
@example(([[{}, {}, {(): Fraction(1, 5)}],
           [{(): Fraction(1, 2)}, {}, {}],
           [{}, {(): Fraction(1, 3)}, {}]], 2))
@example((_PFAFFIAN_FOUR, 4))
def test_split_elimination_matches_the_interleaved_pass(case):
    """The split `_eliminate` gives the interleaved pass's pivots, p and
    sign, and the same dict in every entry a caller reads: the pivot rows'
    free columns (`_null_basis`) and, when every row has a pivot in one of
    the first n columns, the carried columns (`invert_form`)."""
    rows, n = case
    want_rows = [list(r) for r in rows]
    want = _interleaved_eliminate(want_rows, n)
    pivots, p, sign, free, right = _eliminate(rows, n)
    assert (pivots, p, sign) == want
    rank = len(pivots)
    assert free == [{c: want_rows[r][c] for c in range(n) if c not in pivots}
                    for r in range(rank)]
    if rank == n == len(rows):
        assert right == [row[n:] for row in want_rows]
    else:
        assert right is None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_elimination_inputs())
@example((_PFAFFIAN_FOUR, 4))
def test_eliminate_leaves_its_rows_unchanged(case):
    """`_eliminate` returns what it finds and writes nothing back into
    the rows it is given, nor into their dicts."""
    rows, n = case
    before = copy.deepcopy(rows)
    _eliminate(rows, n)
    assert rows == before


def _dicts_over_atoms(draw):
    atoms = (var("q"), var("p"), SymbolicConstant("e"),
             next(iter(_poly("Gamma(1 + alpha)")))[0][0])
    exponents = [Fraction(k, d) for k, d in ((-2, 1), (-1, 1), (-1, 2), (1, 2),
                                             (1, 1), (3, 2), (2, 1))]
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.sets(st.sampled_from(atoms), max_size=3))
        mono = _sorted_mono([(b, draw(st.sampled_from(exponents))) for b in chosen])
        c = draw(st.sampled_from([Fraction(k, d) for k, d in
                                  ((1, 1), (-1, 1), (2, 3), (-2, 3))]))
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_dict_over_round_tripping_bases_is_zero_only_when_empty(data):
    """Over variables, symbolic constants and Gamma(1 + alpha), at negative
    and fractional exponents, every base round-trips, so `_eliminate` takes
    a pivot to be 0 only when its dict is empty: `_nonzero`, which clears
    opaque denominators and simplifies, agrees.  The (1 + c^2)^(-1)
    pivots above keep the other packings on `_nonzero`."""
    x = _dicts_over_atoms(data.draw)
    assert all(_round_trips(b, 1) for b in _Packing([x], 4).bases)
    assert _nonzero(x) == bool(x)


def test_a_constant_root_that_reads_back_to_0_is_no_pivot():
    """The dict of 4^(1/4)*4^(1/4) - 2 holds the monomial 4^(1/2), which
    reads back as 2: its cleared dict is empty, so it is 0."""
    x = _to_poly(parse_expression("4^(1/4)*4^(1/4) - 2"), frozenset())
    assert x and not _nonzero(x)


_A = "c*(1 + c)^(-1)"
_B = "1 - (1 + c)^(-1)"


@pytest.mark.parametrize("upper, null_basis", [
    ([[_A, _B], ["0"]], ((0, 1, -1),)),
    ([[_B, _A], ["0"]], ((0, 1, -1),)),
    ([[_A, "0"], [_B]], ((1, 0, 1),)),
    ([["0", _A], [_B]], ((1, -1, 0),)),
], ids=["first-row", "first-row-swapped", "middle", "last"])
def test_zero_mode_that_is_constant_only_on_simplifying(upper, null_basis):
    """c*(1 + c)^(-1) and 1 - (1 + c)^(-1) are equal but simplify to two
    trees, so a constant zero mode is a ratio of two different dicts."""
    m = constant_form_model(("x1", "x2", "x3"), upper, 1.0, {"c": 2})
    f = assemble_form(m)
    assert f.rank == 2
    assert f.null_basis == null_basis
    chain, _table = fj_iterate(m)
    assert chain.status == REGULAR


def test_zero_mode_contraction():
    m = three_var("1/2*(q^2 + p^2) + z*q")
    f = assemble_form(m)
    cs = constraints_from_zero_modes(f, m)
    assert [to_text(c) for c in cs] == ["q"]


def test_gauge_direction_yields_no_constraint():
    m = three_var("1/2*(q^2 + p^2)")
    cs = constraints_from_zero_modes(assemble_form(m), m)
    assert cs == []


def test_extend_model_adds_multiplier_kinetic():
    m = canonical_pair()
    ext = extend_model(m, (ex("q", m.variables),))
    assert ext.variables == ("q", "p", "lam_1")
    assert to_text(ext.kinetic[0]) == "lam_1 + p"
    assert to_text(ext.kinetic[1]) == "0"
    assert to_text(ext.kinetic[2]) == "0"


def test_multipliers_avoid_the_names_of_constants():
    """A constant lam_1 leaves the multipliers lam_2 and lam_3, so the
    lam_1 of the second constraint is the constant."""
    doc = parse_model_text(
        "variables: q, p, z\nalpha: 1\nconstants: lam_1 = 2\n"
        "kinetic q: p\nkinetic p: 0\nkinetic z: 0\n"
        "potential: 1/2*(q^2 + p^2) + z*q + lam_1*p^2\n")
    chain, table = fj_iterate(doc.model)
    assert chain.status == REGULAR
    assert [([to_text(c) for c in lev.constraints], lev.multipliers)
            for lev in chain.levels] == [(["q"], ("lam_2",)),
                                         (["2*lam_1*p + p"], ("lam_3",))]
    assert all(lev.model.constants == {"lam_1": 2.0} for lev in chain.levels)
    assert table.variables == ("q", "p")


def test_a_constraint_with_no_linear_variable_leaves_the_potential():
    """q^2 has no variable with a nonzero constant derivative, so
    `extend_model` substitutes nothing into the potential."""
    m = three_var("1/2*p^2 + q^2*z")
    constraint = simplify(ex("q^2", m.variables))
    assert symplectic._solve_linear(constraint, m.variables) is None
    ext = extend_model(m, [constraint])
    assert ext.variables == ("q", "p", "z", "lam_1")
    assert ext.potential == m.potential
    assert to_text(ext.kinetic[0]) == "2*lam_1*q + p"


# -- the iteration on the bundled corpus ------------------------------------

def test_canonical_pair_is_regular_with_unit_bracket():
    doc = parse_model_file(MODELS / "canonical_pair.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    assert chain.status == REGULAR
    assert chain.levels == ()
    assert to_text(table.entry("q", "p")) == "1"
    assert to_text(table.entry("p", "q")) == "-1"
    assert to_text(table.entry("q", "q")) == "0"


def test_landau_strong_symbolic_bracket():
    doc = parse_model_file(MODELS / "landau_strong.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    assert chain.status == REGULAR
    assert table.alpha is None
    assert to_text(table.entry("r1", "r2")) == "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"
    got = evaluate(table.entry("r1", "r2"), {"e": 1.0, "B": 1.0, "alpha": 1e-8})
    assert abs(got - 1.0 / gamma(1.0 + 1e-8)) < 1e-12


def test_constrained_model_runs_the_chain():
    doc = parse_model_file(MODELS / "constrained_3d.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    assert chain.status == REGULAR
    assert [to_text(c) for lev in chain.levels for c in lev.constraints] == ["q", "p"]
    assert [lev.multipliers for lev in chain.levels] == [("lam_1",), ("lam_2",)]
    assert any("pruned" in n for n in chain.notes)
    assert table.variables == ("q", "p")
    assert to_text(table.entry("q", "p")) == "0"


def test_gauge_theory_detected_and_reported():
    doc = parse_model_file(MODELS / "gauge_demo.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    assert chain.status == GAUGE_THEORY
    assert table is None
    assert any("gauge" in n for n in chain.notes)


def test_gauge_condition_restores_regularity():
    doc = parse_model_file(MODELS / "gauge_demo.model")
    gc = (ex("z", doc.model.variables),)
    chain, table = fj_iterate(doc.model, gc)
    assert chain.status == REGULAR
    assert table is not None
    assert to_text(table.entry("q", "p")) == "1"


def test_inconsistent_model_terminates():
    m = three_var("1/2*(q^2 + p^2) + z")
    chain, table = fj_iterate(m)
    assert chain.status == INCONSISTENT
    assert table is None
    assert any("nonzero constant" in n for n in chain.notes)


def test_landau_full_reduces_to_strong_bracket():
    doc = parse_model_file(MODELS / "landau_full.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    assert chain.status == REGULAR
    assert table is not None


# -- equations of motion and coarse flow ------------------------------------

def test_equations_of_motion_canonical():
    eqs = dict(fractional_equations_of_motion(canonical_pair(0.5)))
    assert to_text(eqs["q"]) == "p"
    assert to_text(eqs["p"]) == "-q"


def test_coarse_hamilton_jacobi_classical():
    eqs = dict(coarse_hamilton_jacobi(canonical_pair(1.0)))
    assert to_text(eqs["q"]) == "p"
    assert to_text(eqs["p"]) == "-q"


def test_coarse_hamilton_jacobi_half_order():
    eqs = dict(coarse_hamilton_jacobi(canonical_pair(0.5)))
    got = evaluate(eqs["q"], {"q": 0.0, "p": 1.0})
    assert abs(got - 1.0 / gamma(1.5) ** 2) < 1e-12
    assert abs(got - 1.2732395447351628) < 1e-12


def test_coarse_hamilton_jacobi_with_constraint_multiplier():
    m = canonical_pair(1.0)
    cons = (ex("q", m.variables),)
    eqs = dict(coarse_hamilton_jacobi(m, cons, {"lam_1": 2.0}))
    # effective potential gains lam * q, shifting the p equation by -lam
    got = evaluate(eqs["p"], {"q": 0.5, "p": 0.0})
    assert abs(got - (-0.5 - 2.0)) < 1e-12


def test_coarse_hamilton_jacobi_multipliers_skip_constant_names():
    """The constant lam_1 leaves the multiplier lam_2, so the value 2 of
    lam_2 moves the p equation by -2 and lam_1 stays the constant.  A
    value for lam_1, which names no multiplier, is refused rather than
    dropped."""
    doc = parse_model_text(
        "variables: q, p\nalpha: 1\nconstants: lam_1 = 3\n"
        "kinetic q: p\nkinetic p: 0\n"
        "potential: 1/2*(q^2 + p^2) + lam_1*q\n")
    m = doc.model
    cons = (ex("q", m.variables),)
    eqs = dict(coarse_hamilton_jacobi(m, cons, {"lam_2": 2}))
    assert to_text(eqs["p"]) == "-2 - lam_1 - q"
    with pytest.raises(ModelError, match=r"no multipliers named \['lam_1'\]"):
        coarse_hamilton_jacobi(m, cons, {"lam_1": 2})


def test_extend_model_refuses_only_vanishing_constraints():
    with pytest.raises(ModelError, match="no nonvanishing constraints"):
        extend_model(canonical_pair(), [ZERO])


def test_coarse_hamilton_jacobi_needs_even_dimension():
    with pytest.raises(ModelError):
        coarse_hamilton_jacobi(three_var("q"))


def test_coarse_hamilton_jacobi_prints_a_decimal_order_as_its_decimal():
    """At alpha = 0.3 the chain partial and the prefactor read 3/10, not the
    binary fraction of the float 0.3."""
    got = [(v, to_text(e)) for v, e in coarse_hamilton_jacobi(canonical_pair(0.3))]
    assert got == [("q", "p^(17/10)*Gamma(13/10)^(-1)*Gamma(17/10)^(-1)"),
                   ("p", "-q^(17/10)*Gamma(13/10)^(-1)*Gamma(17/10)^(-1)")]


def test_coarse_hamilton_jacobi_refuses_a_symbolic_order():
    """The chain partial needs a numeric order; a symbolic one is not read
    as alpha = 1."""
    with pytest.raises(ModelError, match="numeric order"):
        coarse_hamilton_jacobi(canonical_pair(None))


# -- coarse Dirac bracket ----------------------------------------------------

def test_dirac_bracket_unconstrained_classical():
    m = canonical_pair(1.0)
    q = ex("q", m.variables)
    p = ex("p", m.variables)
    assert abs(coarse_dirac_bracket(q, p, m, point={"q": 0.3, "p": 0.9}) - 1.0) < 1e-14


def test_dirac_bracket_unconstrained_half_order():
    m = canonical_pair(0.5)
    q = ex("q", m.variables)
    p = ex("p", m.variables)
    got = coarse_dirac_bracket(q, p, m, point={"q": 0.3, "p": 0.9})
    assert abs(got - 1.0 / gamma(1.5) ** 2) < 1e-12


def test_dirac_bracket_symbolic_order_reads_the_point():
    """At a symbolic order the bracket takes alpha from the point's
    binding, as the model's order would give it, and with no alpha bound
    it raises UnboundSymbol rather than reading alpha = 1."""
    m = canonical_pair(None)
    q = ex("q", m.variables)
    p = ex("p", m.variables)
    got = coarse_dirac_bracket(q, p, m, point={"q": 0.3, "p": 0.9, "alpha": 0.5})
    assert got == coarse_dirac_bracket(q, p, canonical_pair(0.5),
                                       point={"q": 0.3, "p": 0.9})
    assert abs(got - 1.0 / gamma(1.5) ** 2) < 1e-12
    with pytest.raises(UnboundSymbol, match="alpha"):
        coarse_dirac_bracket(q, p, m, point={"q": 0.3, "p": 0.9})


def test_dirac_bracket_refuses_a_point_that_rebinds_a_numeric_order():
    """A point may not bind alpha to another value than the model's
    numeric order: the kinetic term alpha*p would be read at the point's
    value and the prefactor at the model's.  The same value is accepted."""
    names = ("q", "p")
    m = Model(names, (ex("alpha*p", names), ZERO), ZERO, 0.5, {}, ())
    q, p = ex("q", names), ex("p", names)
    with pytest.raises(ModelError, match="alpha = 0.9.*order is 0.5"):
        coarse_dirac_bracket(q, p, m, point={"q": 1, "p": 1, "alpha": 0.9})
    got = coarse_dirac_bracket(q, p, m, point={"q": 1, "p": 1})
    assert abs(got - 2.0 / gamma(1.5) ** 2) < 1e-12
    assert coarse_dirac_bracket(q, p, m, point={"q": 1, "p": 1, "alpha": 0.5}) == got


def test_dirac_bracket_freezes_constrained_pair():
    m = two_pair()
    names = m.variables
    pt = {"q1": 0.1, "q2": 0.2, "p1": 0.3, "p2": 0.4}
    cons = [ex("q1", names), ex("p1", names)]
    kept = coarse_dirac_bracket(ex("q2", names), ex("p2", names), m, cons, pt)
    frozen = coarse_dirac_bracket(ex("q1", names), ex("p1", names), m, cons, pt)
    assert abs(kept - 1.0) < 1e-10
    assert abs(frozen) < 1e-10


def test_dirac_bracket_degenerate_constraints():
    m = two_pair()
    names = m.variables
    pt = {"q1": 0.1, "q2": 0.2, "p1": 0.3, "p2": 0.4}
    cons = [ex("q1", names), ex("q2", names)]
    with pytest.raises(DegenerateConstraintMatrix):
        coarse_dirac_bracket(ex("q1", names), ex("p1", names), m, cons, pt)


def test_dirac_bracket_refuses_a_model_with_no_kinetic_sector():
    names = ("q", "p")
    m = Model(names, (ZERO, ZERO), ex("1/2*(q^2 + p^2)", names), 1.0, {}, ())
    q, p = ex("q", names), ex("p", names)
    pt = {"q": 0.3, "p": 0.9}
    with pytest.raises(DegenerateConstraintMatrix,
                       match="primary set is singular"):
        coarse_dirac_bracket(q, p, m, point=pt)
    with pytest.raises(DegenerateConstraintMatrix,
                       match="every constraint commutes with the rest"):
        coarse_dirac_bracket(q, p, m, [ONE], pt)


def test_dirac_bracket_refuses_a_form_whose_null_space_depends_on_the_fields():
    """f of the kinetic sector x*p, 0, 0 has rank 2 and the null vector
    (0, x, -p), which no constant vector spans: a rank-short f, degenerate
    with no constraints; with the constraint q1*q2 and no kinetic sector,
    C = {mom_q1, mom_q2, q1*q2} is the like case on the doubled space."""
    names = ("q", "x", "p")
    m = Model(names, (ex("x*p", names), ZERO, ZERO),
              ex("1/2*(x^2 + p^2)", names), 1.0, {}, ())
    with pytest.raises(DegenerateConstraintMatrix, match="primary set is singular"):
        coarse_dirac_bracket(ex("q", names), ex("p", names), m,
                             point={"q": 1, "x": 1, "p": 1})
    names = ("q1", "q2")
    m = Model(names, (ZERO, ZERO), ZERO, 1.0, {}, ())
    with pytest.raises(DegenerateConstraintMatrix, match="singular beyond"):
        coarse_dirac_bracket(ex("q1", names), ex("q2", names), m,
                             [ex("q1*q2", names)], {"q1": 1, "q2": 2})


def test_dirac_bracket_refuses_a_form_singular_at_the_point():
    """f of the kinetic sector p1, q1*p2, 0, q1 is regular as an
    expression, with determinant q1^2, which vanishes at q1 = 0."""
    m = two_pair(("p1", "q1*p2", "0", "q1"))
    names = m.variables
    pt = {"q1": 0.0, "q2": 0.2, "p1": 0.3, "p2": 0.4}
    pairs = [(ex("q1", names), ex("p1", names)), (ex("q2", names), ex("p2", names))]
    for u, v in pairs:
        with pytest.raises(DegenerateConstraintMatrix, match="at the point"):
            coarse_dirac_bracket(u, v, m, point=pt)
    pt["q1"] = 1.0
    assert [coarse_dirac_bracket(u, v, m, point=pt) for u, v in pairs] == [1.0, 1.0]


def test_dirac_bracket_matches_chain_output():
    doc = parse_model_file(MODELS / "constrained_3d.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    cons = [c for lev in chain.levels for c in lev.constraints]
    q = ex("q", doc.model.variables)
    p = ex("p", doc.model.variables)
    pt = {"q": 0.2, "p": -0.4, "z": 0.1}
    direct = coarse_dirac_bracket(q, p, doc.model, cons, pt)
    from_table = evaluate(table.entry("q", "p"), doc.model.binding(pt))
    assert abs(direct - from_table) < 1e-9


def test_dirac_bracket_guards_the_doubled_coordinates():
    """At a fractional order each coordinate and momentum of the doubled
    space must be nonnegative; mom_p1 is its kinetic coefficient -q1/2."""
    m = two_pair(("p1", "p2", "-1/2*q1", "-1/2*q2"), 0.5)
    names = m.variables
    pt = {"q1": 0.1, "q2": 0.2, "p1": 0.3, "p2": 0.4}
    with pytest.raises(OutsideFragment, match="'mom_p1' = -0.05 must be positive"):
        coarse_dirac_bracket(ex("q2", names), ex("p2", names), m,
                             [ex("q1", names), ex("p1", names)], pt)


def test_dirac_bracket_leaves_out_a_row_that_vanishes_at_the_point():
    """At alpha = 1/2 a row of C that is 0 at the point, though not as an
    expression, commutes there and is left out; keeping it gives 0.4585."""
    m = two_pair(alpha=0.5)
    names = m.variables
    pt = {"q1": 0.1, "q2": 0.2, "p1": 0.3, "p2": 0.4}
    got = coarse_dirac_bracket(ex("q2", names), ex("p2", names), m,
                               [ex("q1", names), ex("p1", names)], pt)
    assert got == 0.0


def test_dirac_bracket_refuses_a_matrix_singular_at_the_point():
    """C of the constraints q1*q2 and p1 is regular as an expression, and
    its determinant vanishes at q2 = 0."""
    m = two_pair()
    names = m.variables
    cons = [ex("q1*q2", names), ex("p1", names)]
    pt = {"q1": 0.1, "q2": 0.0, "p1": 0.3, "p2": 0.4}
    with pytest.raises(DegenerateConstraintMatrix, match="singular beyond"):
        coarse_dirac_bracket(ex("q2", names), ex("p2", names), m, cons, pt)
    pt["q2"] = 0.2
    assert coarse_dirac_bracket(ex("q2", names), ex("p2", names), m, cons, pt) == 1.0


def test_regular_tables_satisfy_the_jacobi_identity():
    """Every cyclic sum w^il d_l w^jk + w^jl d_l w^ki + w^kl d_l w^ij of a
    regular table of a bundled or golden model is exactly 0 at two seeded
    rational points: the form f = da is closed.  field4's table is the one
    whose entries depend on the fields."""
    rng = random.Random(20261020)
    field_dependent = set()
    for path in sorted(MODELS.glob("*.model")) + sorted(_GOLDEN.glob("*.model")):
        doc = parse_model_file(path)
        _, table = fj_iterate(doc.model, doc.gauge_conditions)
        if table is None:
            continue
        names = table.variables
        n = len(names)
        for _ in range(2):
            pt = {v: Constant(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for v in doc.model.variables}

            def at(e):
                for v, c in pt.items():
                    e = substitute(e, v, c)
                return simplify(e)

            w = [[at(e) for e in row] for row in table.entries]
            dw = [[[at(diff(e, v)) for v in names] for e in row] for row in table.entries]
            if any(d != ZERO for row in dw for col in row for d in col):
                field_dependent.add(path.stem)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        terms = tuple(Product((w[a][l], dw[b][c][l]))
                                      for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                                      for l in range(n))
                        assert simplify(Sum(terms)) == ZERO, (path.name, i, j, k)
    assert "field4" in field_dependent


def test_primary_constraints_on_doubled_space():
    m = canonical_pair()
    assert momentum_name("q") == "mom_q"
    assert [to_text(c) for c in primary_constraints(m)] == ["mom_q - p", "mom_p"]


# -- invariants --------------------------------------------------------------

def test_classical_limit_consistency_at_random_points():
    rng = random.Random(20260822)
    doc = parse_model_file(MODELS / "canonical_pair.model")
    m = doc.model
    q = ex("q", m.variables)
    p = ex("p", m.variables)
    chain, table = fj_iterate(m)
    for _ in range(5):
        pt = {"q": rng.uniform(0.2, 2.0), "p": rng.uniform(0.2, 2.0)}
        from_table = evaluate(table.entry("q", "p"), m.binding(pt))
        from_dirac = coarse_dirac_bracket(q, p, m, point=pt)
        assert abs(from_table - 1.0) < 1e-9
        assert abs(from_dirac - 1.0) < 1e-9


def test_kinetic_scaling_scales_bracket_inversely():
    names = ("q", "p")
    kin = tuple(ex(t, names) for t in ("3*p", "0"))
    m = Model(names, kin, ex("1/2*(q^2 + p^2)", names), 1.0, {}, ())
    chain, table = fj_iterate(m)
    got = evaluate(table.entry("q", "p"), {})
    assert abs(got - 1.0 / 3.0) < 1e-14


def test_bracket_alpha_continuity_near_one():
    doc = parse_model_file(MODELS / "landau_strong.model")
    chain, table = fj_iterate(doc.model)
    at_one = evaluate(table.entry("r1", "r2"), {"e": 1.0, "B": 1.0, "alpha": 1.0})
    near_one = evaluate(table.entry("r1", "r2"),
                        {"e": 1.0, "B": 1.0, "alpha": 1.0 - 1e-6})
    assert abs(at_one - 1.0) < 1e-14
    assert abs(near_one - at_one) < 1e-5


def test_form_times_inverse_is_identity():
    doc = parse_model_file(MODELS / "landau_full.model")
    f = assemble_form(doc.model)
    inv = invert_form(f)
    n = len(doc.model.variables)
    binding = {"e": 1.0, "B": 1.0, "m": 1.0, "alpha": 0.7}
    mat = [[evaluate(f.entries[i][j], binding) for j in range(n)] for i in range(n)]
    imat = [[evaluate(inv[i][j], binding) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            s = sum(mat[i][k] * imat[k][j] for k in range(n))
            assert abs(s - (1.0 if i == j else 0.0)) < 1e-12


# -- fraction-free inverse against the cofactor oracle ------------------------

def _laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return simplify(Sum((
            Product((rows[0][0], rows[1][1])),
            Product((Constant(Fraction(-1)), rows[0][1], rows[1][0])))))
    best = min(range(n), key=lambda i: sum(1 for e in rows[i] if e != ZERO))
    terms = []
    for j in range(n):
        if rows[best][j] == ZERO:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j]
                 for i in range(n) if i != best]
        sign = Fraction(-1) if (best + j) % 2 else Fraction(1)
        terms.append(Product((Constant(sign), rows[best][j], _laplace_det(minor))))
    if not terms:
        return ZERO
    return simplify(Sum(tuple(terms)))


def cofactor_inverse(entries):
    """The adjugate over the determinant, each cofactor by recursive Laplace
    expansion: the inverse `invert_form` computed before it eliminated
    fraction-free.  Factorial cost; kept as the oracle for small forms."""
    n = len(entries)
    rows = [list(r) for r in entries]
    det = _laplace_det(rows)
    if det == ZERO:
        raise SingularForm(())
    inv_det = simplify(Power(det, Fraction(-1)))
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            sign = Fraction(-1) if (i + j) % 2 else Fraction(1)
            cof = _laplace_det(minor) if minor else ONE
            out_row.append(simplify(Product((Constant(sign), cof, inv_det))))
        out.append(tuple(out_row))
    return tuple(out)


def upper_entries(upper, names, positive=()):
    """Entries of the antisymmetric form with this upper triangle, row by
    row."""
    n = len(upper) + 1
    entries = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, text in enumerate(row, start=i + 1):
            e = simplify(parse_expression(text, variables=names), positive)
            entries[i][j] = e
            entries[j][i] = simplify(Product((Constant(Fraction(-1)), e)), positive)
    return tuple(tuple(r) for r in entries)


def form_from_upper(upper, names, positive=()):
    return SymplecticForm(upper_entries(upper, names, positive))


_ORACLE_NAMES = ("q", "p")
_ORACLE_ATOMS = ("Gamma(1 + alpha)", "q^(-1)", "p^(1/2)", "(1 + q^2)^(-1)",
                 "q", "p")


def _seeded_forms(rnd, count, coeffs):
    """`count` 2x2 and 4x4 forms whose entries are combinations of the
    atoms above with coefficients drawn from `coeffs`."""
    forms = []
    while len(forms) < count:
        n = rnd.choice((2, 4, 4))
        upper = []
        for i in range(n - 1):
            row = []
            for _ in range(i + 1, n):
                terms = ["%s*%s" % (rnd.choice(coeffs), rnd.choice(_ORACLE_ATOMS))
                         for _ in range(rnd.choice((1, 1, 2)))]
                row.append(" + ".join(terms))
            upper.append(row)
        forms.append(form_from_upper(upper, _ORACLE_NAMES, ("p",)))
    return forms


def _oracle_corpus():
    """Hand-picked forms, then a seeded set of 2x2 and 4x4 forms whose
    entries are small integer combinations of the atoms above, then a
    seeded set whose coefficients have denominators 2, 3 and 4, so that
    the rows of one form need different scales."""
    forms = [
        form_from_upper([["Gamma(1 + alpha)*q^(-1)"]], _ORACLE_NAMES),
        form_from_upper([["p^(1/2)", "1", "(1 + q^2)^(-1)"],
                         ["Gamma(1 + alpha)", "q^(-1)"],
                         ["2*p^(1/2) - Gamma(1 + alpha)"]],
                        _ORACLE_NAMES, ("p",)),
        form_from_upper([["1 + q^2", "0", "q"],
                         ["(1 + q^2)^(-1)", "0"],
                         ["Gamma(1 + alpha)*(1 + q^2)^(-1)"]], _ORACLE_NAMES),
    ]
    forms += _seeded_forms(random.Random(20261018), 12, (-2, -1, 1, 3))
    rational = [Fraction(k, d) for k, d in ((1, 2), (2, 3), (3, 4), (1, 1), (2, 1))]
    forms += _seeded_forms(random.Random(20261019), 8,
                           [c for x in rational for c in (x, -x)])
    return forms


def _bundled_forms():
    """The forms of every bundled model and of each of its constraint
    levels."""
    out = []
    for path in sorted(MODELS.glob("*.model")):
        doc = parse_model_file(path)
        chain, _ = fj_iterate(doc.model, doc.gauge_conditions)
        out.append(assemble_form(doc.model))
        out += [assemble_form(lev.model) for lev in chain.levels]
    return out


def test_invert_form_matches_cofactor_oracle():
    regular = 0
    for f in _bundled_forms() + _oracle_corpus():
        p, _sign, right = f.elimination
        free = _eliminate([[_to_poly(e, frozenset()) for e in row]
                           for row in f.entries], f.dimension)[3]
        assert all(type(c) is Fraction
                   for x in [p, *(x for row in right or () for x in row),
                             *(x for row in free for x in row.values())]
                   for c in x.values())
        if f.rank < f.dimension:
            with pytest.raises(SingularForm):
                invert_form(f)
            continue
        try:
            want = cofactor_inverse(f.entries)
        except SingularForm:
            with pytest.raises(SingularForm):
                invert_form(f)
            continue
        got = invert_form(f)
        assert [[to_text(e) for e in row] for row in got] == \
            [[to_text(e) for e in row] for row in want]
        regular += 1
    assert regular >= 21


def test_invert_form_raises_on_singular_entries():
    # the Pfaffian q*q - 1*q^2 + 0*Gamma vanishes, and the null space
    # depends on q
    entries = upper_entries([["q", "1", "0"],
                             ["Gamma(1 + alpha)", "q^2"],
                             ["q"]], _ORACLE_NAMES)
    with pytest.raises(SingularForm):
        cofactor_inverse(entries)
    with pytest.raises(RankDisagreement, match="not spanned by constant vectors"):
        SymplecticForm(entries)
    # q times the wedge of (1, 2, 0, 1) and (0, 1, 1, 1): the Pfaffian
    # -q^2 - q^2 + 2*q^2 vanishes, and the null space is constant
    f = form_from_upper([["q", "q", "q"],
                         ["2*q", "q"],
                         ["-q"]], _ORACLE_NAMES)
    with pytest.raises(SingularForm):
        cofactor_inverse(f.entries)
    assert f.rank == 2
    assert f.null_basis == ((2, -1, 1, 0), (1, -1, 0, 1))
    with pytest.raises(SingularForm) as err:
        invert_form(f)
    assert err.value.null_basis == f.null_basis


def _per_entry_inverse(f):
    """The inverse by one `simplify` per entry, sign * R_ij / det: the
    formula `invert_form` used before it read the lower triangle from the
    upper one."""
    n = f.dimension
    p, sign, right = f.elimination
    det = simplify(_rebuild({m: sign * c for m, c in p.items()}))
    inv_det = simplify(Power(det, Fraction(-1)))
    sign_c = Constant(Fraction(sign))
    return tuple(
        tuple(simplify(Product((sign_c, _rebuild(right[i][j]), inv_det)))
              for j in range(n))
        for i in range(n))


_GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_invert_form_matches_the_per_entry_formula(monkeypatch):
    """Every form that the iteration inverts for a bundled or golden model,
    and for the 60 models of the dense-family golden, inverts to the trees
    and texts of the per-entry formula."""
    inverted = []

    def recording(f, invert=invert_form):
        got = invert(f)
        inverted.append((f, got))
        return got

    monkeypatch.setattr(symplectic, "invert_form", recording)
    docs = [parse_model_file(path) for path in
            sorted(MODELS.glob("*.model")) + sorted(_GOLDEN.glob("*.model"))]
    docs += [parse_model_text(case["model"]) for case in
             json.loads((_GOLDEN / "dense_family.json").read_text())]
    for doc in docs:
        fj_iterate(doc.model, doc.gauge_conditions)
    monkeypatch.undo()
    assert len(inverted) >= 70
    for f, got in inverted:
        want = _per_entry_inverse(f)
        assert got == want
        assert [[to_text(e) for e in row] for row in got] == \
            [[to_text(e) for e in row] for row in want]


@pytest.mark.parametrize("entries", [
    ((ZERO, ONE), (Constant(Fraction(2)), ZERO)),
    ((ONE, ONE), (Constant(Fraction(-1)), ZERO)),
], ids=["lower-not-negated", "nonzero-diagonal"])
def test_invert_form_refuses_a_form_that_is_not_antisymmetric(entries):
    f = SymplecticForm(entries)
    assert f.rank == 2
    with pytest.raises(SymplecticError, match="form is not antisymmetric"):
        invert_form(f)


def test_exact_division_recovers_quotient_under_a_monomial_order():
    names = ("q",)
    num = _to_poly(simplify(parse_expression(
        "(2*q + 2*Gamma(1 + alpha))*(3*q - Gamma(1 + alpha))", variables=names)),
        frozenset())
    den = _to_poly(simplify(parse_expression(
        "2*q + 2*Gamma(1 + alpha)", variables=names)), frozenset())
    want = _to_poly(simplify(parse_expression(
        "3*q - Gamma(1 + alpha)", variables=names)), frozenset())
    assert _poly_div(num, den) == want
    assert _poly_div({**num, (): Fraction(1)}, den) is None


@pytest.mark.parametrize("divisor", [
    "-3/7",
    "-2/3*q^(-2)*p^(1/2)*Gamma(1 + alpha)^3",
], ids=["constant", "monomial"])
def test_division_by_one_term_multiplies_by_its_inverse(divisor):
    """A one-term divisor takes the packed path of `_poly_div`, whose
    quotient is num times the inverse of that term."""
    names = ("q", "p")

    def poly(text):
        return _to_poly(simplify(parse_expression(text, variables=names)),
                        frozenset())

    num = poly("5/2*q^3*p^(-1/3) - q*Gamma(1 + alpha)^(-1) + 7*p^(1/2) + 4/9")
    (mono, c), = poly(divisor).items()
    inverse = {_sorted_mono([(b, -e) for b, e in mono]): 1 / c}
    assert _poly_div(num, poly(divisor)) == _poly_mul(num, inverse)


@pytest.mark.parametrize("entry, want", [
    ("1 - (1 + q^2)^(-1)",
     "-(1 + (1 + q^2)^(-2) - 2*(1 + q^2)^(-1))^(-1)"
     " + (1 + (1 + q^2)^(-2) - 2*(1 + q^2)^(-1))^(-1)*(1 + q^2)^(-1)"),
    ("1 + q^(-1)",
     "-q^(-1)*(1 + q^(-2) + 2*q^(-1))^(-1) - (1 + q^(-2) + 2*q^(-1))^(-1)"),
], ids=["one-minus-lorentzian", "one-plus-inverse"])
def test_laurent_denominator_inverts_quickly(entry, want):
    """A non-exact division by a Laurent polynomial stops at the exponent
    box instead of expanding an infinite series."""
    f = form_from_upper([[entry]], _ORACLE_NAMES)
    start = time.perf_counter()
    inv = invert_form(f)
    elapsed = time.perf_counter() - start
    assert to_text(inv[0][1]) == want
    assert to_text(inv[1][0]) == to_text(simplify(
        Product((Constant(Fraction(-1)), inv[0][1]))))
    assert elapsed < 1.0


@pytest.mark.parametrize("entry, want", [
    ("1 + 2^(1/2)",
     "-2^(1/2)*(3 + 2*2^(1/2))^(-1) - (3 + 2*2^(1/2))^(-1)"),
    ("1 + 2^(1/2)*q",
     "-2^(1/2)*q*(1 + 2*2^(1/2)*q + 2*q^2)^(-1)"
     " - (1 + 2*2^(1/2)*q + 2*q^2)^(-1)"),
], ids=["constant", "linear"])
def test_constant_root_entry_inverts(entry, want):
    """Bareiss divides (1 + 2^(1/2))^2 by 1 + 2^(1/2): exact only while
    2^(1/2)*2^(1/2) stays a monomial inside the arithmetic."""
    f = form_from_upper([[entry, "0", "0"], ["0", "0"], ["1"]], _ORACLE_NAMES)
    inv = invert_form(f)
    assert to_text(inv[0][1]) == want
    assert to_text(inv[1][0]) == to_text(simplify(
        Product((Constant(Fraction(-1)), inv[0][1]))))
    assert [to_text(inv[2][3]), to_text(inv[3][2])] == ["-1", "1"]


_ENTRY_ATOMS = ("q", "p", "Gamma(1 + alpha)", "q^(-1)", "(1 + q^2)^(-1)")


@st.composite
def antisymmetric_forms(draw):
    """Integer entries, of which up to three (any number below n = 6) also
    carry an integer multiple of one atom: a generic 6x6 form with every
    entry symbolic has minors of thousands of terms."""
    n = draw(st.sampled_from((2, 4, 6)))
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    symbolic = draw(st.sets(st.sampled_from(cells),
                            max_size=3 if n == 6 else len(cells)))
    upper = [[None] * (n - 1 - i) for i in range(n - 1)]
    for i, j in cells:
        text = str(draw(st.integers(-3, 3)))
        if (i, j) in symbolic:
            text += " + %d*%s" % (draw(st.integers(-2, 2)),
                                  draw(st.sampled_from(_ENTRY_ATOMS)))
        upper[i][j - i - 1] = text
    entries = upper_entries(upper, _ORACLE_NAMES)
    try:
        return SymplecticForm(entries)
    except RankDisagreement:
        # a singular draw whose null space depends on the fields
        assume(False)


def _rational_eval(e, atoms):
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, (Variable, SymbolicConstant, GammaFactor)):
        return atoms[e]
    if isinstance(e, Sum):
        return sum((_rational_eval(t, atoms) for t in e.terms), Fraction(0))
    if isinstance(e, Product):
        acc = Fraction(1)
        for f in e.factors:
            acc *= _rational_eval(f, atoms)
        return acc
    if isinstance(e, Power):
        if e.exponent.denominator == 1:
            base = _rational_eval(e.base, atoms)
            k = int(e.exponent)
            return base**k
        return atoms[e]
    raise TypeError(f"cannot evaluate {type(e).__name__} rationally")


def _exact_values(rows, point):
    return np.array([[_rational_eval(e, point) for e in row] for row in rows],
                    dtype=object)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(antisymmetric_forms(), st.integers(0, 2**32 - 1))
def test_form_times_inverse_is_identity_at_rational_points(f, seed):
    """f . f^-1 = I exactly, at a random rational point where f is
    regular."""
    rnd = random.Random(seed)
    atoms = (var("q"), var("p"), simplify(parse_expression("Gamma(1 + alpha)")))
    point = {a: Fraction(rnd.randint(1, 97), rnd.randint(1, 97)) for a in atoms}
    mat = _exact_values(f.entries, point)
    pivots = _eliminate(
        [[{(): x} if x else {} for x in row] for row in mat.tolist()], f.dimension)[0]
    assume(len(pivots) == f.dimension)
    inv = _exact_values(invert_form(f), point)
    assert (mat.dot(inv) == np.eye(f.dimension, dtype=int)).all()


def test_dense_ten_variable_form_inverts_quickly():
    rnd = random.Random(10)
    n = 10
    k = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            k[i, j] = rnd.choice((-3, -2, -1, 1, 2, 3))
            k[j, i] = -k[i, j]
    assert abs(np.linalg.det(k)) > 0.5
    entries = tuple(tuple(Constant(Fraction(int(x))) for x in row) for row in k)
    start = time.perf_counter()
    inv = invert_form(SymplecticForm(entries))
    elapsed = time.perf_counter() - start
    got = np.array([[evaluate(e) for e in row] for row in inv])
    assert elapsed < 2.0
    assert np.abs(got - np.linalg.inv(k)).max() < 1e-9


# -- serialization ----------------------------------------------------------

def test_bracket_table_json_shape():
    doc = parse_model_file(MODELS / "landau_strong.model")
    chain, table = fj_iterate(doc.model)
    d = table.to_json_dict()
    assert d["variables"] == ["r1", "r2"]
    assert d["alpha"] == "symbolic"
    assert d["brackets"][0][1] == "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"
    assert set(d["normalizations"]) == {"section_5_2", "section_6_3"}
    assert d["convention"] == "f_ij = d a_j / d eta_i - d a_i / d eta_j"


def test_bracket_table_json_deterministic():
    doc = parse_model_file(MODELS / "landau_strong.model")
    _, t1 = fj_iterate(doc.model)
    _, t2 = fj_iterate(doc.model)
    assert render_json(t1.to_json_dict()) == render_json(t2.to_json_dict())


def test_commutator_table():
    """No command fills the commutators key of a regular table; it stays
    in the JSON, always null."""
    chain, table = fj_iterate(canonical_pair())
    assert chain.status == REGULAR
    assert table.to_json_dict()["commutators"] is None


def _per_entry_texts(table):
    """The plain and section 5.2 texts as `to_json_dict` rendered them
    before it rendered each entry once: `to_text` of every entry, and of
    every entry scaled."""
    prefactor = table.prefactor
    return ([[to_text(e) for e in row] for row in table.entries],
            [[to_text(_scaled(prefactor, e)) for e in row] for row in table.entries])


def test_json_texts_match_the_per_entry_rendering():
    """For every bundled and golden model at the file's order, a symbolic
    order, 0.5 and 1, each text, the flipped ones below the diagonal among
    them, is `to_text` of its own tree, and at alpha = 1 the section 5.2
    table is the plain one."""
    tables = 0
    for path in sorted(MODELS.glob("*.model")) + sorted(_GOLDEN.glob("*.model")):
        doc = parse_model_file(path)
        for alpha in (doc.model.alpha, None, 0.5, 1.0):
            m = Model(doc.model.variables, doc.model.kinetic, doc.model.potential,
                      alpha, doc.model.constants, doc.model.positive)
            _, table = fj_iterate(m, doc.gauge_conditions)
            if table is None:
                continue
            d = table.to_json_dict()
            plain, scaled = _per_entry_texts(table)
            assert d["brackets"] == d["normalizations"]["section_6_3"] == plain
            if alpha == 1.0:
                assert d["normalizations"]["section_5_2"] is d["brackets"]
            assert d["normalizations"]["section_5_2"] == scaled
            tables += 1
    assert tables >= 40, tables


def _table(upper, alpha=1.0):
    """A two-variable table built as `invert_form` builds one: each tree
    rebuilt from the dict above the diagonal, as it is and negated."""
    lower = {m: -c for m, c in upper.items()}
    return BracketTable(("a", "b"), ((ZERO, _rebuild(upper)),
                                     (_rebuild(lower), ZERO)), alpha)


def test_a_compound_base_at_exponent_one_renders_as_its_terms():
    """A sum or product base at exponent 1 in an entry's dict is
    multiplied out where the entry is built, so the entry is the base's
    own terms and its negation is them with their signs flipped: -1 - q,
    -3*p - 2*q, and on the section 5.2 side, where the prefactor takes
    the Gamma(1 + alpha)^2 off a product base, -2*q."""
    one_plus_q = simplify(parse_expression("1 + q", variables=("q", "p")))
    (mono, _c), = _poly("(2*q)^(1/2)").items()
    two_q = mono[0][0]
    assert isinstance(two_q, Product)
    cases = [({((one_plus_q, 1),): Fraction(1)}, "1 + q", "-1 - q"),
             ({((two_q, 1),): Fraction(1), ((var("p"), 1),): Fraction(3)},
              "3*p + 2*q", "-3*p - 2*q")]
    for upper, above, below in cases:
        for alpha in (1.0, None):
            table = _table(upper, alpha)
            d = table.to_json_dict()
            assert d["brackets"] == [["0", above], [below, "0"]]
            assert [d["brackets"], d["normalizations"]["section_5_2"]] == \
                list(_per_entry_texts(table))
    half = Power(two_q, Fraction(1, 2))
    g = simplify(parse_expression("Gamma(1 + alpha)"))
    upper = _to_poly(Product((half, half, Power(g, Fraction(2)))), frozenset())
    table = _table(upper, None)
    d = table.to_json_dict()
    assert d["normalizations"]["section_5_2"] == [["0", "2*q"], ["-2*q", "0"]]
    assert [d["brackets"], d["normalizations"]["section_5_2"]] == \
        list(_per_entry_texts(table))


@pytest.mark.parametrize("entries", [
    ((ZERO, ONE), (ONE, ZERO)),
    ((ONE, ONE), (Constant(Fraction(-1)), ZERO)),
], ids=["lower-not-negated", "nonzero-diagonal"])
def test_to_json_dict_refuses_a_table_that_is_not_antisymmetric(entries):
    with pytest.raises(SymplecticError, match="table is not antisymmetric"):
        BracketTable(("a", "b"), entries, 1.0).to_json_dict()


_G = GammaFactor(Sum((ONE, SymbolicConstant("alpha"))))
_ENTRY_LEAVES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4)]).map(Constant),
    st.sampled_from([var("q"), var("p"), SymbolicConstant("e"), _G]))


def _entry_compound(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
        st.builds(Power, children, st.sampled_from(
            [Fraction(k) for k in (2, -1, -2)] + [Fraction(1, 2), Fraction(-1, 2)])))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_ENTRY_LEAVES, _entry_compound, max_leaves=10))
def test_scaled_entry_is_the_simplified_product(tree):
    """For a canonical entry e, the section 5.2 monomial shift equals
    simplify(prefactor * e), for the symbolic prefactor Gamma(1 + alpha)^(-2),
    the numeric Gamma(3/2)^(-2) and the 1 of alpha = 1."""
    try:
        e = simplify(tree)
    except ZeroDivisionError:  # zero under a negative power
        assume(False)
    for alpha in (None, 0.5, 1.0):
        prefactor = _gamma_power(alpha, -2)
        assert _scaled(prefactor, e) == simplify(Product((prefactor, e)))


def _folded_away(b, e) -> bool:
    """Whether no canonical monomial may hold the factor b^e: an integer
    power of a constant, power or product base, or a positive integer
    power of a sum base."""
    if e.denominator != 1:
        return False
    return isinstance(b, (Constant, Power, Product)) or (isinstance(b, Sum) and e > 0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.recursive(_ENTRY_LEAVES, _entry_compound, max_leaves=10), _TREES))
@example(Power(Product((var("q"), Power(Sum((ONE, var("q"))), Fraction(-1)))),
               Fraction(-1)))
def test_a_canonical_tree_negates_by_flipping_its_signs(tree):
    """For e = simplify(tree) and its dict d, d rebuilds to e, no factor
    of d is one the fold multiplies out, and the tree of -d renders as the
    terms of e with their signs flipped, which is what `_text_pair` gives
    a bracket entry and its negation.  The example is (q*(1 + q)^(-1))^(-1),
    whose inverted monomial holds the sum 1 + q at exponent 1."""
    try:
        e = simplify(tree)
    except ZeroDivisionError:  # zero under a negative power
        assume(False)
    d = _to_poly(e, frozenset())
    assert _rebuild(d) == e
    assert not any(_folded_away(b, x) for mono in d for b, x in mono), to_text(e)
    below = to_text(_rebuild({m: -c for m, c in d.items()}))
    flipped = "0" if e == ZERO else _joined(
        (-sign, txt) for sign, txt in map(_term_text, _terms(e)))
    assert below == flipped
    assert _text_pair(e) == (to_text(e), below)
