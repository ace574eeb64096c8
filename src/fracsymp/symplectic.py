"""Constraint analysis of first-order Lagrangians by symplectic iteration.

A Model is the data of L = a_i(eta) Deta^i - V(eta): a variable list, one
kinetic coefficient per variable, and a potential.  The two-form
f_ij = da_j/deta^i - da_i/deta^j either inverts (giving brackets directly)
or has zero modes whose contractions with dV are constraints; constraints
extend the kinetic sector through fresh multipliers and the loop repeats.
Terminals: Regular (brackets emitted), GaugeTheory (zero modes produce no
new constraint; gauge conditions requested), Inconsistent (a constraint
reduces to a nonzero constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .expr import (
    Constant,
    Expr,
    FracsympError,
    ONE,
    Power,
    Product,
    RESERVED_EULER,
    Sum,
    ZERO,
    UnboundSymbol,
    _cancelled,
    _cleared,
    _eliminate,
    _poly_div,
    _poly_mul,
    _read_back,
    _rebuild,
    _text_pair,
    _to_poly,
    diff,
    evaluate,
    free_names,
    simplify,
    substitute,
    sym,
    to_text,
    var,
    variable_names,
)
from .frac import (FracOrder, _gamma_power, _guarded, chain_partial_expr,
                   poisson_alpha_expr)

REGULAR = "regular"
GAUGE_THEORY = "gauge-theory"
INCONSISTENT = "inconsistent"

CONVENTION = "f_ij = d a_j / d eta_i - d a_i / d eta_j"

# names every model may use and none may declare as a constant
RESERVED_NAMES = frozenset({"alpha", RESERVED_EULER})


class SymplecticError(FracsympError):
    pass


class ModelError(SymplecticError):
    pass


class SingularForm(SymplecticError):
    def __init__(self, null_basis):
        super().__init__(
            f"form is singular; null basis {[_vector_text(v) for v in null_basis]}")
        self.null_basis = tuple(null_basis)


class RankDisagreement(SymplecticError):
    pass


class IterationBudgetExceeded(SymplecticError):
    pass


class DegenerateConstraintMatrix(SymplecticError):
    pass


def _vector_text(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


@dataclass(frozen=True)
class Model:
    """First-order action data: variables eta, kinetic coefficients a_i(eta),
    potential V(eta).  alpha is the derivative order; None keeps the order as
    the symbol `alpha` in expressions.  `positive` lists variables that may be
    assumed positive during simplification.  No variable or constant may
    take a reserved name (`RESERVED_NAMES`), nor a constant a variable's."""

    variables: tuple
    kinetic: tuple
    potential: Expr
    alpha: float | None = 1.0
    constants: Mapping = field(default_factory=dict)
    positive: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "kinetic", tuple(self.kinetic))
        object.__setattr__(self, "positive", tuple(self.positive))
        object.__setattr__(self, "constants", dict(self.constants))
        if len(self.kinetic) != len(self.variables):
            raise ModelError(
                f"{len(self.variables)} variables but {len(self.kinetic)} kinetic terms")
        if len(set(self.variables)) != len(self.variables):
            raise ModelError("duplicate variable names")
        reserved = set(self.variables) & RESERVED_NAMES
        if reserved:
            raise ModelError(f"variable names {sorted(reserved)} are reserved")
        taken = set(self.constants) & (set(self.variables) | RESERVED_NAMES)
        if taken:
            raise ModelError(f"constant names {sorted(taken)} are variables or reserved")
        if self.alpha is not None:
            FracOrder(self.alpha)
        # `alpha` is always a legal name: binding() supplies the numeric order,
        # and a symbolic-order model simply leaves it unbound.
        allowed = set(self.variables) | set(self.constants) | RESERVED_NAMES
        for label, e in [("potential", self.potential)] + [
                (f"kinetic[{v}]", k) for v, k in zip(self.variables, self.kinetic)]:
            extra = free_names(e) - allowed
            if extra:
                raise ModelError(f"{label} uses undeclared names {sorted(extra)}")

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def binding(self, point: Mapping | None = None) -> dict:
        """The constants, a numeric order as `alpha`, and the point, which
        may not rebind a numeric order (ModelError)."""
        out = dict(self.constants)
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if point:
            if self.alpha is not None and point.get("alpha", self.alpha) != self.alpha:
                raise ModelError(f"the point binds alpha = {point['alpha']}, "
                                 f"but the model's order is {self.alpha}")
            out.update(point)
        return out


@dataclass(frozen=True)
class SymplecticForm:
    """An antisymmetric two-form, given by its entries alone.  One exact
    elimination of [F | I] at construction gives its rank (the pivot
    count), its null basis from the pivot rows' free columns, and
    `elimination`: the last pivot p, the sign of the row permutation and
    the right block (None for a singular form), from which `invert_form`
    reads the inverse.  A null space that constant vectors do not span
    raises RankDisagreement."""

    entries: tuple
    rank: int = field(init=False)
    null_basis: tuple = field(init=False)
    # (p, sign, right) of `_eliminate` on [F | I]
    elimination: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.entries)
        rows = [[_to_poly(e, frozenset()) for e in row]
                + [{(): Fraction(1)} if j == i else {} for j in range(n)]
                for i, row in enumerate(self.entries)]
        pivots, p, sign, free, right = _eliminate(rows, n)
        object.__setattr__(self, "rank", len(pivots))
        object.__setattr__(self, "null_basis", _null_basis(free, pivots, p, n))
        object.__setattr__(self, "elimination", (p, sign, right))

    @property
    def dimension(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ChainLevel:
    constraints: tuple
    model: Model

    @property
    def multipliers(self) -> tuple:
        """The multipliers `extend_model` appended, one per constraint."""
        return self.model.variables[-len(self.constraints):]


@dataclass(frozen=True)
class ConstraintChain:
    levels: tuple
    status: str
    notes: tuple = ()


@dataclass(frozen=True)
class BracketTable:
    variables: tuple
    entries: tuple
    alpha: float | None

    @property
    def prefactor(self) -> Expr:
        """1/Gamma(1+alpha)^2, the factor of the alternative normalization."""
        return _gamma_power(self.alpha, -2)

    def entry(self, vi: str, vj: str) -> Expr:
        i = self.variables.index(vi)
        j = self.variables.index(vj)
        return self.entries[i][j]

    def scaled_entry(self, vi: str, vj: str) -> Expr:
        """Entry under the alternative normalization that carries the
        1/Gamma(1+alpha)^2 prefactor explicitly."""
        return _scaled(self.prefactor, self.entry(vi, vj))

    def to_json_dict(self) -> dict:
        """The table as JSON values, each bracket text rendered once: the
        entries are canonical trees, so one below the diagonal is the one
        above it with the sign of each term flipped (`expr._text_pair`).
        At alpha = 1 the section 5.2 table is the plain one; otherwise
        only the entries above the diagonal are scaled, as `_scaled` does,
        and the flip gives those below.  A table whose dicts are not
        antisymmetric raises SymplecticError."""
        n = len(self.variables)
        none = frozenset()
        prefactor = self.prefactor
        plain = [["0"] * n for _ in range(n)]
        scaled = plain if prefactor == ONE else [["0"] * n for _ in range(n)]
        for i, row in enumerate(self.entries):
            if row[i] != ZERO:
                raise SymplecticError("table is not antisymmetric")
            for j in range(i + 1, n):
                upper, lower = row[j], self.entries[j][i]
                if _to_poly(lower, none) != _negated(_to_poly(upper, none)):
                    raise SymplecticError("table is not antisymmetric")
                plain[i][j], plain[j][i] = _text_pair(upper)
                if scaled is not plain:
                    scaled[i][j], scaled[j][i] = _text_pair(_scaled(prefactor, upper))
        out = {
            "variables": list(self.variables),
            "alpha": "symbolic" if self.alpha is None else float(self.alpha),
            "convention": CONVENTION,
            "prefactor": to_text(prefactor),
            "brackets": plain,
            # no command fills it; bench/ref/brackets and the goldens pin it
            "commutators": None,
            "normalizations": {
                "section_6_3": plain,
                "section_5_2": scaled,
            },
        }
        return out


def _scaled(prefactor: Expr, e: Expr) -> Expr:
    """The canonical form of prefactor * e, for the one-monomial prefactor
    of `_gamma_power` and a canonical e: e's dict, which e keeps from its
    rebuild unless a factor of it converts per `positive` set
    (`expr._rebuild`), times the prefactor's, rebuilt.  Times a unit
    monomial, no multi-term denominator of e divides its numerator where
    it did not before, so `simplify` would cancel nothing."""
    none = frozenset()
    return _rebuild(_poly_mul(_to_poly(prefactor, none), _to_poly(e, none)))


def _primitive(v):
    """Scale a rational vector to a primitive integer vector with a positive
    leading nonzero entry."""
    den = math.lcm(*(c.denominator for c in v))
    ints = [int(c * den) for c in v]
    g = math.gcd(*ints) or 1
    if next((c for c in ints if c), 0) < 0:
        g = -g
    return tuple(Fraction(c // g) for c in ints)


def _null_basis(free, pivots, p, n: int) -> tuple:
    """One primitive null vector per free column fc of an eliminated form:
    v_fc = 1, other free entries 0, v_pc = -free[r][fc] / p for the pivot
    column pc of row r, a quotient of cleared dicts that reads back constant."""
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if not free[r][fc]:
                continue
            ratio = _poly_div(*_cleared([free[r][fc], p]))
            ratio = None if ratio is None else _read_back(ratio)
            if ratio is None or set(ratio) - {()}:
                raise RankDisagreement(
                    "null space is not spanned by constant vectors in this fragment")
            v[pc] = -ratio.get((), Fraction(0))
        basis.append(_primitive(v))
    return tuple(basis)


# -- core operations ---------------------------------------------------------

def assemble_form(m: Model) -> SymplecticForm:
    """Antisymmetric two-form of the kinetic sector (`_antisymmetric`)."""
    def upper(i: int, j: int) -> Expr:
        return simplify(
            Sum((diff(m.kinetic[j], m.variables[i], m.positive),
                 Product((Constant(Fraction(-1)),
                          diff(m.kinetic[i], m.variables[j], m.positive))))),
            m.positive)
    return SymplecticForm(_antisymmetric(m.dimension, upper, frozenset(m.positive)))


def _antisymmetric(n: int, upper, positive=frozenset()) -> tuple:
    """The n x n matrix with entry upper(i, j) above the diagonal and, below
    it, that entry's negated dict rebuilt: antisymmetric by structure."""
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = entries[i][j] = upper(i, j)
            entries[j][i] = _rebuild(_negated(_to_poly(e, positive)))
    return tuple(tuple(row) for row in entries)


def _negated(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def invert_form(f: SymplecticForm):
    """Exact symbolic inverse from the form's elimination of [F | I].  At the
    end the left block is p_n I with p_n = sign * det F, and the right block
    that `elimination` holds is R = p_n F^-1, so each entry of F^-1 is
    sign * R_ij / det, multiplied out as dicts, R_ij read back as
    `simplify` would read it (`expr._read_back`).

    The adjugate of an antisymmetric matrix is antisymmetric over any
    commutative ring, so R is too, exactly as dicts: the diagonal is empty
    and R_ji is -R_ij.  Each entry above the diagonal is cancelled once,
    and the entry below it is its negation (`_antisymmetric`), which is
    what simplifying R_ji would give.  An R that is not antisymmetric
    raises SymplecticError.  A singular form, which has no right block, is
    refused with its null basis."""
    n = f.dimension
    if f.rank < n:
        raise SingularForm(f.null_basis)
    p, sign, right = f.elimination
    if any(right[i][i] for i in range(n)):
        raise SymplecticError("form is not antisymmetric")
    det = simplify(_rebuild({m: sign * c for m, c in p.items()}))
    none = frozenset()
    sign_over_det = {m: sign * c for m, c in
                     _to_poly(simplify(Power(det, Fraction(-1))), none).items()}

    def upper(i: int, j: int) -> Expr:
        r = right[i][j]
        if right[j][i] != _negated(r):
            raise SymplecticError("form is not antisymmetric")
        return _rebuild(_cancelled(_poly_mul(_read_back(r), sign_over_det), none))
    return _antisymmetric(n, upper)


def constraints_from_zero_modes(f: SymplecticForm, m: Model):
    """Contractions nu . dV/deta for each zero mode; identically vanishing
    contractions are dropped (callers compare against the null-basis size to
    detect them, which signals a gauge direction)."""
    grad = [diff(m.potential, v, m.positive) for v in m.variables]
    out = []
    for nu in f.null_basis:
        terms = tuple(Product((Constant(c), g)) for c, g in zip(nu, grad) if c != 0)
        omega = simplify(Sum(terms)) if terms else ZERO
        if omega != ZERO:
            out.append(omega)
    return out


def _solve_linear(omega: Expr, variables) -> tuple | None:
    """Find (v, replacement) with omega == c*v + rest, c a nonzero numeric
    constant independent of v; then v = -rest/c on the constraint surface."""
    for v in variables:
        d = diff(omega, v)
        if isinstance(d, Constant) and d.value != 0:
            rest = simplify(Sum((omega, Product((Constant(-d.value), var(v))))))
            replacement = simplify(Product((Constant(Fraction(-1) / d.value), rest)))
            return v, replacement
    return None


def _fresh_multipliers(existing, count: int):
    names = []
    k = 1
    taken = set(existing)
    while len(names) < count:
        cand = f"lam_{k}"
        if cand not in taken:
            names.append(cand)
            taken.add(cand)
        k += 1
    return names


def extend_model(m: Model, constraints) -> Model:
    """Append one multiplier per constraint, named after no variable or
    constant of m, shift the kinetic sector by lam * dOmega, and substitute
    each linearly solvable constraint into the potential."""
    constraints = [simplify(c) for c in constraints]
    if not constraints or all(c == ZERO for c in constraints):
        raise ModelError("no nonvanishing constraints to extend with")
    mults = _fresh_multipliers((*m.variables, *m.constants), len(constraints))
    new_vars = m.variables + tuple(mults)
    kinetic = list(m.kinetic)
    for i, v in enumerate(m.variables):
        shifts = [Product((var(lam), diff(om, v)))
                  for lam, om in zip(mults, constraints)]
        kinetic[i] = simplify(Sum(tuple([kinetic[i]] + shifts)), m.positive)
    kinetic.extend([ZERO] * len(mults))
    potential = m.potential
    for om in constraints:
        solved = _solve_linear(om, m.variables)
        if solved is not None:
            v, replacement = solved
            potential = simplify(substitute(potential, v, replacement), m.positive)
    return Model(new_vars, tuple(kinetic), potential, m.alpha, m.constants, m.positive)


def _in_rational_span(candidate: Expr, basis) -> bool:
    """Exact linear-algebra membership test of `candidate` in the span of
    `basis` over the rationals (coordinates are canonical monomials), all
    of them canonical trees: the candidate's column of [basis | candidate]
    gets no pivot."""
    vecs = [_to_poly(e, frozenset()) for e in (*basis, candidate)]
    rows = [[{(): v[mo]} if mo in v else {} for v in vecs]
            for mo in {mo for v in vecs for mo in v}]
    return len(vecs) - 1 not in _eliminate(rows, len(vecs))[0]


def _prune_spectators(current: Model, original: Model):
    """Remove variables whose only coupling was consumed by constraint
    substitution: kinetic slot identically zero, absent from every kinetic
    coefficient and from the potential, yet coupled in the original action.
    Variables that were decoupled from the start stay (they signal gauge
    freedom, not a spent coupling)."""
    touches = set(free_names(original.potential))
    for k in original.kinetic:
        touches |= free_names(k)
    originally_coupled = {v for v in original.variables if v in touches}
    used_now = free_names(current.potential)
    for k in current.kinetic:
        used_now |= free_names(k)
    doomed = []
    for i, v in enumerate(current.variables):
        if v not in original.variables:
            continue
        if current.kinetic[i] == ZERO and v not in used_now and v in originally_coupled:
            doomed.append(v)
    if not doomed:
        return current, []
    keep = [i for i, v in enumerate(current.variables) if v not in doomed]
    trimmed = Model(
        tuple(current.variables[i] for i in keep),
        tuple(current.kinetic[i] for i in keep),
        current.potential, current.alpha, current.constants,
        tuple(p for p in current.positive if p not in doomed))
    return trimmed, doomed


def _restrict_table(m: Model, inverse, original_vars) -> BracketTable:
    keep = [i for i, v in enumerate(m.variables) if v in original_vars]
    names = tuple(m.variables[i] for i in keep)
    entries = tuple(tuple(inverse[i][j] for j in keep) for i in keep)
    return BracketTable(names, entries, m.alpha)


def fj_iterate(m: Model, gauge_conditions=()):
    """Run the constraint iteration to a terminal.

    Returns (ConstraintChain, BracketTable or None).  Dependence of a new
    constraint candidate on earlier ones is decided by rational-span
    membership against the earlier constraints and their first derivatives;
    dependences beyond that fragment are treated as genuinely new and simply
    consume iteration budget.
    """
    original = m
    budget = 2 * m.dimension
    levels = []
    notes = []
    span_basis: list = []
    gauges = [simplify(g) for g in gauge_conditions]
    current = m
    for _ in range(budget + 1):
        form = assemble_form(current)
        n = current.dimension
        if form.rank == n:
            inverse = invert_form(form)
            table = _restrict_table(current, inverse, original.variables)
            return ConstraintChain(tuple(levels), REGULAR, tuple(notes)), table
        candidates = constraints_from_zero_modes(form, current)
        dropped = len(form.null_basis) - len(candidates)
        if dropped:
            notes.append(
                f"{dropped} zero mode(s) with identically vanishing contraction "
                "(gauge direction)")
        new = []
        for omega in candidates:
            if not variable_names(omega):
                notes.append(f"constraint reduces to nonzero constant: {to_text(omega)}")
                return ConstraintChain(tuple(levels), INCONSISTENT, tuple(notes)), None
            if _in_rational_span(omega, span_basis):
                notes.append(
                    f"candidate {to_text(omega)} lies in the span of earlier "
                    "constraints and their derivatives; dropped")
                continue
            new.append(omega)
        if not new:
            if gauges:
                notes.append(
                    f"imposing {len(gauges)} supplied gauge condition(s) as constraints")
                new = gauges
                gauges = []
            else:
                directions = ", ".join(_vector_text(v) for v in form.null_basis)
                notes.append(
                    f"gauge conditions required for the zero-mode directions {directions}")
                return ConstraintChain(tuple(levels), GAUGE_THEORY, tuple(notes)), None
        for omega in new:
            span_basis.append(omega)
            for v in current.variables:
                span_basis.append(diff(omega, v))
        extended = extend_model(current, new)
        levels.append(ChainLevel(tuple(new), extended))
        pruned_model, doomed = _prune_spectators(extended, original)
        if doomed:
            notes.append(
                "pruned decoupled spectator variable(s) "
                + ", ".join(doomed)
                + " after constraint substitution")
        current = pruned_model
    raise IterationBudgetExceeded(
        f"no terminal after {budget} extensions; last dimension {current.dimension}")


def fractional_equations_of_motion(m: Model):
    """Right-hand sides of D^alpha eta = f^{-1} dV/deta, one per variable."""
    inverse = invert_form(assemble_form(m))
    grad = [diff(m.potential, v, m.positive) for v in m.variables]
    out = []
    for i, v in enumerate(m.variables):
        terms = tuple(Product((inverse[i][j], grad[j]))
                      for j in range(m.dimension) if grad[j] != ZERO)
        rhs = simplify(Sum(terms), m.positive) if terms else ZERO
        out.append((v, rhs))
    return out


def coarse_hamilton_jacobi(m: Model, constraints=(), multipliers: Mapping | None = None):
    """Coarse Hamilton-Jacobi right-hand sides for a phase-space model.

    The variable list splits in half into coordinate/momentum pairs.  The
    effective Hamiltonian is V plus multiplier-weighted constraints, the
    multipliers named after no variable or constant of m, as in
    `extend_model`, and `multipliers` maps some of those names to values
    (any other name raises ModelError); each
    right-hand side carries a 1/Gamma(1+alpha) prefactor and smooth-outer
    fractional partials.  Returns [(variable, rhs Expr)] in variable order.
    The chain partial needs a numeric order, so a symbolic one raises
    ModelError.
    """
    if m.alpha is None:
        raise ModelError("coarse Hamilton-Jacobi equations need a numeric order")
    if m.dimension % 2:
        raise ModelError("phase-space form needs an even number of variables")
    half = m.dimension // 2
    coords = m.variables[:half]
    momenta = m.variables[half:]
    constraints = [simplify(c) for c in constraints]
    lam_names = _fresh_multipliers((*m.variables, *m.constants), len(constraints))
    multipliers = dict(multipliers or {})
    unknown = multipliers.keys() - set(lam_names)
    if unknown:
        raise ModelError(f"no multipliers named {sorted(unknown)}; "
                         f"the multipliers are {list(lam_names)}")
    h_eff = m.potential
    if constraints:
        h_eff = simplify(Sum(tuple([m.potential] + [
            Product((sym(nm), c)) for nm, c in zip(lam_names, constraints)])))
    pref = _gamma_power(m.alpha, -1)
    out = []
    for i in range(half):
        rhs_q = chain_partial_expr(h_eff, momenta[i], m.alpha)
        rhs_p = simplify(Product((Constant(Fraction(-1)),
                                  chain_partial_expr(h_eff, coords[i], m.alpha))))
        out.append((coords[i], _apply_multipliers(
            simplify(Product((pref, rhs_q))), lam_names, multipliers)))
        out.append((momenta[i], _apply_multipliers(
            simplify(Product((pref, rhs_p))), lam_names, multipliers)))
    ordered = dict(out)
    return [(v, ordered[v]) for v in m.variables]


def _apply_multipliers(e: Expr, lam_names, values: Mapping) -> Expr:
    for nm in lam_names:
        if nm in values:
            e = substitute(e, nm, Constant(Fraction(values[nm])))
    return simplify(e)


def momentum_name(v: str) -> str:
    return "mom_" + v


def primary_constraints(m: Model):
    """Momentum-minus-kinetic constraints on the doubled phase space, one per
    model variable, written with the momentum names from momentum_name()."""
    return [simplify(Sum((var(momentum_name(v)),
                          Product((Constant(Fraction(-1)), k)))))
            for v, k in zip(m.variables, m.kinetic)]


def coarse_dirac_bracket(U: Expr, V: Expr, m: Model, constraints=(),
                         point: Mapping | None = None) -> float:
    """Numeric constrained bracket of U and V at a point: the value of one
    exact expression.  With no additional constraints it is
    1/Gamma(1+alpha)^2 times gradU . f^{-1} . gradV on the model's own
    variables (for coordinate pairs the inverse-form entry itself), not
    simplified.  With additional constraints it is taken on the doubled
    phase space: canonical pairs (v, mom_v), the primary constraints
    included automatically, the given constraints appended, and the
    standard correction by the inverse constraint matrix C applied
    (`_dirac_expr`); mom_v is its kinetic coefficient unless the point
    binds it, and a constraint whose row of C is exactly 0 there is left
    out of C.  f, or the rest of C, is degenerate if its rank is short,
    its null space depends on the fields, or its determinant is 0 at the
    point.  The order is the model's, which the point may not rebind
    (`Model.binding`), or for a symbolic order the `alpha` the point binds;
    with neither, UnboundSymbol."""
    binding = m.binding(point)
    a = m.alpha if m.alpha is not None else binding.get("alpha")
    if a is None:
        raise UnboundSymbol("alpha")
    a = float(a)
    if not constraints:
        try:
            form = assemble_form(m)
        except RankDisagreement as exc:
            raise DegenerateConstraintMatrix(
                f"constraint matrix of the primary set is singular: {exc}") from None
        if form.rank < m.dimension:
            raise DegenerateConstraintMatrix(
                "constraint matrix of the primary set is singular; null basis "
                + ", ".join(_vector_text(v) for v in form.null_basis))
        if evaluate(_rebuild(form.elimination[0]), binding) == 0:
            raise DegenerateConstraintMatrix(
                "constraint matrix of the primary set is singular at the point")
        inverse = invert_form(form)
        du, dv = ([diff(e, v) for v in m.variables] for e in (U, V))
        terms = tuple(Product((du[i], inverse[i][j], dv[j]))
                      for i in range(m.dimension) for j in range(m.dimension)
                      if ZERO not in (du[i], inverse[i][j], dv[j]))
        return evaluate(Product((_gamma_power(a, -2), Sum(terms))), binding)
    full = {**{momentum_name(v): evaluate(k, binding)
               for v, k in zip(m.variables, m.kinetic)}, **binding}
    return _guarded([n for v in m.variables for n in (v, momentum_name(v))], a, full,
                    lambda: _dirac_expr(U, V, m, constraints, a,
                                        lambda e: evaluate(e, full) == 0))


def _dirac_expr(U: Expr, V: Expr, m: Model, constraints, alpha, vanishes) -> Expr:
    """{U, V} - {U, phi_i} (C^-1)_ij {phi_j, V} on the doubled phase space
    of m, simplified once, with the rules of `coarse_dirac_bracket` and
    C^-1 from `invert_form`; `vanishes(e)` says whether e is 0 where the
    bracket is read."""
    pairs = [(v, momentum_name(v)) for v in m.variables]
    phis = primary_constraints(m) + [simplify(c) for c in constraints]
    c = _antisymmetric(len(phis), lambda i, j: poisson_alpha_expr(
        phis[i], phis[j], pairs, alpha))
    active = [i for i, row in enumerate(c) if not all(map(vanishes, row))]
    if not active:
        raise DegenerateConstraintMatrix("every constraint commutes with the rest")
    try:
        form = SymplecticForm(tuple(tuple(c[i][j] for j in active) for i in active))
        singular = form.rank < len(active) or vanishes(_rebuild(form.elimination[0]))
    except RankDisagreement:
        singular = True
    if singular:
        raise DegenerateConstraintMatrix(
            "constraint matrix is singular beyond identically commuting rows")
    inverse = invert_form(form)
    phis = [phis[i] for i in active]
    bu = [poisson_alpha_expr(U, phi, pairs, alpha) for phi in phis]
    bv = [poisson_alpha_expr(phi, V, pairs, alpha) for phi in phis]
    terms = tuple(Product((Constant(Fraction(-1)), bu[i], inverse[i][j], bv[j]))
                  for i in range(len(phis)) for j in range(len(phis)))
    return simplify(Sum((poisson_alpha_expr(U, V, pairs, alpha),) + terms))
