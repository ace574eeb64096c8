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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping

from .expr import (
    Constant,
    Expr,
    GammaFactor,
    ONE,
    Power,
    Product,
    Sum,
    ZERO,
    _poly_add,
    _poly_div,
    _poly_mul,
    _rebuild,
    _sorted_mono,
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
from .frac import FracOrder, OutsideFragment, chain_partial_expr, gamma, poisson_alpha

REGULAR = "regular"
GAUGE_THEORY = "gauge-theory"
INCONSISTENT = "inconsistent"

CONVENTION = "f_ij = d a_j / d eta_i - d a_i / d eta_j"


class SymplecticError(Exception):
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
    assumed positive during simplification."""

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
        if self.alpha is not None:
            FracOrder(self.alpha)
        # `alpha` is always a legal name: binding() supplies the numeric order,
        # and a symbolic-order model simply leaves it unbound.
        allowed = set(self.variables) | set(self.constants) | {"gamma_ec", "alpha"}
        for label, e in [("potential", self.potential)] + [
                (f"kinetic[{v}]", k) for v, k in zip(self.variables, self.kinetic)]:
            extra = free_names(e) - allowed
            if extra:
                raise ModelError(f"{label} uses undeclared names {sorted(extra)}")

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def binding(self, point: Mapping | None = None) -> dict:
        out = dict(self.constants)
        if self.alpha is not None:
            out.setdefault("alpha", self.alpha)
        if point:
            out.update(point)
        return out


@dataclass(frozen=True)
class SymplecticForm:
    """An antisymmetric two-form, given by its entries alone.  One exact
    elimination of [F | I] at construction gives its rank (the pivot
    count), its null basis and, for a regular form, what `invert_form`
    reads the inverse from; a null space that constant vectors do not span
    raises RankDisagreement."""

    entries: tuple
    rank: int = field(init=False)
    null_basis: tuple = field(init=False)
    # (rows, pivot columns, last pivot, sign) of `_eliminate` on [F | I]
    elimination: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.entries)
        rows = [[_to_poly(e, frozenset()) for e in row]
                + [{(): Fraction(1)} if j == i else {} for j in range(n)]
                for i, row in enumerate(self.entries)]
        pivots, p, sign = _eliminate(rows, n)
        object.__setattr__(self, "rank", len(pivots))
        object.__setattr__(self, "null_basis", _null_basis(rows, pivots, p, n))
        object.__setattr__(self, "elimination", (rows, pivots, p, sign))

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
    commutators: tuple | None = None

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
        return simplify(Product((self.prefactor, self.entry(vi, vj))))

    def to_json_dict(self) -> dict:
        prefactor = self.prefactor
        plain = [[to_text(e) for e in row] for row in self.entries]
        scaled = [
            [to_text(simplify(Product((prefactor, e)))) for e in row]
            for row in self.entries
        ]
        out = {
            "variables": list(self.variables),
            "alpha": "symbolic" if self.alpha is None else float(self.alpha),
            "convention": CONVENTION,
            "prefactor": to_text(prefactor),
            "brackets": plain,
            "commutators": (
                None if self.commutators is None
                else [[to_text(e) for e in row] for row in self.commutators]),
            "normalizations": {
                "section_6_3": plain,
                "section_5_2": scaled,
            },
        }
        return out


def _gamma_power(alpha: float | None, k: int) -> Expr:
    """Gamma(1 + alpha)^k as an expression, honoring a symbolic order; 1 at
    alpha = 1."""
    if alpha == 1.0:
        return ONE
    arg = sym("alpha") if alpha is None else Constant(Fraction(alpha))
    return simplify(Power(GammaFactor(Sum((ONE, arg))), Fraction(k)))


def _primitive(v):
    """Scale a rational vector to a primitive integer vector with a positive
    leading nonzero entry."""
    den = math.lcm(*(c.denominator for c in v))
    ints = [int(c * den) for c in v]
    g = math.gcd(*ints) or 1
    if next((c for c in ints if c), 0) < 0:
        g = -g
    return tuple(Fraction(c // g) for c in ints)


# -- exact elimination -------------------------------------------------------

def _cleared(polys) -> list:
    """The dicts of `_to_poly` in `polys`, each times every opaque
    denominator that they hold, as simplified trees.  The ring of
    `_to_poly` takes an opaque (1 + q)^(-1) as independent of 1 + q, so a
    nonzero dict can still be 0 and a quotient can exist only outside the
    ring; read back with its denominators multiplied out, a dict is a
    polynomial in which `simplify` can decide both."""
    den: dict = {}
    for x in polys:
        for mono in x:
            for b, e in mono:
                if e < 0 and isinstance(b, Sum):
                    den[b] = max(den.get(b, 0), -e)
    d = {_sorted_mono(den.items()): Fraction(1)}
    return [simplify(_rebuild(_poly_mul(x, d))) for x in polys]


def _nonzero(x: dict) -> bool:
    return bool(x) and _cleared([x])[0] != ZERO


def _eliminate(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of `rows`, lists
    of Laurent-polynomial dicts of `_to_poly`, in place.

    Pivots are sought in the first `ncols` columns in column order, the first
    entry at or below the next pivot row that does not simplify to 0
    winning; later columns are carried along.  Step k updates every other
    row as (p_k a_ij - a_ik a_kj) / p_(k-1), a division that is always exact,
    in each later column and in each free column met so far (the null basis
    reads those), so the cost is O(n^3) polynomial operations.  Pivot
    columns are never written, so `rows` does not hold what the elimination
    implies there: the last pivot p in each pivot row's own pivot column,
    and 0 in its other pivot columns and in the first `ncols` columns of
    the rows below the pivot rows.  An entry skipped because it simplifies
    to 0 may likewise stay a nonzero dict.  The later columns and the free
    columns hold the eliminated values.  Returns (pivot columns, p, sign of
    the row permutation)."""
    pivots: list = []
    free: list = []
    sign = 1
    prev = {(): Fraction(1)}
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if _nonzero(rows[i][c])), None)
        if sel is None:
            free.append(c)
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            sign = -sign
        pivot = rows[r]
        p = pivot[c]
        cols = free + list(range(c + 1, len(pivot)))
        for i, row in enumerate(rows):
            if i == r:
                continue
            minus_a = {m: -x for m, x in row[c].items()}
            for j in cols:
                t = _poly_add(_poly_mul(p, row[j]), _poly_mul(minus_a, pivot[j]))
                row[j] = _poly_div(t, prev)
                if row[j] is None:
                    raise ArithmeticError("fraction-free step is not exact")
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def _null_basis(rows, pivots, p, n: int) -> tuple:
    """One primitive null vector per free column fc of an eliminated form:
    v_fc = 1, the other free entries 0, and v_pc = -a_(r, fc) / p, simplified,
    for the pivot column pc of row r."""
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if not rows[r][fc]:
                continue
            a, b = _cleared([rows[r][fc], p])
            ratio = simplify(Product((a, Power(b, Fraction(-1)))))
            if not isinstance(ratio, Constant):
                raise RankDisagreement(
                    "null space is not spanned by constant vectors in this fragment")
            v[pc] = -ratio.value
        basis.append(_primitive(v))
    return tuple(basis)


# -- core operations ---------------------------------------------------------

def assemble_form(m: Model) -> SymplecticForm:
    """Antisymmetric two-form of the kinetic sector.  The lower triangle is
    the negated upper triangle by construction, so antisymmetry is structural
    rather than checked."""
    n = m.dimension
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = simplify(
                Sum((diff(m.kinetic[j], m.variables[i], m.positive),
                     Product((Constant(Fraction(-1)),
                              diff(m.kinetic[i], m.variables[j], m.positive))))),
                m.positive)
            entries[i][j] = e
            entries[j][i] = simplify(Product((Constant(Fraction(-1)), e)), m.positive)
    return SymplecticForm(tuple(tuple(row) for row in entries))


def invert_form(f: SymplecticForm):
    """Exact symbolic inverse from the form's elimination of [F | I].  At the
    end the left block is p_n I with p_n = sign * det F, and the right block
    R = p_n F^-1, so each entry of F^-1 is sign * R_ij / det."""
    n = f.dimension
    if f.rank < n:
        raise SingularForm(f.null_basis)
    rows, _pivots, p, sign = f.elimination
    det = simplify(_rebuild({m: sign * c for m, c in p.items()}))
    inv_det = simplify(Power(det, Fraction(-1)))
    sign_c = Constant(Fraction(sign))
    return tuple(
        tuple(simplify(Product((sign_c, _rebuild(rows[i][n + j]), inv_det)))
              for j in range(n))
        for i in range(n))


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
        d = simplify(diff(omega, v))
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
    """Append one multiplier per constraint, shift the kinetic sector by
    lam * dOmega, and substitute each linearly solvable constraint into the
    potential."""
    constraints = [simplify(c) for c in constraints]
    if not constraints or all(c == ZERO for c in constraints):
        raise ModelError("no nonvanishing constraints to extend with")
    mults = _fresh_multipliers(m.variables, len(constraints))
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
    `basis` over the rationals (coordinates are canonical monomials): the
    candidate's column of [basis | candidate] gets no pivot."""
    vecs = [_to_poly(simplify(e), ()) for e in (*basis, candidate)]
    rows = [[{(): v[mo]} if mo in v else {} for v in vecs]
            for mo in {mo for v in vecs for mo in v}]
    pivots, _p, _sign = _eliminate(rows, len(vecs))
    return len(vecs) - 1 not in pivots


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
    effective Hamiltonian is V plus multiplier-weighted constraints; each
    right-hand side carries a 1/Gamma(1+alpha) prefactor and smooth-outer
    fractional partials.  Returns [(variable, rhs Expr)] in variable order.
    """
    if m.dimension % 2:
        raise ModelError("phase-space form needs an even number of variables")
    half = m.dimension // 2
    coords = m.variables[:half]
    momenta = m.variables[half:]
    constraints = [simplify(c) for c in constraints]
    lam_names = _fresh_multipliers((), len(constraints))
    multipliers = dict(multipliers or {})
    h_eff = m.potential
    if constraints:
        h_eff = simplify(Sum(tuple([m.potential] + [
            Product((sym(nm), c)) for nm, c in zip(lam_names, constraints)])))
    a = 1.0 if m.alpha is None else m.alpha
    pref = _gamma_power(a, -1)
    out = []
    for i in range(half):
        rhs_q = chain_partial_expr(h_eff, momenta[i], a)
        rhs_p = simplify(Product((Constant(Fraction(-1)),
                                  chain_partial_expr(h_eff, coords[i], a))))
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


def _doubled_pairs(m: Model):
    return [(v, momentum_name(v)) for v in m.variables]


def coarse_dirac_bracket(U: Expr, V: Expr, m: Model, constraints=(),
                         point: Mapping | None = None) -> float:
    """Numeric constrained bracket of U and V at a point.

    With no additional constraints, the momentum-elimination closed form is
    used: 1/Gamma(1+alpha)^2 times gradU . f^{-1} . gradV on the model's own
    variables (for coordinate pairs this is the inverse-form entry itself).
    With additional constraints, the bracket is computed on the doubled phase
    space: canonical pairs (v, mom_v), the primary constraints included
    automatically, the given constraints appended, and the standard
    correction by the inverse constraint matrix applied.  Constraints whose
    bracket row vanishes identically at the point commute with everything and
    are excluded from the matrix; if the remainder is still singular the
    matrix is degenerate.
    """
    import numpy as np

    a = 1.0 if m.alpha is None else float(m.alpha)
    binding = m.binding(point)
    if not constraints:
        form = assemble_form(m)
        if form.rank < m.dimension:
            raise DegenerateConstraintMatrix(
                "constraint matrix of the primary set is singular; null basis "
                + ", ".join(_vector_text(v) for v in form.null_basis))
        inverse = invert_form(form)
        total = 0.0
        for i, vi in enumerate(m.variables):
            du = simplify(diff(U, vi))
            if du == ZERO:
                continue
            for j, vj in enumerate(m.variables):
                dv = simplify(diff(V, vj))
                if dv == ZERO or inverse[i][j] == ZERO:
                    continue
                total += (evaluate(du, binding) * evaluate(inverse[i][j], binding)
                          * evaluate(dv, binding))
        return total / gamma(1.0 + a) ** 2
    pairs = _doubled_pairs(m)
    full = dict(binding)
    for v, k in zip(m.variables, m.kinetic):
        full.setdefault(momentum_name(v), evaluate(k, binding))
    phis = primary_constraints(m) + [simplify(c) for c in constraints]
    nphi = len(phis)
    C = np.zeros((nphi, nphi))
    for i in range(nphi):
        for j in range(i + 1, nphi):
            C[i, j] = poisson_alpha(phis[i], phis[j], pairs, a, full)
            C[j, i] = -C[i, j]
    scale = max(1.0, float(np.max(np.abs(C))))
    active = [i for i in range(nphi) if np.max(np.abs(C[i])) > 1e-12 * scale]
    if not active:
        raise DegenerateConstraintMatrix("every constraint commutes with the rest")
    Ca = C[np.ix_(active, active)]
    if np.linalg.matrix_rank(Ca, tol=1e-9 * scale) < len(active):
        raise DegenerateConstraintMatrix(
            "constraint matrix is singular beyond identically commuting rows")
    base = poisson_alpha(U, V, pairs, a, full)
    bu = np.array([poisson_alpha(U, phis[i], pairs, a, full) for i in active])
    bv = np.array([poisson_alpha(phis[j], V, pairs, a, full) for j in active])
    correction = float(bu @ np.linalg.solve(Ca, bv))
    return base - correction


def brackets_to_commutators(t: BracketTable, hbar: float) -> BracketTable:
    """Commutator coefficients c_ij with [eta_i, eta_j] = i c_ij, where
    c_ij is hbar times the bracket entry."""
    h = Constant(Fraction(hbar))
    comms = tuple(tuple(simplify(Product((h, e))) for e in row) for row in t.entries)
    return replace(t, commutators=comms)
