"""Small exact-arithmetic expression algebra.

Expressions are immutable trees over rational constants, named symbolic
constants, dynamical variables, sums, products, rational powers, and opaque
gamma-function factors.  Coefficients and exponents are `fractions.Fraction`,
so simplification is exact: two expressions in the polynomial / rational-power
fragment are mathematically equal iff their canonical forms are structurally
equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

EULER_GAMMA = 0.5772156649015329

RESERVED_EULER = "gamma_ec"


class ExprError(Exception):
    pass


class NonDifferentiable(ExprError):
    """Raised when a derivative would have to differentiate through an
    opaque gamma factor."""


class UnboundSymbol(ExprError):
    def __init__(self, name: str):
        super().__init__(f"no value bound for symbol '{name}'")
        self.name = name


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


def _coerce(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Constant(Fraction(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Product((Constant(Fraction(-1)), _coerce(other)))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Product((Constant(Fraction(-1)), self))))

    def __mul__(self, other):
        return Product((self, _coerce(other)))

    def __rmul__(self, other):
        return Product((_coerce(other), self))

    def __truediv__(self, other):
        return Product((self, Power(_coerce(other), Fraction(-1))))

    def __rtruediv__(self, other):
        return Product((_coerce(other), Power(self, Fraction(-1))))

    def __pow__(self, r):
        return Power(self, Fraction(r))

    def __neg__(self):
        return Product((Constant(Fraction(-1)), self))


@dataclass(frozen=True, eq=True)
class Constant(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=True)
class SymbolicConstant(Expr):
    name: str


@dataclass(frozen=True, eq=True)
class Variable(Expr):
    name: str


@dataclass(frozen=True, eq=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True, eq=True)
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True, eq=True)
class Power(Expr):
    base: Expr
    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))


@dataclass(frozen=True, eq=True)
class GammaFactor(Expr):
    arg: Expr


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))


def const(x) -> Constant:
    return Constant(Fraction(x))


def var(name: str) -> Variable:
    return Variable(name)


def sym(name: str) -> SymbolicConstant:
    return SymbolicConstant(name)


def gamma_of(e) -> GammaFactor:
    return GammaFactor(_coerce(e))


# ---------------------------------------------------------------------------
# canonicalization
#
# Internal normal form: {monomial: coefficient} where a monomial is a sorted
# tuple of (base, exponent) pairs.  Bases are atoms (variables, symbolic
# constants, gamma factors) or irreducible sub-expressions kept opaque
# (multi-term sums under a non-expandable power, non-positive bases under a
# fractional power, non-perfect rational roots of constants).

_RANKS = {Constant: 0, SymbolicConstant: 1, Variable: 2, GammaFactor: 3, Power: 4, Sum: 5, Product: 6}


def _base_key(b: Expr):
    return (_RANKS[type(b)], repr(b))


def _mono_key(mono):
    return tuple((_base_key(b), e) for b, e in mono)


def _sorted_mono(pairs) -> tuple:
    return tuple(sorted(pairs, key=lambda be: _base_key(be[0])))


def _poly_add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_mul(m1, m2):
    exps = {}
    order = []
    for b, e in m1 + m2:
        k = _base_key(b)
        if k in exps:
            prev_b, prev_e = exps[k]
            exps[k] = (prev_b, prev_e + e)
        else:
            exps[k] = (b, e)
            order.append(k)
    pairs = [exps[k] for k in order if exps[k][1] != 0]
    return _sorted_mono(pairs)


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            c = c1 * c2
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _poly_int_pow(p: dict, n: int) -> dict:
    result = {(): Fraction(1)}
    base = p
    while n:
        if n & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _int_root(n: int, k: int):
    # exact k-th root of a nonnegative integer, or None
    if n in (0, 1):
        return n
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == n:
            return cand
    return None


def _rational_root(c: Fraction, r: Fraction):
    # c ** r as an exact Fraction when it is one, else None; c > 0 assumed
    k = r.denominator
    num = _int_root(c.numerator, k)
    den = _int_root(c.denominator, k)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return root ** r.numerator


def _is_positive_base(b: Expr, positive: frozenset) -> bool:
    if isinstance(b, GammaFactor):
        # arguments stay in the positive half line for every use here
        return True
    if isinstance(b, (Variable, SymbolicConstant)):
        return b.name in positive
    return False


def _to_poly(e: Expr, positive: frozenset) -> dict:
    if isinstance(e, Constant):
        return {(): e.value} if e.value else {}
    if isinstance(e, (Variable, SymbolicConstant)):
        return {((e, Fraction(1)),): Fraction(1)}
    if isinstance(e, GammaFactor):
        arg = _rebuild(_to_poly(e.arg, positive))
        if isinstance(arg, Constant) and arg.value.denominator == 1:
            n = arg.value.numerator
            if n > 0:
                fact = Fraction(1)
                for i in range(2, n):
                    fact *= i
                return {(): fact}
        atom = GammaFactor(arg)
        return {((atom, Fraction(1)),): Fraction(1)}
    if isinstance(e, Sum):
        out: dict = {}
        for t in e.terms:
            out = _poly_add(out, _to_poly(t, positive))
        return out
    if isinstance(e, Product):
        out = {(): Fraction(1)}
        for f in e.factors:
            out = _poly_mul(out, _to_poly(f, positive))
        return out
    if isinstance(e, Power):
        return _power_poly(_to_poly(e.base, positive), e.exponent, positive)
    raise TypeError(f"unknown node {e!r}")


def _power_poly(p: dict, r: Fraction, positive: frozenset) -> dict:
    if r == 0:
        return {(): Fraction(1)}
    if r == 1:
        return p
    if not p:
        if r > 0:
            return {}
        raise ZeroDivisionError("zero raised to a negative power")
    if r.denominator == 1:
        n = r.numerator
        if n > 0:
            return _poly_int_pow(p, n)
        if len(p) == 1:
            (mono, c), = p.items()
            inv_mono = _sorted_mono([(b, -e) for b, e in mono])
            return _poly_int_pow({inv_mono: 1 / c}, -n)
        wrapper = _rebuild(p)
        return {((wrapper, Fraction(n)),): Fraction(1)}
    # fractional exponent
    if len(p) == 1:
        (mono, c), = p.items()
        if c > 0 and all(_is_positive_base(b, positive) for b, _ in mono):
            root = _rational_root(c, r)
            pairs = [(b, e * r) for b, e in mono]
            if root is None:
                pairs.append((Constant(c), r))
                coeff = Fraction(1)
            else:
                coeff = root
            pairs = [(b, e) for b, e in pairs if e != 0]
            return {_sorted_mono(pairs): coeff}
    wrapper = _rebuild(p)
    return {((wrapper, r),): Fraction(1)}


def _rebuild(p: dict) -> Expr:
    if not p:
        return ZERO
    terms = []
    for mono in sorted(p, key=_mono_key):
        c = p[mono]
        factors = []
        for b, e in mono:
            factors.append(b if e == 1 else Power(b, e))
        if not factors:
            terms.append(Constant(c))
        elif c == 1:
            terms.append(factors[0] if len(factors) == 1 else Product(tuple(factors)))
        else:
            terms.append(Product(tuple([Constant(c)] + factors)))
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


# -- exact Laurent-polynomial division ---------------------------------------

def _poly_div(num: dict, den: dict) -> dict | None:
    """Quotient num / den in the Laurent ring, or None when it is not exact.

    The bases of both operands are ordered by `_base_key`, and monomials by
    (total degree, exponent vector over those bases): a total order that
    respects multiplication, also with negative and rational exponents.
    The leading term of the remainder then always comes from the leading
    term of the quotient.  Every exponent of an exact quotient lies between
    the lowest and the highest exponents that num and den allow for its
    base, and a term outside that box means the division is not exact, so
    a non-exact division stops after finitely many steps.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    if len(den) == 1:
        (mono, c), = den.items()
        if not mono:
            return {m: v / c for m, v in num.items()}
        inv = {_sorted_mono([(b, -e) for b, e in mono]): 1 / c}
        return _poly_mul(num, inv)
    bases = sorted({b for p in (num, den) for m in p for b, _ in m},
                   key=_base_key)
    slot = {b: i for i, b in enumerate(bases)}

    def dense(p):
        out = {}
        for m, c in p.items():
            v = [Fraction(0)] * len(bases)
            for b, e in m:
                v[slot[b]] = e
            out[(sum(v, Fraction(0)), *v)] = c
        return out

    rem, dd = dense(num), dense(den)
    # column 0 of the dense keys is the total degree, the rest one per base
    ncols, dcols = list(zip(*rem))[1:], list(zip(*dd))[1:]
    lo = [min(a) - min(b) for a, b in zip(ncols, dcols)]
    hi = [max(a) - max(b) for a, b in zip(ncols, dcols)]
    dlead = max(dd)
    dcoeff = dd[dlead]
    quot = {}
    while rem:
        rlead = max(rem)
        t = tuple(a - b for a, b in zip(rlead, dlead))
        if not all(l <= e <= h for l, e, h in zip(lo, t[1:], hi)):
            return None
        c = rem[rlead] / dcoeff
        quot[t] = c
        for dm, dc in dd.items():
            m = tuple(a + b for a, b in zip(t, dm))
            s = rem.get(m, Fraction(0)) - c * dc
            if s:
                rem[m] = s
            else:
                del rem[m]
    return {tuple((b, e) for b, e in zip(bases, t[1:]) if e): c
            for t, c in quot.items()}


def _cancel_denominators(p: dict, positive: frozenset) -> dict:
    # group monomials by their multi-term-sum denominator signature and try
    # to divide the numerator group by each denominator polynomial
    groups: dict = {}
    for mono, c in p.items():
        denom = tuple((b, e) for b, e in mono if e < 0 and isinstance(b, Sum))
        rest = tuple((b, e) for b, e in mono if not (e < 0 and isinstance(b, Sum)))
        key = _mono_key(denom)
        groups.setdefault(key, (denom, {}))[1][rest] = c
    out: dict = {}
    for denom, numer in groups.values():
        denom = list(denom)
        changed = True
        while changed and denom:
            changed = False
            for i, (base, e) in enumerate(denom):
                dpoly = _to_poly(base, positive)
                q = _poly_div(numer, dpoly)
                if q is not None:
                    numer = q
                    if e + 1 == 0:
                        denom.pop(i)
                    else:
                        denom[i] = (base, e + 1)
                    changed = True
                    break
        for mono, c in numer.items():
            full = _mono_mul(mono, _sorted_mono(denom))
            s = out.get(full, Fraction(0)) + c
            if s:
                out[full] = s
            else:
                out.pop(full, None)
    return out


def simplify(e: Expr, positive: Iterable[str] = ()) -> Expr:
    """Canonical form: an ordered sum of coefficient-times-power products.

    `positive` lists names that may be assumed strictly positive, which
    licenses collapsing nested rational powers such as (q^2)^(1/2) -> q.
    """
    pos = frozenset(positive)
    p = _to_poly(e, pos)
    if any(isinstance(b, Sum) and ex < 0 for mono in p for b, ex in mono):
        p = _cancel_denominators(p, pos)
    return _rebuild(p)


def _names(e: Expr, kinds) -> frozenset:
    out: set = set()

    def walk(n):
        if isinstance(n, kinds):
            out.add(n.name)
        elif isinstance(n, Sum):
            for t in n.terms:
                walk(t)
        elif isinstance(n, Product):
            for f in n.factors:
                walk(f)
        elif isinstance(n, Power):
            walk(n.base)
        elif isinstance(n, GammaFactor):
            walk(n.arg)

    walk(e)
    return frozenset(out)


def free_names(e: Expr) -> frozenset:
    """Names of the variables and symbolic constants in `e`."""
    return _names(e, (Variable, SymbolicConstant))


def variable_names(e: Expr) -> frozenset:
    """Names of the dynamical variables in `e`."""
    return _names(e, Variable)


def _diff_node(e: Expr, name: str) -> Expr:
    if isinstance(e, (Constant, SymbolicConstant)):
        return ZERO
    if isinstance(e, Variable):
        return ONE if e.name == name else ZERO
    if isinstance(e, GammaFactor):
        if name in free_names(e.arg):
            raise NonDifferentiable(
                f"gamma factor depends on '{name}'; it is kept opaque")
        return ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff_node(t, name) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            d = _diff_node(fs[i], name)
            terms.append(Product(tuple(list(fs[:i]) + [d] + list(fs[i + 1:]))))
        return Sum(tuple(terms))
    if isinstance(e, Power):
        db = _diff_node(e.base, name)
        return Product((Constant(e.exponent), Power(e.base, e.exponent - 1), db))
    raise TypeError(f"unknown node {e!r}")


def diff(e: Expr, name: str, positive: Iterable[str] = ()) -> Expr:
    return simplify(_diff_node(e, name), positive)


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    def walk(n):
        if isinstance(n, (Variable, SymbolicConstant)) and n.name == name:
            return replacement
        if isinstance(n, Sum):
            return Sum(tuple(walk(t) for t in n.terms))
        if isinstance(n, Product):
            return Product(tuple(walk(f) for f in n.factors))
        if isinstance(n, Power):
            return Power(walk(n.base), n.exponent)
        if isinstance(n, GammaFactor):
            return GammaFactor(walk(n.arg))
        return n

    return walk(e)


Binding = Mapping[str, float]


def evaluate(e: Expr, binding: Binding | None = None) -> float:
    """Numeric value of an expression under a name -> value binding.

    The reserved name gamma_ec (the Euler-Mascheroni constant) has a default
    value and need not be bound.  Gamma factors evaluate through the gamma
    implementation in the fractional-calculus module.
    """
    b = binding or {}

    def ev(n) -> float:
        if isinstance(n, Constant):
            return float(n.value)
        if isinstance(n, (Variable, SymbolicConstant)):
            if n.name in b:
                return float(b[n.name])
            if n.name == RESERVED_EULER:
                return EULER_GAMMA
            raise UnboundSymbol(n.name)
        if isinstance(n, Sum):
            return sum(ev(t) for t in n.terms)
        if isinstance(n, Product):
            out = 1.0
            for f in n.factors:
                out *= ev(f)
            return out
        if isinstance(n, Power):
            base = ev(n.base)
            r = n.exponent
            if base < 0 and r.denominator != 1:
                raise ValueError(
                    f"negative base {base!r} under fractional exponent {r}")
            if base == 0 and r < 0:
                raise ZeroDivisionError("zero base under negative exponent")
            return base ** float(r)
        if isinstance(n, GammaFactor):
            from .frac import gamma
            return gamma(ev(n.arg))
        raise TypeError(f"unknown node {n!r}")

    return ev(e)


def compile_expr(e: Expr, order: Iterable[str], binding: Binding | None = None) -> Callable:
    """Compile to a closure over a state vector laid out as `order`.

    Names not in `order` must be satisfied by `binding` (or be gamma_ec).
    Used by the integrators, where per-step evaluate() calls would dominate.
    """
    idx = {name: i for i, name in enumerate(order)}
    b = dict(binding or {})

    def comp(n) -> Callable:
        if isinstance(n, Constant):
            v = float(n.value)
            return lambda y: v
        if isinstance(n, (Variable, SymbolicConstant)):
            if n.name in idx:
                i = idx[n.name]
                return lambda y: y[i]
            if n.name in b:
                v = float(b[n.name])
                return lambda y: v
            if n.name == RESERVED_EULER:
                return lambda y: EULER_GAMMA
            raise UnboundSymbol(n.name)
        if isinstance(n, Sum):
            parts = [comp(t) for t in n.terms]
            return lambda y: sum(p(y) for p in parts)
        if isinstance(n, Product):
            parts = [comp(f) for f in n.factors]

            def prod(y):
                out = 1.0
                for p in parts:
                    out *= p(y)
                return out

            return prod
        if isinstance(n, Power):
            base = comp(n.base)
            r = float(n.exponent)
            return lambda y: base(y) ** r
        if isinstance(n, GammaFactor):
            from .frac import gamma
            inner = comp(n.arg)
            return lambda y: gamma(inner(y))
        raise TypeError(f"unknown node {n!r}")

    return comp(e)


# ---------------------------------------------------------------------------
# text form

def _frac_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _exp_text(r: Fraction) -> str:
    if r.denominator == 1 and r >= 0:
        return str(r.numerator)
    return f"({_frac_text(r)})"


def _atom_text(b: Expr) -> str:
    if isinstance(b, (Variable, SymbolicConstant)):
        return b.name
    if isinstance(b, GammaFactor):
        return f"Gamma({to_text(b.arg)})"
    if isinstance(b, Constant):
        v = b.value
        if v >= 0 and v.denominator == 1:
            return str(v.numerator)
        return f"({_frac_text(v)})"
    if isinstance(b, (Sum, Product, Power)):
        return f"({to_text(b)})"
    raise TypeError(f"unknown node {b!r}")


def _factor_text(b: Expr, e: Fraction) -> str:
    if isinstance(b, Power):
        # nested irreducible power kept opaque, e.g. (q^2)^(1/2)
        inner = f"({_atom_text(b.base)}^{_exp_text(b.exponent)})"
        return inner if e == 1 else f"{inner}^{_exp_text(e)}"
    base = _atom_text(b)
    return base if e == 1 else f"{base}^{_exp_text(e)}"


def _term_text(t: Expr) -> tuple:
    """(sign, unsigned text) of one canonical term."""
    coeff = Fraction(1)
    factors = []
    if isinstance(t, Product):
        parts = list(t.factors)
    else:
        parts = [t]
    for p in parts:
        if isinstance(p, Constant):
            coeff *= p.value
        elif isinstance(p, Power):
            factors.append((p.base, p.exponent))
        else:
            factors.append((p, Fraction(1)))
    sign = -1 if coeff < 0 else 1
    coeff = abs(coeff)
    texts = [_factor_text(b, e) for b, e in factors]
    if not texts:
        return sign, _frac_text(coeff)
    if coeff != 1:
        texts.insert(0, _frac_text(coeff))
    return sign, "*".join(texts)


def to_text(e: Expr) -> str:
    """Deterministic infix rendering; round-trips through parse_expression."""
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            sign, txt = _term_text(t)
            if i == 0:
                parts.append(("-" if sign < 0 else "") + txt)
            else:
                parts.append(("- " if sign < 0 else "+ ") + txt)
        return " ".join(parts)
    sign, txt = _term_text(e)
    return ("-" if sign < 0 else "") + txt


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: frozenset, allowed: frozenset | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}', found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                terms.append(t if val == "+" else Product((Constant(Fraction(-1)), t)))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.unary()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                f = self.unary()
                factors.append(f if val == "*" else Power(f, Fraction(-1)))
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.unary()
            if val == "-":
                return Product((Constant(Fraction(-1)), inner))
            return inner
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return Power(base, self.exponent())
        return base

    def exponent(self) -> Fraction:
        kind, val, pos = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.take()
            neg = val == "-"
        e = self.primary()
        r = simplify(e)
        if not isinstance(r, Constant):
            raise ParseError("exponent must reduce to a rational constant", pos)
        return -r.value if neg else r.value

    def primary(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            return Constant(Fraction(val))
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val != "Gamma":
                    raise ParseError(f"unknown function '{val}'", pos)
                self.take()
                inner = self.expr()
                self.expect_op(")")
                return GammaFactor(inner)
            if self.allowed is not None and val not in self.allowed:
                raise ParseError(f"undeclared name '{val}'", pos)
            if val in self.variables:
                return Variable(val)
            return SymbolicConstant(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a value, found {val!r}", pos)


def parse_expression(text: str, variables: Iterable[str] = (),
                     allowed: Iterable[str] | None = None) -> Expr:
    """Parse infix text into an expression tree.

    Names in `variables` become dynamical variables, all other names become
    symbolic constants.  When `allowed` is given, any name outside it (other
    than the reserved gamma_ec and the Gamma function) is rejected.
    """
    vs = frozenset(variables)
    al = None
    if allowed is not None:
        al = frozenset(allowed) | vs | {RESERVED_EULER}
    return _Parser(text, vs, al).parse()
