"""Small exact-arithmetic expression algebra.

Expressions are immutable trees over rational constants, named symbolic
constants, dynamical variables, sums, products, rational powers, and opaque
gamma-function factors.  Coefficients and exponents are `fractions.Fraction`,
so simplification is exact: two expressions in the polynomial / rational-power
fragment are mathematically equal iff their canonical forms are structurally
equal.

Each node computes its hash and its sort key (type rank, repr) once, on
first use, and keeps them, so sorting and merging monomials does not
walk the trees again.  A tree that `_rebuild` builds from a polynomial
dict keeps that dict when each factor of it converts back unchanged under
every `positive` set, so the next `simplify`, `diff` or rescaling of a
canonical tree reads it rather than walking the tree; the dict is shared
by every caller and must not be mutated.  Only `_rebuild` stores a dict:
any other tree is converted afresh each time.  A tree kept opaque under a
power is itself the base of its monomials, so every power of it shares
one node, and an opaque factor (a sum, product or power base, or a Gamma
factor) keeps its parenthesised text, so a denominator that every term
of a bracket shares is rendered once.  All of this is safe because nodes
are immutable: a stored value never goes stale.  Inside the polynomial
dicts of `simplify` an exponent is a `Fraction` or a plain `int` (an atom
enters with exponent 1); nodes always hold `Fraction`s, so trees, text
and JSON are the same either way.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

EULER_GAMMA = 0.5772156649015329

RESERVED_EULER = "gamma_ec"


class FracsympError(Exception):
    """Root of every error the package raises on bad input; the command
    line reports any of them as one error line and exit code 1."""


class ExprError(FracsympError):
    pass


class ZeroToNegativePower(ExprError, ZeroDivisionError):
    """An expression that raises zero to a negative power."""


class NegativeBaseRoot(ExprError, ValueError):
    """A negative base under a fractional exponent."""


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


class Expr:
    """Base of the expression nodes: frozen dataclasses that store their
    hash and their sort key `(_RANKS[type], repr)` on first use.

    The stored hash is the dataclass field-tuple hash and the repr is the
    dataclass repr, both computed once per node; a parent's repr reuses its
    children's.  Every order and every dict is the one the dataclass
    methods would give."""

    __slots__ = ("_hash", "_key", "_poly", "_text")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._field_hash()
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return _base_key(self)[1]

    def __neg__(self):
        return Product((Constant(Fraction(-1)), self))


def _node(cls):
    """Make `cls` a frozen dataclass whose generated __hash__ and __repr__
    back the stored values of Expr."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_hash, cls._field_repr = cls.__hash__, cls.__repr__
    cls.__hash__, cls.__repr__ = Expr.__hash__, Expr.__repr__
    return cls


@_node
class Constant(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@_node
class SymbolicConstant(Expr):
    name: str


@_node
class Variable(Expr):
    name: str


@_node
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@_node
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@_node
class Power(Expr):
    base: Expr
    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))


@_node
class GammaFactor(Expr):
    arg: Expr


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))


def var(name: str) -> Variable:
    return Variable(name)


def sym(name: str) -> SymbolicConstant:
    return SymbolicConstant(name)


# ---------------------------------------------------------------------------
# canonicalization
#
# Internal normal form: {monomial: Fraction coefficient} where a monomial is
# a tuple of (base, exponent) pairs sorted by `_base_key`, with a nonzero
# Fraction or int exponent.  Bases are atoms (variables, symbolic
# constants, gamma factors) or irreducible sub-expressions kept opaque
# (multi-term sums under a non-expandable power, non-positive bases under a
# fractional power, non-perfect rational roots of constants).
#
# A canonical monomial holds no integer power of a constant, power or
# product base and no positive integer power of a sum base: `_fold`
# multiplies each out wherever `_rebuild` builds a tree, before
# `_power_poly` decides whether its base is one monomial, and, for all but
# constants, on entry to `_cancelled`.  Until then the arithmetic treats a
# constant base like any other symbol, so that 2^(1/2)*2^(1/2) is the
# monomial 2^1 and exact division stays exact in that ring.
#
# A compound tree that `_rebuild` builds keeps its dict in `_poly` when
# each factor round-trips, that is, converts back to itself under any
# `positive` set: a variable, a symbolic constant, a Gamma factor whose
# argument is an atom or keeps such a dict, or a sum that keeps such a
# dict under a negative or fractional exponent.  A power or product base,
# whose conversion depends on the set, and a constant root, which has no
# unique form yet, leave the tree without a dict, and `_to_poly` converts
# it afresh.  `diff` has one rule: the product rule on the dict of its
# tree, factor by factor and through each compound base's own dict (kept,
# or else converted), cancelled and rebuilt as `simplify` does.  So the
# derivative of a raw tree is that of its canonical form: Gamma(0*p) by p
# is 0, and Gamma(0^(-2)) raises ZeroToNegativePower as `simplify` does.

_RANKS = {Constant: 0, SymbolicConstant: 1, Variable: 2, GammaFactor: 3, Power: 4, Sum: 5, Product: 6}

_ONE = Fraction(1)

# Gamma(n) of a positive integer n up to this bound is the exact (n - 1)!,
# here and in `frac.gamma`: 170! is the last factorial finite in float64.
# Past it a Gamma factor of an integer stays opaque; folding nested ones
# would ask for astronomically large factorials.
GAMMA_EXACT_MAX = 171


def _base_key(b: Expr):
    try:
        return b._key
    except AttributeError:
        k = (_RANKS[type(b)], b._field_repr())
        object.__setattr__(b, "_key", k)
        return k


def _mono_key(mono):
    return tuple((_base_key(b), e) for b, e in mono)


def _sorted_mono(pairs) -> tuple:
    return tuple(sorted(pairs, key=lambda be: _base_key(be[0])))


def _accumulate(out: dict, m, c):
    """out[m] += c, dropping the monomial when its coefficient cancels."""
    prev = out.get(m)
    if prev is None:
        out[m] = c
    else:
        s = prev + c
        if s:
            out[m] = s
        else:
            del out[m]


def _poly_add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for m, c in p2.items():
        _accumulate(out, m, c)
    return out


def _mono_mul(m1, m2) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = {}
    for b, e in m1 + m2:
        prev = exps.get(b)
        exps[b] = e if prev is None else prev + e
    return _sorted_mono([(b, e) for b, e in exps.items() if e])


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _accumulate(out, _mono_mul(m1, m2), c1 * c2)
    return out


_COMPOUND = (Power, Product, Sum)


def _folds(b: Expr, e) -> bool:
    """Whether `_fold` multiplies out b^e, for a constant, power, product
    or sum base b: an integer power, of a sum only a positive one."""
    return e.denominator == 1 and (e > 0 or not isinstance(b, Sum))


def _fold(p: dict, kinds: tuple = (Constant,) + _COMPOUND) -> dict:
    """p with each factor over a base of `kinds` that `_folds` names
    multiplied out through `_power_poly`, until none is left; p itself
    when it holds none."""
    while any(isinstance(b, kinds) and _folds(b, e) for mono in p for b, e in mono):
        out: dict = {}
        for mono, c in p.items():
            term = {(): c}
            for b, e in mono:
                f = (_power_poly(b, e, frozenset()) if isinstance(b, kinds) and _folds(b, e)
                     else {((b, e),): _ONE})
                term = _poly_mul(term, f)
            for m, d in term.items():
                _accumulate(out, m, d)
        p = out
    return p


def _poly_int_pow(p: dict, n: int) -> dict:
    result = {(): _ONE}
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
    if k == 2:
        r = math.isqrt(n)
    else:  # integer Newton falls from above the root to its floor
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
    return r if r ** k == n else None


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
    """The polynomial dict of e under `positive`.  A node that `_rebuild`
    kept a dict on returns that dict, which holds under every set and is
    shared, so read-only; any other node is converted afresh, and nothing
    is stored."""
    if isinstance(e, Constant):
        return {(): e.value} if e.value else {}
    if isinstance(e, (Variable, SymbolicConstant)):
        return {((e, 1),): _ONE}
    kept = _kept_poly(e)
    if kept is not None:
        return kept
    if isinstance(e, GammaFactor):
        arg = _rebuild(_to_poly(e.arg, positive))
        if isinstance(arg, Constant) and arg.value.denominator == 1:
            n = arg.value.numerator
            if 0 < n <= GAMMA_EXACT_MAX:
                return {(): Fraction(math.factorial(n - 1))}
        return {((GammaFactor(arg), 1),): _ONE}
    if isinstance(e, Sum):
        out: dict = {}
        for t in e.terms:
            for m, c in _to_poly(t, positive).items():
                _accumulate(out, m, c)
        return out
    if isinstance(e, Product):
        out = {(): _ONE}
        for f in e.factors:
            out = _poly_mul(out, _to_poly(f, positive))
        return out
    if isinstance(e, Power):
        return _power_poly(e.base, e.exponent, positive)
    raise TypeError(f"unknown node {e!r}")


def _power_poly(base: Expr, r: Fraction, positive: frozenset) -> dict:
    p = _to_poly(base, positive)
    if r == 0:
        return {(): _ONE}
    if r == 1:
        return p
    if r > 0 and r.denominator == 1:
        return _poly_int_pow(p, r.numerator)
    p = _fold(p)
    if not p:
        if r > 0:
            return {}
        raise ZeroToNegativePower("zero raised to a negative power")
    if len(p) == 1 and r.denominator == 1:
        (mono, c), = p.items()
        inv_mono = _sorted_mono([(b, -e) for b, e in mono])
        return _poly_int_pow({inv_mono: 1 / c}, -r.numerator)
    if len(p) == 1:
        (mono, c), = p.items()
        if c > 0 and all(_is_positive_base(b, positive) for b, _ in mono):
            root = _rational_root(c, r)
            pairs = [(b, e * r) for b, e in mono]
            if root is None:
                pairs.append((Constant(c), r))
                coeff = _ONE
            else:
                coeff = root
            pairs = [(b, e) for b, e in pairs if e != 0]
            return {_sorted_mono(pairs): coeff}
    # a multi-term base under a negative integer or any fractional power,
    # or a base not known to be positive, stays one opaque factor; a base
    # that keeps its dict is already that dict's tree, shared by its powers
    tree = base if _kept_poly(base) is not None else _rebuild(p)
    return {((tree, r),): _ONE}


def _kept_poly(e: Expr):
    """The dict `_rebuild` kept on e for every `positive` set, or None."""
    return getattr(e, "_poly", None)


def _round_trips(b: Expr, e) -> bool:
    """Whether the factor b^e of a monomial converts back to b^e under
    every `positive` set, by the rule in the notes above."""
    if isinstance(b, (Variable, SymbolicConstant)):
        return True
    if isinstance(b, GammaFactor):
        return (isinstance(b.arg, (Constant, Variable, SymbolicConstant))
                or _kept_poly(b.arg) is not None)
    if isinstance(b, Sum):
        return (e < 0 or e.denominator != 1) and _kept_poly(b) is not None
    return False


def _rebuild(p: dict) -> Expr:
    """The canonical tree of p, folded (`_fold`).  A compound tree built
    here keeps the folded p as its dict, valid under every `positive`
    set, when each factor of it round-trips; this is the one place a node
    stores a dict.  p is shared from then on, and must not be mutated."""
    p = _fold(p)
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
        (mono, c), = p.items()
        if not mono or (c == 1 and len(mono) == 1 and mono[0][1] == 1):
            return terms[0]  # a constant, or the one atom of p itself
        tree = terms[0]
    else:
        tree = Sum(tuple(terms))
    if all(_round_trips(b, e) for mono in p for b, e in mono):
        object.__setattr__(tree, "_poly", p)
    return tree


def _read_back(p: dict) -> dict:
    """`_to_poly(_rebuild(p), frozenset())`, the dict `simplify` reads back:
    the folded p, which its tree would keep, when each factor round-trips."""
    p = _fold(p)
    keeps = all(_round_trips(b, e) for mono in p for b, e in mono)
    return p if keeps else _to_poly(_rebuild(p), frozenset())


# -- exact Laurent-polynomial division ---------------------------------------

def _exponent_ranges(p: dict) -> dict:
    """{base: (lowest, highest) exponent} over the monomials of p; a
    monomial without the base counts as exponent 0."""
    seen: dict = {}
    for m in p:
        for b, e in m:
            lo, hi, n = seen.get(b, (e, e, 0))
            seen[b] = (min(lo, e), max(hi, e), n + 1)
    return {b: (lo, hi) if n == len(p) else (min(lo, 0), max(hi, 0))
            for b, (lo, hi, n) in seen.items()}


def _denominator_lcm(coeffs) -> int:
    return math.lcm(*(c.denominator for c in coeffs))


class _Packing:
    """Monomials over the bases that the dicts `polys` hold, each packed
    into one int, for kernels that multiply and divide many of them.

    A base's exponents are scaled to integers by the lcm of their
    denominators.  The exponent vector (weighted total degree, then one
    exponent per base in `_base_key` order) is written in signed digits of
    a power-of-two radix, so multiplying two monomials is adding their ints,
    and comparing two ints compares their vectors lexicographically: by
    total degree, then by exponents, a total order that respects
    multiplication, also with negative and rational exponents.  The radix
    holds every exponent up to `spread` times the largest in `polys`, so a
    caller states how far its products and quotients can reach."""

    def __init__(self, polys, spread: int):
        exps: dict = {}
        for p in polys:
            for mono in p:
                for b, e in mono:
                    exps.setdefault(b, set()).add(e)
        self.bases = sorted(exps, key=_base_key)
        self.scales = [math.lcm(*(e.denominator for e in exps[b])) for b in self.bases]
        top = math.lcm(*self.scales)
        self.weights = [top // d for d in self.scales]
        self.slot = {b: i for i, b in enumerate(self.bases)}
        bound = spread * sum(int(max(map(abs, exps[b])) * d) * w for b, d, w in
                             zip(self.bases, self.scales, self.weights))
        self.shift = bound.bit_length() + 2

    def pack(self, mono) -> int:
        v = [0] * len(self.bases)
        for b, e in mono:
            i = self.slot[b]
            v[i] = e.numerator * (self.scales[i] // e.denominator)
        x = sum(a * w for a, w in zip(v, self.weights))
        for a in v:
            x = (x << self.shift) + a
        return x

    def exponents(self, x: int) -> list:
        """The integer exponent of each base in the packed monomial x."""
        s = self.shift
        half = 1 << (s - 1)
        mask = (1 << s) - 1
        out = []
        for _ in self.bases:
            a = ((x + half) & mask) - half
            out.append(a)
            x = (x - a) >> s
        out.reverse()
        return out

    def mono(self, x: int) -> tuple:
        return tuple((b, Fraction(a, d) if d > 1 else a) for b, d, a in
                     zip(self.bases, self.scales, self.exponents(x)) if a)

    def to_ints(self, p: dict, scale: int) -> dict:
        """p times `scale`, a multiple of its coefficients' denominators,
        with packed monomials and int coefficients."""
        return {self.pack(m): c.numerator * (scale // c.denominator)
                for m, c in p.items()}

    def from_ints(self, p: dict, factor: Fraction) -> dict:
        """p times `factor`, with monomials as `_to_poly` writes them."""
        if factor == 1:
            return {self.mono(x): Fraction(c) for x, c in p.items()}
        return {self.mono(x): c * factor for x, c in p.items()}


def _divide(num: dict, den: dict, inside: Callable | None = None) -> dict | None:
    """Quotient num / den of packed int-coefficient dicts, or None when it
    is not exact; `num` is used up.  The caller sees to it that an exact
    quotient has integer coefficients.

    Each step divides the leading term of the remainder by the leading term
    of den.  In a total order that respects multiplication, that term is
    the leading term of what is left of an exact quotient.  So a step whose
    coefficient does not divide, or whose monomial lies below
    lowest(num) - lowest(den), the lowest monomial an exact quotient can
    have, or outside `inside`, means the division is not exact.  Only the
    `inside` box bounds the steps of a non-exact division: with Laurent
    monomials infinitely many lie above that lowest one, and past the
    packing's radix the digits overflow.  `_poly_div` passes the box;
    `_eliminate` passes none, as every Bareiss step is exact."""
    if not num:
        return {}
    if len(den) == 1:
        (dm, dc), = den.items()
        out = {}
        for m, c in num.items():
            q, r = divmod(c, dc)
            if r:
                return None
            out[m - dm] = q
        return out
    dlead = max(den)
    dcoeff = den[dlead]
    low = min(num) - min(den)
    quot = {}
    while num:
        lead = max(num)
        t = lead - dlead
        if t < low or (inside is not None and not inside(t)):
            return None
        q, r = divmod(num[lead], dcoeff)
        if r:
            return None
        quot[t] = q
        for dm, dc in den.items():
            _accumulate(num, t + dm, -q * dc)
    return quot


def _poly_div(num: dict, den: dict) -> dict | None:
    """Quotient num / den in the Laurent ring, or None when it is not exact.

    Every exponent of an exact quotient lies between the lowest and the
    highest exponents that num and den allow for its base, so an empty box
    means the division is not exact before any monomial is compared, and a
    quotient term outside the box stops the division.  Otherwise both
    operands are packed (`_Packing`), num scaled to integer coefficients
    and den to primitive ones, so that by Gauss's lemma an exact quotient
    has integer coefficients, and `_divide` runs on them.  A one-term den
    takes the same path: packed it is a unit monomial, which divides every
    num exactly.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    nr, dr = _exponent_ranges(num), _exponent_ranges(den)
    box = {}
    for b in nr.keys() | dr.keys():
        (nlo, nhi), (dlo, dhi) = nr.get(b, (0, 0)), dr.get(b, (0, 0))
        if nlo - dlo > nhi - dhi:
            return None
        box[b] = (nlo - dlo, nhi - dhi)
    pk = _Packing((num, den), 4)
    lo = [box[b][0] * d for b, d in zip(pk.bases, pk.scales)]
    hi = [box[b][1] * d for b, d in zip(pk.bases, pk.scales)]

    def inside(t):
        return all(l <= e <= h for l, e, h in zip(lo, pk.exponents(t), hi))

    sn, sd = _denominator_lcm(num.values()), _denominator_lcm(den.values())
    dint = pk.to_ints(den, sd)
    g = math.gcd(*dint.values())
    quot = _divide(pk.to_ints(num, sn), {m: c // g for m, c in dint.items()},
                   inside)
    return None if quot is None else pk.from_ints(quot, Fraction(sd, sn * g))


# -- exact elimination -------------------------------------------------------

def _cleared(polys) -> list:
    """The dicts of `_to_poly` in `polys`, each times every opaque
    denominator that they hold, as `simplify` reads them back.  The ring of
    `_to_poly` takes an opaque (1 + q)^(-1) as independent of 1 + q, so a
    nonzero dict can still be 0 and a quotient can exist only outside the
    ring; read back with its denominators multiplied out, a dict is a
    polynomial in which emptiness and one exact division decide both."""
    den: dict = {}
    for x in polys:
        for mono in x:
            for b, e in mono:
                if e < 0 and isinstance(b, Sum):
                    den[b] = max(den.get(b, 0), -e)
    d = {_sorted_mono(den.items()): _ONE}
    return [_read_back(_cancelled(_read_back(_poly_mul(x, d)), frozenset()))
            for x in polys]


def _nonzero(x: dict) -> bool:
    return bool(x) and bool(_cleared([x])[0])


def _mul_sub(p: dict, x: dict, a: dict, y: dict) -> dict:
    """p x - a y for packed int-coefficient dicts."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in x.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    for m1, c1 in a.items():
        for m2, c2 in y.items():
            m = m1 + m2
            out[m] = out.get(m, 0) - c1 * c2
    return {m: c for m, c in out.items() if c}


def _step(mat, r: int, c: int, cols, prev: dict):
    """One Bareiss step at the pivot in row r, column c: every other row
    becomes (p a_ij - a_ic a_rj) / prev in each column j of `cols`, with
    p = a_rc and prev the pivot of the step before.  An entry that is 0
    stays 0 where a_ic a_rj is 0."""
    pivot = mat[r]
    p = pivot[c]
    for i, row in enumerate(mat):
        if i == r:
            continue
        a = row[c]
        for j in cols:
            if row[j] or (a and pivot[j]):
                row[j] = _divide(_mul_sub(p, row[j], a, pivot[j]), prev)
                if row[j] is None:
                    raise ArithmeticError("fraction-free step is not exact")


def _eliminate(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of `rows`, lists
    of Laurent-polynomial dicts of `_to_poly`, which it leaves unchanged.
    Returns (pivot columns, p, sign of the row permutation, free, right):
    p is the last pivot, free[r] maps each free column to pivot row r's
    entry (the null basis), and right is the carried block after a
    full-rank elimination of a square left block (the inverse), else None;
    an entry of right that simplifies to 0 may still be a nonzero dict.

    Pivots are sought in the first `ncols` columns in column order, the first
    entry at or below the next pivot row that is not 0 winning; later
    columns are carried along.  Step k updates every other row as
    (p_k a_ij - a_ik a_kj) / p_(k-1), a division that is always exact.  The
    first pass updates only the first `ncols` columns: each later one and
    each free column met so far.  Only when the left block is square and
    each of its columns has a pivot does a second pass replay the steps over
    the carried columns, step k with the pivot row k, its pivot p_k, p_(k-1)
    and each row's column k, which step k read and no later step changed,
    as the multiplier; row swaps commute with the steps that follow them,
    so the replay gives the same dicts.  The cost is O(n^3) polynomial
    operations, and a singular form skips its carried columns.

    The loop runs on integers.  On entry each row is scaled by the lcm of
    its coefficient denominators, a scale that moves with the row, and each
    monomial is packed (`_Packing`).  p and every entry of a pivot row are
    then minors of the scaled rows: S times those of `rows`, S the product
    of the pivot rows' scales, which what is returned divides out.  When
    each base round-trips at exponent 1 (`_round_trips`; no sum does), a
    nonzero dict is a nonzero element, so a candidate pivot is 0 only when
    its dict is empty, and it is not unpacked and read back; otherwise,
    since an opaque sum denominator, root or power base can make a nonzero
    dict 0, it is 0 when its cleared dict is empty (`_nonzero`)."""
    pk = _Packing([x for row in rows for x in row], 4 * len(rows))
    exact = all(_round_trips(b, 1) for b in pk.bases)
    scales = [_denominator_lcm(c for x in row for c in x.values()) for row in rows]
    mat = [[pk.to_ints(x, s) for x in row] for row, s in zip(rows, scales)]
    pivots: list = []
    free: list = []
    sign = 1
    prev = {0: 1}
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][c] and (
            exact or _nonzero(pk.from_ints(mat[i][c], _ONE)))), None)
        if sel is None:
            free.append(c)
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
            scales[r], scales[sel] = scales[sel], scales[r]
            sign = -sign
        _step(mat, r, c, free + list(range(c + 1, ncols)), prev)
        pivots.append(c)
        prev = mat[r][c]
    rank = len(pivots)
    factor = Fraction(1, math.prod(scales[:rank]))
    right = None
    if mat and rank == ncols == len(mat):
        carried = range(ncols, len(mat[0]))
        before = {0: 1}
        for k in range(rank):  # pivot k sits in column k
            _step(mat, k, k, carried, before)
            before = mat[k][k]
        right = [[pk.from_ints(row[j], factor) for j in carried] for row in mat]
    return (pivots, pk.from_ints(prev, factor), sign,
            [{c: pk.from_ints(row[c], factor) for c in free} for row in mat[:rank]],
            right)


def _cancel_denominators(p: dict, positive: frozenset) -> dict:
    # group monomials by their multi-term-sum denominator signature and try
    # to divide the numerator group by each denominator polynomial.  A
    # quotient whose signature another group holds merges with it after the
    # pass, and only such merged groups are tried again: the sum may divide
    # where neither part did.
    groups: dict = {}
    for mono, c in p.items():
        denom = tuple((b, e) for b, e in mono if e < 0 and isinstance(b, Sum))
        rest = tuple((b, e) for b, e in mono if not (e < 0 and isinstance(b, Sum)))
        groups.setdefault(denom, {})[rest] = c
    done: dict = {}
    todo = groups
    while todo:
        landed: dict = {}
        for denom, numer in todo.items():
            denom = list(denom)
            changed = True
            while changed and denom:
                changed = False
                for i, (base, e) in enumerate(denom):
                    q = _poly_div(numer, _to_poly(base, positive))
                    if q is not None:
                        numer = q
                        if e + 1 == 0:
                            denom.pop(i)
                        else:
                            denom[i] = (base, e + 1)
                        changed = True
                        break
            landed.setdefault(tuple(denom), []).append(numer)
        todo = {}
        for denom, numers in landed.items():
            if denom in done:
                numers.append(done.pop(denom))
            numer = functools.reduce(_poly_add, numers)
            if len(numers) == 1:
                done[denom] = numer
            elif numer:  # a zero numerator would divide forever
                todo[denom] = numer
    out: dict = {}
    for denom, numer in done.items():
        for mono, c in numer.items():
            _accumulate(out, _mono_mul(mono, denom), c)
    return out


def simplify(e: Expr, positive: Iterable[str] = ()) -> Expr:
    """Canonical form: an ordered sum of coefficient-times-power products.

    `positive` lists names that may be assumed strictly positive, which
    licenses collapsing nested rational powers such as (q^2)^(1/2) -> q.
    """
    pos = frozenset(positive)
    return _rebuild(_cancelled(_to_poly(e, pos), pos))


def _cancelled(p: dict, positive: frozenset) -> dict:
    """p with its power, product and sum bases folded (`_fold`) and each
    multi-term denominator cancelled where it divides: the dict `simplify`
    rebuilds its canonical tree from.  Constants fold later, in
    `_rebuild`, as the division needs (see the notes above)."""
    fold = cancel = False
    for mono in p:
        for b, e in mono:
            if isinstance(b, _COMPOUND):
                if _folds(b, e):
                    fold = True
                elif e < 0 and isinstance(b, Sum):
                    cancel = True
    if fold:
        return _cancelled(_fold(p, _COMPOUND), positive)
    return _cancel_denominators(p, positive) if cancel else p


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


def _check_gamma(g: GammaFactor, name: str):
    """Raise NonDifferentiable when the argument of g holds `name`."""
    if name in free_names(g.arg):
        raise NonDifferentiable(
            f"gamma factor depends on '{name}'; it is kept opaque")


def _diff_poly(p: dict, name: str, positive: frozenset, parts: dict) -> dict:
    """The derivative of p: each factor b^k of a monomial c*m gives
    c*k*b^(k-1)*db times the rest of m, where db of a compound base is the
    derivative of its own dict (the kept one, or else its conversion
    under `positive`) and a constant base gives none.  `parts` holds the
    derivative of each compound base met so far."""
    out: dict = {}
    for mono, c in p.items():
        for i, (b, k) in enumerate(mono):
            if isinstance(b, Variable):
                if b.name != name:
                    continue
                db = {(): _ONE}
            elif isinstance(b, _COMPOUND):
                db = parts.get(b)
                if db is None:
                    db = parts[b] = _diff_poly(_to_poly(b, positive), name,
                                               positive, parts)
            else:  # a constant, a symbolic constant or a Gamma factor
                if isinstance(b, GammaFactor):
                    _check_gamma(b, name)
                continue
            lowered = ((b, k - 1),) if k != 1 else ()
            rest = mono[:i] + lowered + mono[i + 1:]
            ck = c * k
            for m, d in db.items():
                _accumulate(out, _mono_mul(rest, m), ck * d)
    return out


def diff(e: Expr, name: str, positive: Iterable[str] = ()) -> Expr:
    """The canonical derivative of e by the variable `name`: the product
    rule on the dict of e (`_diff_poly`), cancelled and rebuilt as in
    `simplify`, so it equals the derivative of `simplify(e, positive)`
    and raises what that raises.  A Gamma factor whose argument holds
    `name` raises NonDifferentiable."""
    pos = frozenset(positive)
    return _rebuild(_cancelled(_diff_poly(_to_poly(e, pos), name, pos, {}), pos))


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
                raise NegativeBaseRoot(
                    f"negative base {base!r} under fractional exponent {r}")
            if base == 0 and r < 0:
                raise ZeroToNegativePower("zero base under negative exponent")
            return base ** float(r)
        if isinstance(n, GammaFactor):
            from .frac import gamma
            return gamma(ev(n.arg))
        raise TypeError(f"unknown node {n!r}")

    return ev(e)


def compile_expr(exprs: Iterable[Expr], order: Iterable[str],
                 binding: Binding | None = None) -> Callable:
    """Compile expressions into one function of a state laid out as `order`.

    The result F takes a sequence y of len(order) numbers and returns the
    tuple of the expressions' values.  Its Python source is generated from
    the trees once and compiled (the idea behind SymPy's lambdify), so an
    evaluation is one call with no per-node dispatch.  Names not in `order`
    must be satisfied by `binding` (or be gamma_ec) and are compiled in as
    constants; an unbound name raises UnboundSymbol here, not at call time.
    A base that depends on no state variable and is negative under a
    fractional exponent raises ExprError here: F would return a complex
    number.

    Sums are emitted as (0 + a + ...) and products as (1.0 * a * ...), the
    starting values and order of evaluate(), so F agrees with evaluate bit
    for bit, signed zeros included.  A subtree that reads the state or
    calls Gamma and occurs more than once among the expressions (such as a
    power y_j ** 3.0 that several gradient components share) is computed
    once, at its first occurrence, and read back after that; the values
    are evaluated in order, so the float operations and the first error
    are those of evaluate.  The arithmetic is that of y's
    elements: Python float ** raises OverflowError or ZeroToNegativePower
    and turns complex for a negative state-dependent base under a
    fractional exponent, where numpy float64 elements give inf or nan.
    """
    order = tuple(order)
    values = "".join(v + ", " for v in _emit_values(exprs, order, binding))
    slots = ", ".join("y%d" % i for i in range(len(order)))
    unpack = "    %s, = y\n" % slots if order else ""
    # ** is the only operation in F that divides
    source = ("def F(y):\n%s    try:\n        return (%s)\n"
              "    except ZeroDivisionError:\n        raise _Zero("
              "'zero base under negative exponent') from None\n")
    return _define(source % (unpack, values), "F", _Zero=ZeroToNegativePower)


def _emit_values(exprs: Iterable[Expr], order: Iterable[str],
                 binding: Binding | None = None) -> list:
    """The Python source of each expression's value, the names in `order`
    read from the slots y0, y1, ...: compile_expr's emitter, with its rules
    and its errors.

    A compound subtree that reads a slot or calls _gamma and occurs more
    than once in the list is computed once: its first occurrence is
    written `(_cK := ...)` and every later one `_cK`.  Subtrees are keyed
    on the nodes themselves, and a repeat is not walked again, so what a
    shared subtree holds is counted once.  Python evaluates left to right,
    so a value stays the same float operations with the same first
    exception, as long as the caller evaluates the values in list order,
    and all of them each time, as compile_expr and the step loops do."""
    from .frac import FracError

    names = {name: "y%d" % i for i, name in enumerate(order)}
    b = dict(binding or {})
    counts: dict = {}
    slots: dict = {}

    def count(n) -> bool:
        """Count n's compound subtrees that read a slot or call _gamma,
        and say whether n itself does."""
        if isinstance(n, (Variable, SymbolicConstant)):
            return n.name in names
        if isinstance(n, Constant):
            return False
        if n in counts:
            counts[n] += 1
            return True
        live = isinstance(n, GammaFactor)
        for k in (n.terms if isinstance(n, Sum) else
                  n.factors if isinstance(n, Product) else
                  (n.base,) if isinstance(n, Power) else
                  (n.arg,) if live else ()):
            live = count(k) or live
        if live:
            counts[n] = 1
        return live

    def num(v: float) -> str:
        return "(%s)" % (repr(v) if math.isfinite(v) else "float('%r')" % v)

    def emit(n) -> str:
        if isinstance(n, Constant):
            return num(float(n.value))
        if isinstance(n, (Variable, SymbolicConstant)):
            if n.name in names:
                return names[n.name]
            if n.name in b:
                return num(float(b[n.name]))
            if n.name == RESERVED_EULER:
                return num(EULER_GAMMA)
            raise UnboundSymbol(n.name)
        slot = slots.get(n)
        if slot is not None:
            return slot
        text = compound(n)
        if counts.get(n, 0) > 1:
            slot = slots[n] = "_c%d" % len(slots)
            return "(%s := %s)" % (slot, text)
        return text

    def compound(n) -> str:
        if isinstance(n, Sum):
            return "(%s)" % " + ".join(["0"] + [emit(t) for t in n.terms])
        if isinstance(n, Product):
            return "(%s)" % " * ".join(["1.0"] + [emit(f) for f in n.factors])
        if isinstance(n, Power):
            base = emit(n.base)
            if (n.exponent.denominator != 1
                    and names.keys().isdisjoint(free_names(n.base))):
                try:
                    evaluate(n, b)
                except ValueError as exc:  # a negative base: complex power
                    raise ExprError("cannot compile %s: %s"
                                    % (to_text(n), exc)) from None
                except (ArithmeticError, FracError):
                    pass  # raised by F itself, as by evaluate
            return "(%s ** %s)" % (base, num(float(n.exponent)))
        if isinstance(n, GammaFactor):
            return "_gamma(%s)" % emit(n.arg)
        raise TypeError(f"unknown node {n!r}")

    exprs = list(exprs)
    for e in exprs:
        count(e)
    return [emit(e) for e in exprs]


def _define(source: str, name: str, **names) -> Callable:
    """The function `name` defined by generated source that sees _gamma and
    `names` as globals."""
    from .frac import gamma

    namespace = {"_gamma": gamma, **names}
    exec(compile(source, "<compile_expr>", "exec"), namespace)
    # taken out of its own globals, so that no reference cycle keeps it (and
    # its code) alive until the cyclic collector runs
    return namespace.pop(name)


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
    if isinstance(b, Constant):
        v = b.value
        if v >= 0 and v.denominator == 1:
            return str(v.numerator)
        return f"({_frac_text(v)})"
    if isinstance(b, Power):
        return f"({to_text(b)})"
    return _opaque_text(b)


def _opaque_text(b: Expr) -> str:
    """The text of a Gamma factor, or of a sum, product or power as the
    base of a factor, parenthesised; kept on the node after the first
    call."""
    try:
        return b._text
    except AttributeError:
        pass
    if isinstance(b, GammaFactor):
        text = f"Gamma({to_text(b.arg)})"
    elif isinstance(b, Power):
        # nested irreducible power kept opaque, e.g. (q^2)^(1/2)
        text = f"({_atom_text(b.base)}^{_exp_text(b.exponent)})"
    elif isinstance(b, (Sum, Product)):
        text = f"({to_text(b)})"
    else:
        raise TypeError(f"unknown node {b!r}")
    object.__setattr__(b, "_text", text)
    return text


def _factor_text(b: Expr, e: Fraction) -> str:
    base = _opaque_text(b) if isinstance(b, Power) else _atom_text(b)
    return base if e == 1 else f"{base}^{_exp_text(e)}"


def _term_text(t: Expr) -> tuple:
    """(sign, unsigned text) of one canonical term."""
    coeff = _ONE
    factors = []
    if isinstance(t, Product):
        parts = list(t.factors)
    else:
        parts = [t]
    for p in parts:
        if isinstance(p, Constant):
            coeff = p.value if coeff is _ONE else coeff * p.value
        elif isinstance(p, Power):
            factors.append((p.base, p.exponent))
        else:
            factors.append((p, _ONE))
    sign = -1 if coeff < 0 else 1
    coeff = abs(coeff)
    texts = [_factor_text(b, e) for b, e in factors]
    if not texts:
        return sign, _frac_text(coeff)
    if coeff != 1:
        texts.insert(0, _frac_text(coeff))
    return sign, "*".join(texts)


def _joined(terms) -> str:
    """The text of a sum from the (sign, unsigned text) of each term."""
    parts = []
    for i, (sign, txt) in enumerate(terms):
        if i == 0:
            parts.append(("-" if sign < 0 else "") + txt)
        else:
            parts.append(("- " if sign < 0 else "+ ") + txt)
    return " ".join(parts)


def _terms(e: Expr) -> tuple:
    """The terms of a canonical tree, as `to_text` renders them."""
    return e.terms if isinstance(e, Sum) else (e,)


def to_text(e: Expr) -> str:
    """Deterministic infix rendering; round-trips through parse_expression."""
    return _joined(_term_text(t) for t in _terms(e))


def _text_pair(e: Expr) -> tuple:
    """The texts of a canonical tree and of its negation, which are its
    terms with their signs flipped; 0 stays 0."""
    terms = [_term_text(t) for t in _terms(e)]
    return _joined(terms), "0" if e == ZERO else _joined((-s, t) for s, t in terms)


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
            rest = text[pos:].lstrip()
            if rest:
                at = len(text) - len(rest)
                raise ParseError(f"unexpected character {text[at]!r}", at)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
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
