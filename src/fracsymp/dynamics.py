"""Numerical integration of fractional equations of motion.

Solves initial value problems D^alpha eta = F(eta) on a uniform grid, with
two schemes:

* a history-weighted difference scheme whose weights come from the standard
  binomial recurrence, and
* a predictor-corrector (Adams type) scheme with one corrector pass per step.

At alpha = 1 both dispatch to literal classical loops (explicit Euler and
Heun respectively), so the classical limit is reproduced exactly rather
than through cancellation in the fractional weights.

Cost model.  An alpha = 1 run is one generated Python function holding the
whole Euler or Heun loop with the right-hand side written out inline
(from the emitter of expr.compile_expr): the state lives in locals, so a
step is O(d) float operations and d finiteness checks, with no
right-hand-side call, list or numpy work, and the rows go into the state
array ROW_BLOCK at a time.  In
the fractional schemes the right-hand side is one generated function of
the state (expr.compile_expr), so an evaluation is one call returning a
tuple; every step works on lists of Python floats and writes its row into
the state array as it is produced.  Every weight family (the binomial weights, the
predictor's k^alpha differences, the corrector's product-integration
weights from frac.product_weights) is built once per run, with
min(N, window) entries, and read as a lag kernel.  The history sums are
blocked (Hairer, Lubich & Schlichte): the run is split in halves down to
blocks of at most BASE steps, each step takes the sum over its own block
as one contiguous-slice dot, and what a finished half gives the half after
it is added in by one FFT product (frac.lag_sums).  A run of N steps so
costs O(N * BASE) in the dots plus O(N log^2 N) in the FFTs, windowed or
not, and a run of at most BASE steps takes no FFT at all.

Every loop gives the float64 results bit for bit, up to the rounding of
the FFT sums: where Python float arithmetic departs from float64 (an
overflowing or zero-base power raises, a negative base under a fractional
power turns complex), that step is redone on float64, and the run stops with Overflow at the first step whose state is
not finite.

Initial data are plain state values at t = 0: the underlying derivative
annihilates constants, so no fractional initial conditions are needed.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .expr import (FracsympError, _define, _emit_values, compile_expr,
                   parse_expression, to_text)
from .frac import FracOrder, gamma, lag_sums, product_weights
# format_rows is called through its module: bench/tracing.py wraps the names
# one module imports from another, and CSV text belongs to the to_csv span
from . import serialize
from .serialize import render_json

GRUNWALD_LETNIKOV = "grunwald-letnikov"
PREDICTOR_CORRECTOR = "predictor-corrector"
SCHEMES = (GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR)

SINGLE_ORDER = "single-order"
SEQUENTIAL_ALPHA_ALPHA = "sequential-alpha-alpha"
COMPOSITIONS = (SINGLE_ORDER, SEQUENTIAL_ALPHA_ALPHA)

# The largest N accepted without an explicit memory window.  It was set
# when full-history sums cost O(N^2) and is kept until a change of its own
# measures a larger one.
MEMORY_BUDGET = 150_000


class DynamicsError(FracsympError):
    pass


class Overflow(DynamicsError):
    """A state sample became non-finite during integration."""


class MemoryBudgetExceeded(DynamicsError):
    """Fractional run longer than MEMORY_BUDGET steps without a window."""


class InsufficientPeriods(DynamicsError):
    """Trajectory does not cover enough rotation for a frequency fit."""


@dataclass(frozen=True)
class FractionalIVP:
    """A first-order-in-D^alpha initial value problem.

    variables and rhs are aligned: D^alpha variables[i] = rhs[i].  Names
    appearing in rhs but not in variables must be supplied via constants.
    composition marks whether the system is a genuine single-order one or
    the doubled first-order reduction of a sequentially composed
    second-order equation; the integrator treats both identically, the tag
    is validation plus provenance for the trajectory metadata.
    """

    variables: tuple
    rhs: tuple
    alpha: float
    initial: tuple
    horizon: float
    step: float
    scheme: str = GRUNWALD_LETNIKOV
    composition: str = SINGLE_ORDER
    constants: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if len(self.variables) != len(self.rhs):
            raise DynamicsError("one right-hand side per variable required")
        if len(self.initial) != len(self.variables):
            raise DynamicsError("initial state length does not match variables")
        if not self.variables:
            raise DynamicsError("empty system")
        FracOrder(float(self.alpha))
        if self.step <= 0:
            raise DynamicsError("step must be positive")
        if not (math.isfinite(self.step)
                and math.isfinite(self.horizon / self.step)):
            raise DynamicsError(
                "step, horizon and horizon / step must be finite")
        if self.horizon < self.step:
            raise DynamicsError("horizon must cover at least one step")
        if self.scheme not in SCHEMES:
            raise DynamicsError("unknown scheme %r" % (self.scheme,))
        if self.composition not in COMPOSITIONS:
            raise DynamicsError("unknown composition %r" % (self.composition,))
        if self.composition == SEQUENTIAL_ALPHA_ALPHA and len(self.variables) % 2:
            raise DynamicsError(
                "sequential composition needs the doubled (state, rate) layout")

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def grid(self) -> np.ndarray:
        """The nodes 0, step, ..., N * step, N = horizon / step rounded down.

        A quotient within 4 ulps (or 1e-12) of an integer counts as that
        integer: a horizon that is a whole number of steps in decimal can
        divide to just below it, as 256.14 / 1e-2 gives 25613.999999999996,
        and still gets its last step.
        """
        r = self.horizon / self.step
        n = round(r)
        if abs(r - n) > max(4 * math.ulp(r), 1e-12):
            n = math.floor(r)
        return self.step * np.arange(n + 1)

    def content_hash(self) -> str:
        parts = [",".join(self.variables)]
        parts.extend(to_text(e) for e in self.rhs)
        parts.append("%.17g" % self.alpha)
        parts.extend("%.17g" % v for v in self.initial)
        parts.append("%.17g/%.17g" % (self.horizon, self.step))
        parts.append(self.scheme)
        parts.append(self.composition)
        for k in sorted(self.constants):
            parts.append("%s=%.17g" % (k, float(self.constants[k])))
        return hashlib.sha1("\n".join(parts).encode()).hexdigest()

    def compiled_rhs(self) -> list:
        """[F]: the right-hand side as one generated function, F(state) ->
        tuple of the rates D^alpha variables[i]; the fractional loops step
        with it."""
        return [compile_expr(self.rhs, self.variables, self.constants)]


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid solution samples plus provenance metadata."""

    variables: tuple
    times: np.ndarray
    states: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.states.shape != (len(self.times), len(self.variables)):
            raise DynamicsError("states shape does not match grid and variables")
        if not np.isfinite(self.states).all():
            raise Overflow("trajectory contains non-finite samples")

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.variables.index(name)]

    def terminal(self) -> np.ndarray:
        return self.states[-1].copy()

    def plane(self) -> np.ndarray:
        """The first two state columns as complex plane positions."""
        if len(self.variables) < 2:
            raise DynamicsError("no coordinate plane in a 1-dimensional state")
        return self.states[:, 0] + 1j * self.states[:, 1]

    def to_csv(self, path: str) -> str:
        """Write `t, var1, var2, ...` rows; metadata goes to a JSON sidecar.

        Returns the sidecar path (the CSV path with .json appended).
        """
        path = str(path)
        with open(path, "wb") as fh:
            fh.write(("t," + ",".join(self.variables) + "\n").encode("ascii"))
            # blocks of rows, so format_rows's working arrays stay small
            for lo in range(0, len(self.times), 1024):
                block = np.column_stack((self.times[lo:lo + 1024],
                                         self.states[lo:lo + 1024]))
                fh.write(serialize.format_rows(block))
        sidecar = path + ".json"
        with open(sidecar, "w") as fh:
            fh.write(render_json(self.metadata) + "\n")
        return sidecar


# Raised by Python float arithmetic where float64 gives inf or nan: by `**`,
# and by math.isfinite or float() on the complex result of a negative base
# under a fractional exponent.  The step is redone on float64.
_NOT_FLOAT64 = (OverflowError, ZeroDivisionError, TypeError)


def _checked(row: list, n: int) -> list:
    """row, if every entry is finite; Overflow at step n if not."""
    if not all(map(math.isfinite, row)):
        raise Overflow("non-finite state at step %d" % n)
    return row


def _float_rows(step, F, y, first: int, stop: int):
    """Rows first .. stop - 1 of y, row n being step(cur, n, F) with cur
    row n - 1, all lists of Python floats.

    Where Python float arithmetic departs from float64 the step is redone
    with F evaluated on float64, so every row is float64's bit for bit.
    The steps check their own rows (_checked), so the run stops with
    Overflow at the first row that is not finite.
    """
    cur = y[first - 1].tolist()
    for n in range(first, stop):
        try:
            row = step(cur, n, F)
        except _NOT_FLOAT64:
            row = step(cur, n, lambda v: F(np.array(v)))
        y[n] = cur = row


# The rows a classical run collects before it writes them into the state
# array with one slice assignment: enough to spread the assignment's fixed
# cost thin, few enough that their tuples stay small (about 40 KB at d = 4).
ROW_BLOCK = 256


def _classical_loop(p: FractionalIVP):
    """The alpha = 1 loop of p, explicit Euler for the difference scheme and
    Heun for the predictor-corrector, as one generated function with the
    right-hand side written out inline.

    run(y, cur, first, stop) steps rows first .. stop - 1 of y from the
    state cur of row first - 1, in the arithmetic of cur's elements, and
    returns the first step it did not write: stop, or a step whose
    arithmetic raised one of _NOT_FLOAT64 or whose state is not finite.
    """
    d = p.dimension
    ys = ", ".join("y%d" % i for i in range(d)) + ","
    h = float(p.step)
    hh = 0.5 * h
    body = ["r%d = %s" % (i, v) for i, v in enumerate(
        _emit_values(p.rhs, p.variables, p.constants))]
    if p.scheme == GRUNWALD_LETNIKOV:
        body += ["y%d = y%d + %r * r%d" % (i, i, h, i) for i in range(d)]
    else:
        body += ["g%d = y%d + %r * r%d" % (i, i, h, i) for i in range(d)]
        body += ["s%d = %s" % (i, v) for i, v in enumerate(
            _emit_values(p.rhs, p.variables, p.constants, prefix="g"))]
        body += ["y%d = y%d + %r * (r%d + s%d)" % (i, i, hh, i, i)
                 for i in range(d)]
    body += ["if not (%s):" % " and ".join(
                 "_isfinite(y%d)" % i for i in range(d)),
             "    break",
             "rows.append((%s))" % ys]
    source = "\n".join([
        "def run(y, cur, first, stop):",
        "    %s = cur" % ys,
        "    for lo in range(first, stop, %d):" % ROW_BLOCK,
        "        rows = []",
        "        try:",
        "            for n in range(lo, min(lo + %d, stop)):" % ROW_BLOCK,
        *("                " + line for line in body),
        "            else:",
        "                y[lo:n + 1] = rows",
        "                continue",
        "        except _NOT_FLOAT64:",
        "            pass",
        "        if rows:",
        "            y[lo:n] = rows",
        "        return n",
        "    return stop",
        ""])
    return _define(source, "run", _isfinite=math.isfinite,
                   _NOT_FLOAT64=_NOT_FLOAT64)


def _classical(run, y):
    """Step every row of y past row 0 by run (_classical_loop) on Python
    floats.

    A step where they depart from float64 is redone by the same loop on
    float64 scalars, so every row is float64's bit for bit.  Overflow at
    the first row that is not finite.
    """
    n = 1
    while n < len(y):
        n = run(y, y[n - 1].tolist(), n, len(y))
        if n < len(y):
            if run(y, tuple(y[n - 1]), n, n + 1) == n:
                raise Overflow("non-finite state at step %d" % n)
            n += 1


def _gl_weights(alpha: float, count: int) -> np.ndarray:
    """Weights (-1)^j C(alpha, j) for j = 0..count: the running product of
    the binomial recurrence factors 1 - (alpha + 1) / j."""
    factors = 1.0 - (alpha + 1.0) / np.arange(1, count + 1, dtype=float)
    return np.cumprod(np.concatenate(([1.0], factors)))


# The most steps a block sums over its own rows directly; longer runs are
# split in halves, so runs of at most BASE steps never take an FFT.
BASE = 128


class _History:
    """History sums of one weight family: sum_k g[n - k] x[k] over the rows
    k of x in [first, n), for each step n.

    g[l] is the weight at lag l; it ends at the memory window, so lags past
    the window weigh nothing.  The rows are stepped in nested blocks
    (Hairer, Lubich & Schlichte 1985).  Each row of acc starts at the
    initial state; once rows [a, mid) are known, spill(a, mid, b) adds
    scale times all they give rows [mid, b) into acc by one lag_sums
    product.  A step then needs only the sum over its own block, rows
    [a, n): near(a, n), one contiguous-slice dot.  In the first block
    acc[n] is the initial state itself, so a run of at most BASE steps
    does the direct sum's arithmetic.
    """

    def __init__(self, g: np.ndarray, x: np.ndarray, acc: np.ndarray,
                 scale: float, first: int = 0):
        self.g = g
        self.m = len(g) - 1
        self.wr = g[:0:-1].copy()  # g_m .. g_1, so a block's sum is one slice
        self.x = x
        self.acc = acc
        self.scale = scale
        self.first = first
        self.hats = {}

    def near(self, a: int, n: int) -> list:
        lo = max(a, self.first, n - self.m)
        return self.wr[self.m - n + lo:].dot(self.x[lo:n]).tolist()

    def spill(self, a: int, mid: int, b: int):
        lo = max(a, self.first, mid - self.m)
        hi = min(b, mid + self.m)
        s = lag_sums(self.g, self.x[lo:mid], mid - lo, hi - mid, self.hats)
        s *= self.scale
        self.acc[mid:hi] += s


def _nested(a: int, b: int, base, histories):
    """Step the rows of [a, b) past row 0 by halves: base(a, b) steps a
    block of at most BASE steps, and each first half is spilled into the
    histories before the second half is stepped."""
    if b - max(a, 1) <= BASE:
        base(a, b)
        return
    mid = (a + b) // 2
    _nested(a, mid, base, histories)
    for hist in histories:
        hist.spill(a, mid, b)
    _nested(mid, b, base, histories)


# The steps append in plain loops: on CPython 3.11 a list comprehension is a
# call of its own, and these run once or twice per step.

def _gl_fractional(F, y, h, alpha, window):
    steps = len(y) - 1
    # y_n = y_0 + h^a F(y_{n-1}) - sum_j w_j (y_{n-j} - y_0), j = 1..n-lo;
    # the rows of y not yet stepped hold y_0 minus their far sums
    y[1:] = y[0]
    dy = np.zeros_like(y)
    hist = _History(_gl_weights(alpha, min(steps, window)), dy, y, -1.0)
    ha = h ** alpha
    y0 = y[0].tolist()

    def base(a, b):
        first = max(a, 1)
        acc = hist.acc[first:b].tolist()

        def step(cur, n, F):
            out = []
            for c, r, s in zip(acc[n - first], F(cur), hist.near(a, n)):
                out.append(c + ha * r - s)
            dy[n] = list(map(operator.sub, _checked(out, n), y0))
            return out

        _float_rows(step, F, y, first, b)

    _nested(0, len(y), base, (hist,))


def _pece_fractional(F, y, h, alpha, window):
    steps = len(y) - 1
    m = min(steps, window)
    pre_p = h ** alpha / gamma(alpha + 1.0)
    pre_c = h ** alpha / gamma(alpha + 2.0)
    rates = np.zeros_like(y)
    # predictor k^a - (k-1)^a at lag k; corrector d2 at lag k on rows from
    # 1, the anchor a0[n] on the origin while it is in the window, and 1 on
    # the predicted endpoint
    d2, a0 = product_weights(alpha, m)
    # the rows of y not yet stepped collect the predictor's far sums
    y[1:] = y[0]
    pred = _History(np.diff(np.arange(m + 1, dtype=float) ** alpha,
                            prepend=0.0), rates, y, pre_p)
    corr = _History(np.concatenate(([0.0], d2)), rates, y.copy(), pre_c,
                    first=1)

    # evaluated on float64 rows, since no step redoes it
    rates[0] = F(y[0])

    def base(a, b):
        first = max(a, 1)
        accp = pred.acc[first:b].tolist()
        accc = corr.acc[first:b].tolist()
        anchor = np.outer(a0[first:b], rates[0]).tolist()

        def step(cur, n, F):
            sc = corr.near(a, n)
            if n <= window:
                sc = map(operator.add, anchor[n - first], sc)
            guess = []
            for c, s in zip(accp[n - first], pred.near(a, n)):
                guess.append(c + pre_p * s)
            out = []
            for c, s, r in zip(accc[n - first], sc, F(_checked(guess, n))):
                out.append(c + pre_c * (s + r))
            # float() refuses a complex rate, so the step is redone on float64
            rates[n] = list(map(float, F(_checked(out, n))))
            return out

        _float_rows(step, F, y, first, b)

    _nested(0, len(y), base, (pred, corr))


def integrate(p: FractionalIVP, memory_window: int | None = None) -> Trajectory:
    """Integrate the problem over its grid and return the Trajectory.

    memory_window, when given, truncates the fractional history sums to the
    most recent `memory_window` steps (the short-memory principle), which
    trades accuracy for smaller FFT blocks; a window at least as long as
    the run changes nothing.  With no window,
    runs longer than MEMORY_BUDGET steps are refused.  At alpha = 1 the
    run is one generated loop with no per-step calls.  Otherwise the
    history weights are built once per run; a step costs one call of the
    generated right-hand side (two for the predictor-corrector) plus one
    dot per weight family over its own block of at most BASE steps, and
    the older history comes in by FFT, O(N log^2 N) over the run.
    """
    times = p.grid()
    steps = len(times) - 1
    if memory_window is not None and memory_window < 1:
        raise DynamicsError("memory window must be a positive step count")
    if p.alpha < 1.0 and memory_window is None and steps > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            "%d steps exceed the %d-step full-history budget; pass a "
            "memory_window to accept truncation" % (steps, MEMORY_BUDGET))
    window = memory_window or steps
    if p.alpha == 1.0:
        run = _classical_loop(p)
    else:
        F, = p.compiled_rhs()
    y = np.zeros((steps + 1, p.dimension))
    y[0] = p.initial
    _checked(y[0].tolist(), 0)
    # overflow in the arithmetic itself surfaces as the Overflow error at the
    # finiteness check, so the intermediate numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p.alpha == 1.0:
            _classical(run, y)
        elif p.scheme == GRUNWALD_LETNIKOV:
            _gl_fractional(F, y, p.step, p.alpha, window)
        else:
            _pece_fractional(F, y, p.step, p.alpha, window)
    meta = {
        "variables": list(p.variables),
        "alpha": p.alpha,
        "scheme": p.scheme,
        "composition": p.composition,
        "step": p.step,
        "horizon": p.horizon,
        "memory_window": memory_window,
        "model_hash": p.content_hash(),
    }
    return Trajectory(p.variables, times, y, meta)


def landau_problem(e: float, B: float, m: float, alpha: float,
                   z0: complex, v0: complex, T: float, h: float,
                   composition: str = SINGLE_ORDER,
                   scheme: str | None = None) -> FractionalIVP:
    """Build the planar charged-particle problem as a FractionalIVP.

    The default composition integrates the integer-order approximate form
    of the fractional cyclotron equation: the whole fractional content is
    absorbed into the rescaled angular frequency omega / Gamma(1 + alpha)
    with omega = e B / m, and the system is integrated classically.  The
    sequential composition keeps the equation genuinely fractional: twice
    D^alpha, written as a doubled first-order system in (r1, r2, u1, u2)
    with the bare omega.
    """
    if B == 0:
        raise DynamicsError("B must be nonzero")
    if m <= 0:
        raise DynamicsError("m must be positive")
    FracOrder(float(alpha))
    omega = e * B / m
    if composition == SINGLE_ORDER:
        names, order, default = ("r1", "r2", "w1", "w2"), 1.0, PREDICTOR_CORRECTOR
        consts = {"Omega": omega / gamma(1.0 + alpha)}
    elif composition == SEQUENTIAL_ALPHA_ALPHA:
        names, order, default = ("r1", "r2", "u1", "u2"), float(alpha), GRUNWALD_LETNIKOV
        consts = {"omega": omega}
    else:
        raise DynamicsError("unknown composition %r" % (composition,))
    (w,) = consts
    v1, v2 = names[2:]
    exprs = tuple(parse_expression(t, variables=names, allowed={*names, w})
                  for t in (v1, v2, "-%s*%s" % (w, v2), "%s*%s" % (w, v1)))
    return FractionalIVP(
        names, exprs, order, (z0.real, z0.imag, v0.real, v0.imag), T, h,
        scheme=scheme or default, composition=composition, constants=consts)


def simulate_landau(e: float, B: float, m: float, alpha: float,
                    z0: complex, v0: complex, T: float, h: float,
                    composition: str = SINGLE_ORDER,
                    scheme: str | None = None,
                    memory_window: int | None = None) -> Trajectory:
    """Integrate the planar charged-particle motion; see landau_problem.

    The trajectory metadata records the requested physical alpha alongside
    the order actually handed to the integrator (1 for the approximate
    composition, alpha itself for the sequential one).
    """
    p = landau_problem(e, B, m, alpha, z0, v0, T, h,
                       composition=composition, scheme=scheme)
    t = integrate(p, memory_window=memory_window)
    t.metadata["landau"] = {
        "e": e, "B": B, "m": m,
        "alpha": float(alpha),
        "omega": e * B / m,
        "integration_order": p.alpha,
    }
    return t


def measure_frequency(t: Trajectory) -> float:
    """Angular frequency of the dominant rotation in the coordinate plane.

    Fits the guiding center as the sample centroid, unwraps the phase of
    the centered complex positions, and returns the magnitude of the
    linear-regression slope of phase against time.  Requires at least
    three full turns of accumulated phase.
    """
    z = t.plane()
    center = z.mean()
    phase = np.unwrap(np.angle(z - center))
    sweep = abs(phase[-1] - phase[0])
    if sweep < 3.0 * 2.0 * math.pi:
        raise InsufficientPeriods(
            "phase sweep %.3f rad covers fewer than 3 turns" % sweep)
    slope = np.polyfit(t.times, phase, 1)[0]
    return abs(float(slope))
