"""Numerical integration of fractional equations of motion.

Solves initial value problems D^alpha eta = F(eta) on a uniform grid, with
two schemes:

* a history-weighted difference scheme whose weights come from the standard
  binomial recurrence, and
* a predictor-corrector (Adams type) scheme with one corrector pass per step.

At alpha = 1 both dispatch to literal classical loops (explicit Euler and
Heun respectively), so the classical limit is reproduced exactly rather
than through cancellation in the fractional weights.

Cost model.  Every run steps through one generated Python function that
holds a block's whole step loop with the right-hand side written out
inline (from the emitter of expr.compile_expr, which computes each
subtree the right-hand sides share once; twice in a Heun or
predictor-corrector step): the state lives in locals, so a step is O(d)
float operations and finiteness checks with no right-hand-side call, and a
block's states are collected in one flat list that one np.fromiter turns
into the block's rows of the state array.  At
alpha = 1 that is the whole Euler or Heun step, ROW_BLOCK steps per block.
A fractional step adds one contiguous-slice dot per weight family and
writes the row that the next step's dot reads: its increment over the
initial state (the difference scheme) or its rate (the predictor-corrector).
Every weight family (the binomial weights, the predictor's k^alpha
differences, the corrector's product-integration weights from
frac.product_weights) is built once per run, with min(N, window) entries,
and read as a lag kernel.  The history sums are blocked (Hairer, Lubich &
Schlichte): the run is split in halves down to blocks of at most BASE
steps, each step takes the sum over its own block as one dot, and what a
finished half gives the half after it is added in by one FFT product
(frac.lag_sums).  A run of N steps so costs O(N * BASE) in the dots plus
O(N log^2 N) in the FFTs, windowed or not, and a run of at most BASE steps
takes no FFT at all.

Every loop gives the float64 results bit for bit, up to the rounding of
the FFT sums: where Python float arithmetic departs from float64 (an
overflowing or zero-base power raises, a negative base under a fractional
power turns complex), that step is redone on float64, and the run stops
with Overflow at the first step whose state is not finite.

Initial data are plain state values at t = 0: the underlying derivative
annihilates constants, so no fractional initial conditions are needed.
"""

from __future__ import annotations

import functools
import hashlib
import math
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
        tuple of the rates D^alpha variables[i].  The step loops write the
        right-hand side inline; the predictor-corrector calls F once, for
        the rate at the initial state."""
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
# and, on the complex result of a negative base under a fractional exponent,
# by math.isfinite and by numpy writing it into a float row.  The step is
# redone on float64.
_NOT_FLOAT64 = (OverflowError, ZeroDivisionError, TypeError)


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
    [a, n), one contiguous-slice dot of wr with x (_near).  In the first
    block acc[n] is the initial state itself, so a run of at most BASE
    steps does the direct sum's arithmetic.
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


# -- the generated step loops ------------------------------------------------

# The rows an alpha = 1 run steps per call of its loop, collected before one
# conversion writes them into the state array: enough to spread the
# conversion's fixed cost thin, few enough that their list stays small
# (about 33 KB at d = 4).
ROW_BLOCK = 256


def _slots(prefix: str, d: int) -> str:
    """`prefix0, prefix1, ..., ` for d slots: an unpacking target, or the
    items of a tuple."""
    return "".join("%s%d, " % (prefix, i) for i in range(d))


def _finite(d: int) -> list:
    """Source that ends the step loop unless the state y0, y1, ... is
    finite."""
    return ["if not (%s):" % " and ".join(
                "_isfinite(y%d)" % i for i in range(d)),
            "    break"]


def _near(hist: _History, wr: str, x: str, out: str, d: int) -> list:
    """Source of hist's sum at step n over the rows of its own block (from
    row a, within the window) into out0, out1, ...: one contiguous-slice
    dot of the reversed weights, the global wr, with the rows of the
    global x."""
    return ["lo = max(a, %d, n - %d)" % (hist.first, hist.m),
            "%s= %s[%d - n + lo:].dot(%s[lo:n]).tolist()"
            % (_slots(out, d), wr, hist.m, x)]


def _loop(d: int, head: list, target: str, body: list, **names):
    """One leaf block's step loop as a generated function.

    run(y, rows, a, first, stop) steps rows first .. stop - 1 of y in the
    block that starts at row a.  `head` reads the numpy rows the steps
    start from through rows: np.ndarray.tolist gives Python floats, list
    gives float64 scalars, and the arithmetic is theirs.  `for target:`
    walks the steps, and `body` makes one, with the state in the locals
    y0, y1, ... and `names` as globals.  The states go into one flat list,
    which np.fromiter converts and writes into y once, at the end of the
    block or at the step that stops it.  run returns the first step it did
    not write: stop, or a step whose arithmetic raised one of _NOT_FLOAT64
    or whose state is not finite.
    """
    convert = "_fromiter(out, float, len(out)).reshape(-1, %d)" % d
    source = "\n".join([
        "def run(y, rows, a, first, stop):",
        *("    " + line for line in head),
        "    out = []",
        "    try:",
        "        for %s:" % target,
        *("            " + line for line in body),
        "            out += (%s)" % _slots("y", d),
        "        else:",
        "            y[first:stop] = %s" % convert,
        "            return stop",
        "    except _NOT_FLOAT64:",
        "        pass",
        "    if out:",
        "        y[first:n] = %s" % convert,
        "    return n",
        ""])
    return _define(source, "run", _isfinite=math.isfinite,
                   _NOT_FLOAT64=_NOT_FLOAT64, _fromiter=np.fromiter, **names)


def _drive(run, y, a: int, b: int):
    """Step the leaf block [a, b) of y, rows max(a, 1) .. b - 1, by run
    (_loop) on Python floats.

    A step where they depart from float64 is redone by the same loop on
    float64 scalars, so every row is float64's bit for bit.  Overflow at
    the first row that is not finite.
    """
    n = max(a, 1)
    while n < b:
        n = run(y, np.ndarray.tolist, a, n, b)
        if n < b:
            if run(y, list, a, n, n + 1) == n:
                raise Overflow("non-finite state at step %d" % n)
            n += 1


# Each builder below takes the problem, the source of its right-hand side
# reading y0, y1, ... (values), the state array y with the initial state in
# row 0, and the memory window.  It sets up y and the run's weights and
# returns the generated loop with the histories _nested spills.

def _classical_loop(p: FractionalIVP, values: list, y, window):
    """The alpha = 1 loop: explicit Euler for the difference scheme, Heun
    for the predictor-corrector."""
    d = p.dimension
    h = float(p.step)
    body = ["r%d = %s" % (i, v) for i, v in enumerate(values)]
    if p.scheme == GRUNWALD_LETNIKOV:
        body += ["y%d = y%d + %r * r%d" % (i, i, h, i) for i in range(d)]
    else:
        # z keeps the state while y holds the guess the second rhs reads
        body += ["z%d = y%d" % (i, i) for i in range(d)]
        body += ["y%d = z%d + %r * r%d" % (i, i, h, i) for i in range(d)]
        body += ["s%d = %s" % (i, v) for i, v in enumerate(values)]
        body += ["y%d = z%d + %r * (r%d + s%d)" % (i, i, 0.5 * h, i, i)
                 for i in range(d)]
    head = ["%s= rows(y[first - 1])" % _slots("y", d)]
    return _loop(d, head, "n in range(first, stop)", body + _finite(d)), ()


def _gl_loop(p: FractionalIVP, values: list, y, window):
    """y_n = y_0 + h^a F(y_{n-1}) - sum_j w_j (y_{n-j} - y_0), j = 1..n-lo;
    the rows of y not yet stepped hold y_0 minus their far sums."""
    d = p.dimension
    y[1:] = y[0]
    dy = np.zeros_like(y)
    hist = _History(_gl_weights(p.alpha, min(len(y) - 1, window)), dy, y,
                    -1.0)
    ha = float(p.step ** p.alpha)
    body = ["r%d = %s" % (i, v) for i, v in enumerate(values)]
    body += _near(hist, "_wr", "_dy", "s", d)
    body += ["y%d = c%d + %r * r%d - s%d" % (i, i, ha, i, i)
             for i in range(d)]
    body += _finite(d)
    body += ["_dy[n] = (%s)" % "".join(
        "y%d - (%r), " % (i, v) for i, v in enumerate(y[0].tolist()))]
    head = ["%s= rows(y[first - 1])" % _slots("y", d),
            "acc = rows(y[first:stop])"]
    target = "n, (%s) in zip(range(first, stop), acc)" % _slots("c", d)
    return _loop(d, head, target, body, _wr=hist.wr, _dy=dy), (hist,)


def _pece_loop(p: FractionalIVP, values: list, y, window):
    """The predictor's guess p + pre_p * (its sums), the corrected state
    k + pre_c * (the corrector's sums + F(guess)), and the rate F at the
    corrected state, which the later steps' sums read."""
    d = p.dimension
    alpha, h = p.alpha, p.step
    m = min(len(y) - 1, window)
    pre_p = float(h ** alpha / gamma(alpha + 1.0))
    pre_c = float(h ** alpha / gamma(alpha + 2.0))
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
    F, = p.compiled_rhs()
    rates[0] = F(y[0])
    body = _near(pred, "_wrp", "_rates", "u", d)
    body += _near(corr, "_wrc", "_rates", "v", d)
    body += ["if n <= %d:" % window,
             "    %s= anchor[n - first]" % _slots("e", d)]
    body += ["    v%d = e%d + v%d" % (i, i, i) for i in range(d)]
    body += ["y%d = p%d + %r * u%d" % (i, i, pre_p, i) for i in range(d)]
    body += _finite(d)
    body += ["r%d = %s" % (i, v) for i, v in enumerate(values)]
    body += ["y%d = k%d + %r * (v%d + r%d)" % (i, i, pre_c, i, i)
             for i in range(d)]
    body += _finite(d)
    body += ["s%d = %s" % (i, v) for i, v in enumerate(values)]
    body += ["_rates[n] = (%s)" % _slots("s", d)]
    head = ["accp = rows(y[first:stop])",
            "accc = rows(_accc[first:stop])",
            "anchor = _outer(_a0[first:stop], _rates[0]).tolist()"]
    target = "n, (%s), (%s) in zip(range(first, stop), accp, accc)" % (
        _slots("p", d), _slots("k", d))
    run = _loop(d, head, target, body, _wrp=pred.wr, _wrc=corr.wr,
                _rates=rates, _accc=corr.acc, _a0=a0, _outer=np.outer)
    return run, (pred, corr)


def integrate(p: FractionalIVP, memory_window: int | None = None) -> Trajectory:
    """Integrate the problem over its grid and return the Trajectory.

    memory_window, when given, truncates the fractional history sums to the
    most recent `memory_window` steps (the short-memory principle), which
    trades accuracy for smaller FFT blocks; a window at least as long as
    the run changes nothing.  With no window, runs longer than
    MEMORY_BUDGET steps are refused.  Every scheme steps through one
    generated loop with the right-hand side written inline, so no step
    makes a call of its own.  In a fractional run the history weights are
    built once; a step adds one dot per weight family over its own block of
    at most BASE steps, and the older history comes in by FFT,
    O(N log^2 N) over the run.
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
    # every loop inlines this source, so an expression that cannot compile
    # is refused before the initial state is checked
    values = _emit_values(p.rhs, p.variables, p.constants)
    y = np.zeros((steps + 1, p.dimension))
    y[0] = p.initial
    if not np.isfinite(y[0]).all():
        raise Overflow("non-finite state at step 0")
    build = (_classical_loop if p.alpha == 1.0
             else _gl_loop if p.scheme == GRUNWALD_LETNIKOV else _pece_loop)
    # overflow in the arithmetic itself surfaces as the Overflow error at the
    # finiteness check, so the intermediate numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        run, histories = build(p, values, y, window)
        base = functools.partial(_drive, run, y)
        if histories:
            _nested(0, len(y), base, histories)
        else:  # no history to spill: plain blocks of rows
            for a in range(0, len(y), ROW_BLOCK):
                base(a, min(a + ROW_BLOCK, len(y)))
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
