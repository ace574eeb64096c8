"""Numerical integration of fractional equations of motion.

Solves initial value problems D^alpha eta = F(eta) on a uniform grid, with
two schemes:

* a history-weighted difference scheme whose weights come from the standard
  binomial recurrence, and
* a predictor-corrector (Adams type) scheme with one corrector pass per step.

At alpha = 1 both dispatch to literal classical loops (explicit Euler and
Heun respectively), so the classical limit is reproduced exactly rather
than through cancellation in the fractional weights.

Cost model.  The right-hand side is one generated Python function of the
state (expr.compile_expr), so an evaluation is one call returning a tuple.
The classical loops step a list of Python floats and write each row into
the state array as it is produced; each step costs one (Euler) or two
(Heun) such calls plus O(d) float operations, with no numpy work.  In the
fractional schemes every weight family (the binomial weights, the
predictor's k^alpha differences, the corrector's product-integration
weights from frac.product_weights) is built once per run, with
min(N, window) entries, and stored reversed.  A step takes one contiguous
slice of each and one BLAS dot against the retained history, so a
full-history run of N steps costs O(N^2) multiply-adds in those dots and a
windowed run O(N * window).

Both kinds of loop give the float64 results bit for bit: where Python
float arithmetic departs from float64 (an overflowing or zero-base power
raises, a negative base under a fractional power turns complex), that
evaluation or step is redone on float64 scalars, and the run stops with
Overflow at the first step whose state is not finite.

Initial data are plain state values at t = 0: the underlying derivative
annihilates constants, so no fractional initial conditions are needed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .expr import compile_expr, parse_expression, to_text
from .frac import FracOrder, gamma, product_weights
from .serialize import render_json

GRUNWALD_LETNIKOV = "grunwald-letnikov"
PREDICTOR_CORRECTOR = "predictor-corrector"
SCHEMES = (GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR)

SINGLE_ORDER = "single-order"
SEQUENTIAL_ALPHA_ALPHA = "sequential-alpha-alpha"
COMPOSITIONS = (SINGLE_ORDER, SEQUENTIAL_ALPHA_ALPHA)

# Full-history fractional sums cost O(N^2); this is the largest N accepted
# without an explicit memory window.
MEMORY_BUDGET = 150_000


class DynamicsError(Exception):
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
        n = int(math.floor(self.horizon / self.step + 1e-12))
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
        tuple of the rates D^alpha variables[i]."""
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
        row = ",".join(["%.17g"] * (len(self.variables) + 1)) + "\n"
        with open(path, "w") as fh:
            fh.write("t," + ",".join(self.variables) + "\n")
            # blocks of rows, so the Python floats and strings stay small
            for lo in range(0, len(self.times), 1024):
                block = np.column_stack((self.times[lo:lo + 1024],
                                         self.states[lo:lo + 1024]))
                fh.writelines([row % tuple(r) for r in block.tolist()])
        sidecar = path + ".json"
        with open(sidecar, "w") as fh:
            fh.write(render_json(self.metadata) + "\n")
        return sidecar


def _check_finite(row: np.ndarray, step_index: int):
    if not np.isfinite(row).all():
        raise Overflow("non-finite state at step %d" % step_index)


# Raised by Python float arithmetic where float64 gives inf or nan: by `**`,
# and by math.isfinite or gamma on the complex result of a negative base
# under a fractional exponent.  The evaluation or step is redone on float64.
_NOT_FLOAT64 = (OverflowError, ZeroDivisionError, TypeError)


def _rate(F, row: np.ndarray) -> np.ndarray:
    """The right-hand side at a float64 state row, as a float64 array."""
    try:
        rate = np.array(F(row.tolist()))
    except _NOT_FLOAT64:
        return np.array(F(row))
    return np.array(F(row)) if rate.dtype.kind == "c" else rate


# The steps append in plain loops: on CPython 3.11 a list comprehension is a
# call of its own, and these run once or twice per step.

def _euler_step(F, cur, h):
    out = []
    for a, r in zip(cur, F(cur)):
        out.append(a + h * r)
    return out


def _heun_step(F, cur, h):
    r0 = F(cur)
    guess = []
    for a, r in zip(cur, r0):
        guess.append(a + h * r)
    hh = 0.5 * h
    out = []
    for a, r, s in zip(cur, r0, F(guess)):
        out.append(a + hh * (r + s))
    return out


def _classical(step, F, y, h):
    """Step a state list of Python floats, writing each row into y."""
    cur = y[0].tolist()
    for n in range(1, len(y)):
        try:
            cur = step(F, cur, h)
            finite = all(map(math.isfinite, cur))
        except _NOT_FLOAT64:
            cur = step(F, list(y[n - 1]), h)
            finite = all(map(math.isfinite, cur))
        if not finite:
            raise Overflow("non-finite state at step %d" % n)
        y[n] = cur


def _gl_weights(alpha: float, count: int) -> np.ndarray:
    """Weights (-1)^j C(alpha, j) for j = 0..count: the running product of
    the binomial recurrence factors 1 - (alpha + 1) / j."""
    factors = 1.0 - (alpha + 1.0) / np.arange(1, count + 1, dtype=float)
    return np.cumprod(np.concatenate(([1.0], factors)))


def _gl_fractional(F, y, times, h, alpha, window):
    steps = len(times) - 1
    m = min(steps, window)
    # w_m .. w_1, so the history sum at step n is one contiguous slice
    wr = _gl_weights(alpha, m)[:0:-1].copy()
    ha = h ** alpha
    y0 = y[0].copy()
    dy = np.zeros_like(y)
    for n in range(1, steps + 1):
        rate = _rate(F, y[n - 1])
        lo = max(0, n - window)
        # sum_j w_j (y_{n-j} - y_0) over the retained history j = 1..n-lo
        hist = wr[m - n + lo:] @ dy[lo:n]
        y[n] = y0 + ha * rate - hist
        _check_finite(y[n], n)
        dy[n] = y[n] - y0


def _pece_fractional(F, y, times, h, alpha, window):
    steps = len(times) - 1
    m = min(steps, window)
    dim = y.shape[1]
    pre_p = h ** alpha / gamma(alpha + 1.0)
    pre_c = h ** alpha / gamma(alpha + 2.0)
    # weights by distance k = n - j back from the step, farthest first, so
    # the sum over the retained nodes lo..n-1 is one contiguous slice:
    # predictor k^a - (k-1)^a; corrector d2 at interior nodes, the anchor
    # a0[n] while the origin is in the window, 1 on the predicted endpoint
    pw = np.diff(np.arange(m + 1, dtype=float) ** alpha)[::-1].copy()
    d2, a0 = product_weights(alpha, m)
    cw = d2[::-1].copy()
    y0 = y[0].copy()
    rates = np.zeros((steps + 1, dim))
    rates[0] = _rate(F, y0)
    for n in range(1, steps + 1):
        lo = max(0, n - window)
        pred = y0 + pre_p * (pw[m - n + lo:] @ rates[lo:n])
        _check_finite(pred, n)
        rate_p = _rate(F, pred)
        if lo:
            hist = cw[m - n + lo:] @ rates[lo:n]
        else:
            hist = a0[n] * rates[0] + cw[m - n + 1:] @ rates[1:n]
        y[n] = y0 + pre_c * (hist + rate_p)
        _check_finite(y[n], n)
        rates[n] = _rate(F, y[n])


def integrate(p: FractionalIVP, memory_window: int | None = None) -> Trajectory:
    """Integrate the problem over its grid and return the Trajectory.

    memory_window, when given, truncates the fractional history sums to the
    most recent `memory_window` steps (the short-memory principle).  This
    trades accuracy for O(N * window) cost; with no window the full-history
    sums are O(N^2) and runs longer than MEMORY_BUDGET steps are refused.
    The history weights are built once per run, so the per-step cost is one
    call of the generated right-hand side plus one BLAS dot per weight
    family over the retained history; a window at least as long as the run
    changes nothing.
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
    F, = p.compiled_rhs()
    y = np.zeros((steps + 1, p.dimension))
    y[0] = p.initial
    _check_finite(y[0], 0)
    # overflow in the arithmetic itself surfaces as the Overflow error at the
    # finiteness check, so the intermediate numpy warnings are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p.alpha == 1.0:
            step = _euler_step if p.scheme == GRUNWALD_LETNIKOV else _heun_step
            _classical(step, F, y, p.step)
        elif p.scheme == GRUNWALD_LETNIKOV:
            _gl_fractional(F, y, times, p.step, p.alpha, window)
        else:
            _pece_fractional(F, y, times, p.step, p.alpha, window)
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
