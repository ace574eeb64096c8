"""Time stepping: classical and fractional schemes, the planar magnetic
problem, and frequency measurement."""

import json
import math
import operator
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsymp import dynamics
from fracsymp.dynamics import (
    BASE,
    GRUNWALD_LETNIKOV,
    MEMORY_BUDGET,
    PREDICTOR_CORRECTOR,
    SEQUENTIAL_ALPHA_ALPHA,
    SINGLE_ORDER,
    DynamicsError,
    FractionalIVP,
    InsufficientPeriods,
    MemoryBudgetExceeded,
    Overflow,
    Trajectory,
    integrate,
    landau_problem,
    measure_frequency,
    simulate_landau,
)
from fracsymp.expr import (ExprError, _emit_values, compile_expr, evaluate,
                           parse_expression, to_text)
from fracsymp.frac import gamma, product_weights
from fracsymp.modelfile import parse_model_file, parse_model_text
from fracsymp.symplectic import fractional_equations_of_motion

GOLDEN = pathlib.Path(__file__).parent / "golden"


def ivp(names, rhs_texts, alpha, initial, horizon, step, **kw):
    consts = kw.get("constants", {})
    rhs = tuple(parse_expression(t, variables=names,
                                 allowed=set(names) | set(consts))
                for t in rhs_texts)
    return FractionalIVP(tuple(names), rhs, alpha, tuple(initial),
                         horizon, step, **kw)


def oscillator(alpha, h=1e-2, T=10.0, scheme=GRUNWALD_LETNIKOV):
    return ivp(("q", "p"), ("p", "-q"), alpha, (1.0, 0.0), T, h, scheme=scheme)


# -- problem validation ------------------------------------------------------

def test_ivp_order_range():
    with pytest.raises(ValueError):
        oscillator(alpha=0.0)
    with pytest.raises(ValueError):
        oscillator(alpha=1.2)


def test_ivp_structural_validation():
    with pytest.raises(DynamicsError):
        ivp(("q",), ("q",), 1.0, (1.0,), -1.0, 0.1)
    with pytest.raises(DynamicsError):
        ivp(("q",), ("q",), 1.0, (1.0,), 1.0, 0.0)
    with pytest.raises(DynamicsError):
        rhs = tuple(parse_expression(t, variables=("q", "p")) for t in ("q", "p"))
        FractionalIVP(("q",), rhs, 1.0, (1.0,), 1.0, 0.1)
    with pytest.raises(DynamicsError):
        ivp(("q",), ("q",), 1.0, (1.0,), 1.0, 0.1, scheme="runge-kutta")
    with pytest.raises(DynamicsError):
        ivp(("q",), ("q",), 1.0, (1.0, 2.0), 1.0, 0.1)


def test_ivp_refuses_an_empty_system():
    with pytest.raises(DynamicsError, match="empty system"):
        FractionalIVP((), (), 0.5, (), 1.0, 0.1)


def test_sequential_composition_needs_pairs():
    with pytest.raises(DynamicsError):
        ivp(("q",), ("q",), 0.5, (1.0,), 1.0, 0.1,
            composition=SEQUENTIAL_ALPHA_ALPHA)


def test_grid_and_hash():
    p = oscillator(0.5, h=0.25, T=1.0)
    assert np.allclose(p.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.content_hash() == oscillator(0.5, h=0.25, T=1.0).content_hash()
    assert p.content_hash() != oscillator(0.6, h=0.25, T=1.0).content_hash()


# Each horizon is a whole number of steps in decimal, but horizon / step
# is just below that number in floating point.
@pytest.mark.parametrize("horizon, step, steps", [(256.14, 1e-2, 25614),
                                                  (218.64, 1e-2, 21864),
                                                  (16.391, 1e-3, 16391)])
def test_grid_keeps_the_last_step(horizon, step, steps):
    assert horizon / step < steps
    times = oscillator(0.5, h=step, T=horizon).grid()
    assert len(times) == steps + 1
    assert times[-1] == step * steps


def test_grid_rounds_down_off_the_step_lattice():
    assert len(oscillator(0.5, h=0.1, T=1.05).grid()) == 11


def test_rhs_constants():
    p = ivp(("q",), ("-k*q",), 1.0, (1.0,), 1.0, 1e-3,
            scheme=PREDICTOR_CORRECTOR, constants={"k": 2.0})
    t = integrate(p)
    assert abs(t.terminal()[0] - math.exp(-2.0)) < 1e-5


# -- classical limits --------------------------------------------------------

def test_order_one_heun_matches_hand_loop():
    p = oscillator(1.0, h=1e-2, T=2.0, scheme=PREDICTOR_CORRECTOR)
    t = integrate(p)
    y = np.array([1.0, 0.0])
    f = lambda s: np.array([s[1], -s[0]])
    for _ in range(200):
        pred = y + 1e-2 * f(y)
        y = y + 0.5e-2 * (f(y) + f(pred))
    assert np.max(np.abs(t.terminal() - y)) == 0.0


def test_order_one_circle_accuracy():
    p = oscillator(1.0, h=1e-3, T=2.0 * math.pi, scheme=PREDICTOR_CORRECTOR)
    t = integrate(p)
    assert abs(t.terminal()[0] - 1.0) < 1e-6
    assert abs(t.terminal()[1]) < 5e-4


def test_order_one_euler_first_order_convergence():
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        p = ivp(("q",), ("-q",), 1.0, (1.0,), 1.0, h,
                scheme=GRUNWALD_LETNIKOV)
        errs.append(abs(integrate(p).terminal()[0] - math.exp(-1.0)))
    assert errs[0] / errs[1] > 1.3
    assert errs[1] / errs[2] > 1.3


# The alpha = 1 steps as closures over compile_expr's F, kept as the oracle
# for the loop integrate() generates with the right-hand side inlined: the
# same arithmetic in the same order, so every row must be equal bit for bit,
# and a run that overflows must stop at the same step.  A step is stepped on
# Python floats and redone on float64 where those raise.

_NOT_FLOAT64 = (OverflowError, ZeroDivisionError, TypeError)


def _checked(row, n):
    if not all(map(math.isfinite, row)):
        raise Overflow("non-finite state at step %d" % n)
    return row


def _float_rows(step, F, y, first, stop):
    cur = y[first - 1].tolist()
    for n in range(first, stop):
        try:
            row = step(cur, n, F)
        except _NOT_FLOAT64:
            row = step(cur, n, lambda v: F(np.array(v)))
        y[n] = cur = row


def _classical_step(scheme, h):
    hh = 0.5 * h

    def euler(cur, F):
        return [a + h * r for a, r in zip(cur, F(cur))]

    def heun(cur, F):
        r0 = F(cur)
        guess = [a + h * r for a, r in zip(cur, r0)]
        return [a + hh * (r + s) for a, r, s in zip(cur, r0, F(guess))]

    return euler if scheme == GRUNWALD_LETNIKOV else heun


def _classical_oracle(p):
    F = compile_expr(p.rhs, p.variables, p.constants)
    step = _classical_step(p.scheme, p.step)
    y = np.zeros((len(p.grid()), p.dimension))
    y[0] = p.initial
    _float_rows(lambda cur, n, F: _checked(step(cur, F), n), F, y, 1, len(y))
    return y


def _anharmonic4(steps, scheme, alpha=1.0):
    model = parse_model_file(str(GOLDEN / "anharmonic4.model")).model
    rhs = tuple(e for _, e in fractional_equations_of_motion(model))
    return FractionalIVP(model.variables, rhs, alpha, (0.5, -0.4, 0.2, 0.1),
                         steps * 1e-3, 1e-3, scheme=scheme,
                         constants={**model.constants, "alpha": alpha})


# The benchmark's flow family: V = |eta|^2/2 + sum(eta^4)/8 under a constant
# two-form whose inverse has no zero entry off the diagonal, so that each
# rate holds the cubes of the three other variables.
_FLOW4 = """variables: x1, x2, x3, x4
alpha: 1
kinetic x1: 0
kinetic x2: x1
kinetic x3: -3*x1 - x2
kinetic x4: x1 + 3*x2 - 2*x3
potential: 1/2*(x1^2 + x2^2 + x3^2 + x4^2) + 1/8*(x1^4 + x2^4 + x3^4 + x4^4)
"""


def test_each_shared_cube_is_computed_once():
    model = parse_model_text(_FLOW4).model
    rhs = [e for _, e in fractional_equations_of_motion(model)]
    names = model.variables
    for i, e in enumerate(rhs):
        cubes = {v for v in names if "%s^3" % v in to_text(e)}
        assert cubes == set(names) - {names[i]}
    # twelve cubes in the rates, four of them distinct
    assert "".join(_emit_values(rhs, names)).count("**") == 4
    F = compile_expr(rhs, names)
    for point in ((0.3, -0.7, 1.1, 0.05), (-2.0, 0.5, -0.25, 3.0)):
        want = [evaluate(e, dict(zip(names, point))) for e in rhs]
        assert [v.hex() for v in F(point)] == [v.hex() for v in want]


# Right-hand sides whose components share powers: a rotation with one
# shared denominator, and a flow that overflows before step 100.
def _sharing(steps, scheme, alpha=1.0):
    return [ivp(("q", "p"), texts, alpha, initial, steps * 1e-2, 1e-2,
                scheme=scheme)
            for texts, initial in (
                (("-p*(1 + q^2 + p^2)^(-1) - q^3",
                  "q*(1 + q^2 + p^2)^(-1) + 1/2*q^3"), (0.6, -0.3)),
                (("q^3 + p^3*q^2", "q^3 - p^3 + q^2"), (1.5, 1.0)))]


def _states(run, *args):
    """The states run(*args) computes, or the message of its Overflow; as
    in integrate, float64 overflow on the way warns of nothing."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(*args)
    except Overflow as exc:
        return str(exc)


# The generated loop writes its rows in blocks of 256: runs end just before,
# on and just past a block edge, and one spans several blocks.
@pytest.mark.parametrize("scheme", [GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR])
@pytest.mark.parametrize("steps", [1023, 1024, 1025, 3077])
def test_classical_loop_matches_stepped_closures(steps, scheme):
    landau = landau_problem(1.0, 2.0, 1.0, 0.7, 0.3 + 0.1j, 0.5 - 0.2j,
                            steps * 1e-2, 1e-2, scheme=scheme)
    for p in (_anharmonic4(steps, scheme), landau):
        assert p.alpha == 1.0 and len(p.grid()) == steps + 1
        assert np.array_equal(integrate(p).states, _classical_oracle(p))
    rotation, blowup = _sharing(steps, scheme)
    assert np.array_equal(integrate(rotation).states,
                          _classical_oracle(rotation))
    want = _states(_classical_oracle, blowup)
    assert isinstance(want, str)
    assert _states(integrate, blowup) == want


# The fractional steps as closures over compile_expr's F and the history
# sums, stepped on lists of Python floats and redone on float64 where those
# raise: kept as the oracle for the loops integrate() generates with the
# right-hand side inlined.  The arithmetic and every dot slice are the same,
# in the same order, so every row must be equal bit for bit.

def _near(hist, a, n):
    lo = max(a, hist.first, n - hist.m)
    return hist.wr[hist.m - n + lo:].dot(hist.x[lo:n]).tolist()


def _gl_step(hist, a, b, ha, y0):
    first = max(a, 1)
    acc = hist.acc[first:b].tolist()

    def step(cur, n, F):
        out = []
        for c, r, s in zip(acc[n - first], F(cur), _near(hist, a, n)):
            out.append(c + ha * r - s)
        hist.x[n] = list(map(operator.sub, _checked(out, n), y0))
        return out

    return step


def _pece_step(pred, corr, a0, a, b, window):
    first = max(a, 1)
    rates = pred.x
    accp = pred.acc[first:b].tolist()
    accc = corr.acc[first:b].tolist()
    anchor = np.outer(a0[first:b], rates[0]).tolist()

    def step(cur, n, F):
        sc = _near(corr, a, n)
        if n <= window:
            sc = map(operator.add, anchor[n - first], sc)
        guess = []
        for c, s in zip(accp[n - first], _near(pred, a, n)):
            guess.append(c + pred.scale * s)
        out = []
        for c, s, r in zip(accc[n - first], sc, F(_checked(guess, n))):
            out.append(c + corr.scale * (s + r))
        rates[n] = list(map(float, F(_checked(out, n))))
        return out

    return step


def _stepped_fractional(p, window):
    F = compile_expr(p.rhs, p.variables, p.constants)
    y = np.zeros((len(p.grid()), p.dimension))
    y[0] = p.initial
    steps = len(y) - 1
    window = window or steps
    m = min(steps, window)
    h, alpha = p.step, p.alpha
    y[1:] = y[0]
    x = np.zeros_like(y)
    if p.scheme == GRUNWALD_LETNIKOV:
        hist = dynamics._History(dynamics._gl_weights(alpha, m), x, y, -1.0)
        hists = (hist,)
        ha, y0 = h ** alpha, y[0].tolist()

        def base(a, b):
            _float_rows(_gl_step(hist, a, b, ha, y0), F, y, max(a, 1), b)
    else:
        d2, a0 = product_weights(alpha, m)
        hists = (dynamics._History(np.diff(np.arange(m + 1.0) ** alpha,
                                           prepend=0.0), x, y,
                                   h ** alpha / gamma(alpha + 1.0)),
                 dynamics._History(np.concatenate(([0.0], d2)), x, y.copy(),
                                   h ** alpha / gamma(alpha + 2.0), first=1))
        x[0] = F(y[0])

        def base(a, b):
            _float_rows(_pece_step(*hists, a0, a, b, window), F, y,
                        max(a, 1), b)
    dynamics._nested(0, len(y), base, hists)
    return y


# Runs end just before, on and just past the first leaf block of BASE steps,
# and one spans several leaf blocks and FFT spills; windows are none, one
# shorter than a leaf block and one as long.
@pytest.mark.parametrize("scheme", [GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR])
@pytest.mark.parametrize("steps", [BASE - 1, BASE, BASE + 1, 3 * BASE + 5])
def test_fractional_loops_match_stepped_closures(steps, scheme):
    landau = landau_problem(1.0, 2.0, 1.0, 0.6, 0.3 + 0.1j, 0.5 - 0.2j,
                            steps * 1e-2, 1e-2,
                            composition=SEQUENTIAL_ALPHA_ALPHA, scheme=scheme)
    decay = ivp(("q",), ("-q",), 0.6, (1.0,), steps * 1e-2, 1e-2,
                scheme=scheme)
    rotation, blowup = _sharing(steps, scheme, alpha=0.6)
    for p in (decay, _anharmonic4(steps, scheme, alpha=0.6), landau, rotation):
        assert len(p.grid()) == steps + 1
        for window in (None, BASE // 3, BASE):
            assert np.array_equal(integrate(p, window).states,
                                  _stepped_fractional(p, window)), (
                p.variables, window)
    for window in (None, BASE // 3):
        want = _states(_stepped_fractional, blowup, window)
        assert isinstance(want, str)
        assert _states(integrate, blowup, window) == want


# Every loop has the right-hand side written inline; only the
# predictor-corrector calls compile_expr's F, once, for the rate at t = 0.
@pytest.mark.parametrize("alpha, scheme, calls", [
    (0.5, GRUNWALD_LETNIKOV, 0), (0.5, PREDICTOR_CORRECTOR, 1),
    (1.0, GRUNWALD_LETNIKOV, 0), (1.0, PREDICTOR_CORRECTOR, 0)])
def test_right_hand_side_calls(monkeypatch, alpha, scheme, calls):
    count = []
    compiled_rhs = FractionalIVP.compiled_rhs

    def counted(ivp):
        return [lambda y, F=F: count.append(1) or F(y)
                for F in compiled_rhs(ivp)]

    monkeypatch.setattr(FractionalIVP, "compiled_rhs", counted)
    p = landau_problem(1.0, 2.0, 1.0, alpha, 0.3 + 0.1j, 0.5 - 0.2j,
                       (3 * BASE + 5) * 1e-2, 1e-2,
                       composition=SEQUENTIAL_ALPHA_ALPHA, scheme=scheme)
    assert p.alpha == alpha
    integrate(p)
    assert len(count) == calls


# -- fractional schemes ------------------------------------------------------

def test_fractional_decay_bounded_monotone():
    p = ivp(("q",), ("-q",), 0.9, (1.0,), 2.0, 1e-3)
    t = integrate(p)
    q = t.column("q")
    assert np.all(np.diff(q) < 1e-12)
    assert 0.0 < q[-1] < 1.0


def test_fractional_scheme_convergence():
    # grid halving shrinks the error; use the PECE answer at the finest
    # grid as reference
    ref = integrate(ivp(("q",), ("-q",), 0.7, (1.0,), 1.0, 2.5e-4,
                        scheme=PREDICTOR_CORRECTOR)).terminal()[0]
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        p = ivp(("q",), ("-q",), 0.7, (1.0,), 1.0, h)
        errs.append(abs(integrate(p).terminal()[0] - ref))
    assert errs[0] / errs[1] > 1.3
    assert errs[1] / errs[2] > 1.3


def test_pece_tracks_gl():
    a = 0.6
    gl = integrate(ivp(("q",), ("-q",), a, (1.0,), 1.0, 1e-3))
    pc = integrate(ivp(("q",), ("-q",), a, (1.0,), 1.0, 1e-3,
                       scheme=PREDICTOR_CORRECTOR))
    assert abs(gl.terminal()[0] - pc.terminal()[0]) < 2e-3


# Direct loops with per-step weights, kept as the oracle for the
# precomputed-weight schemes in dynamics: same arithmetic term by term, only
# the summation order differs.

def _gl_oracle(fs, y, times, h, alpha, window):
    steps = len(times) - 1
    w = np.empty(steps + 1)
    w[0] = 1.0
    for j in range(1, steps + 1):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    y0 = y[0].copy()
    dy = np.zeros_like(y)
    for n in range(1, steps + 1):
        rate = np.array([f(y[n - 1]) for f in fs])
        lo = 0 if window is None else max(0, n - window)
        y[n] = y0 + h ** alpha * rate - w[1:n - lo + 1] @ dy[lo:n][::-1]
        dy[n] = y[n] - y0


def _pece_oracle(fs, y, times, h, alpha, window):
    steps = len(times) - 1
    pre_p = h ** alpha / gamma(alpha + 1.0)
    pre_c = h ** alpha / gamma(alpha + 2.0)
    y0 = y[0].copy()
    rates = np.zeros((steps + 1, y.shape[1]))
    rates[0] = [f(y0) for f in fs]
    js = np.arange(steps + 1, dtype=float)
    for n in range(1, steps + 1):
        lo = 0 if window is None else max(0, n - window)
        gaps = n - lo - js[:n - lo]
        bw = gaps ** alpha - (gaps - 1.0) ** alpha
        pred = y0 + pre_p * (bw @ rates[lo:n])
        rate_p = np.array([f(pred) for f in fs])
        cw = np.empty(n - lo)
        if lo == 0:
            cw[0] = (n - 1.0) ** (alpha + 1.0) - (n - 1.0 - alpha) * float(n) ** alpha
            inner = np.arange(1, n, dtype=float)
        else:
            inner = np.arange(lo, n, dtype=float)
        if inner.size:
            g = n - inner
            cw[n - lo - inner.size:] = ((g + 1.0) ** (alpha + 1.0)
                                        - 2.0 * g ** (alpha + 1.0)
                                        + (g - 1.0) ** (alpha + 1.0))
        y[n] = y0 + pre_c * (cw @ rates[lo:n] + rate_p)
        rates[n] = [f(y[n]) for f in fs]


def _oracle(p, window):
    times = p.grid()
    y = np.zeros((len(times), p.dimension))
    y[0] = p.initial
    loop = _gl_oracle if p.scheme == GRUNWALD_LETNIKOV else _pece_oracle
    # per-component callables from the tree walker, independent of the
    # generated right-hand side that integrate() uses
    fs = [lambda row, e=e: evaluate(e, {**p.constants, **dict(zip(p.variables, row))})
          for e in p.rhs]
    loop(fs, y, times, p.step, p.alpha, window)
    return y


def _oracle_cases(alpha, scheme):
    yield landau_problem(1.0, 2.0, 1.0, alpha, 0.3 + 0.1j, 0.5 - 0.2j,
                         12.0, 1e-2, composition=SEQUENTIAL_ALPHA_ALPHA,
                         scheme=scheme)
    yield ivp(("q",), ("-q",), alpha, (1.0,), 1.2, 1e-3, scheme=scheme)


@pytest.mark.parametrize("scheme", [GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_fractional_schemes_match_direct_loops(alpha, scheme):
    for p in _oracle_cases(alpha, scheme):
        steps = len(p.grid()) - 1
        full = integrate(p).states
        for window in (None, steps // 3):
            got = full if window is None else integrate(p, window).states
            want = _oracle(p, window)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-10 * scale, (p.variables, window)
        # a window that never cuts the history is the full-history run
        for window in (steps, steps + 7):
            assert np.array_equal(integrate(p, window).states, full)


# Runs longer than BASE steps take their older history in FFT blocks; they
# must still agree with the direct loops, for every kind of window.
@settings(max_examples=25, deadline=None)
@given(st.integers(BASE + 1, 4 * BASE), st.floats(0.1, 0.95),
       st.sampled_from([GRUNWALD_LETNIKOV, PREDICTOR_CORRECTOR]), st.data())
def test_blocked_history_matches_direct_loops(steps, alpha, scheme, data):
    p = landau_problem(1.0, 2.0, 1.0, alpha, 0.3 + 0.1j, 0.5 - 0.2j,
                       steps * 1e-2, 1e-2, composition=SEQUENTIAL_ALPHA_ALPHA,
                       scheme=scheme)
    assert len(p.grid()) == steps + 1
    full = integrate(p).states
    windows = (None, data.draw(st.integers(1, BASE - 1)),
               data.draw(st.integers(BASE, steps - 1)),
               data.draw(st.integers(steps, 2 * steps)))
    for window in windows:
        got = full if window is None else integrate(p, window).states
        want = _oracle(p, window)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), window
    assert np.array_equal(got, full)


def _mittag_leffler(alpha, z):
    return sum(z ** k / math.gamma(alpha * k + 1.0) for k in range(200))


@pytest.mark.parametrize("alpha, gl_err, pc_err", [(0.5, 1.2e-4, 1.5e-6),
                                                   (0.8, 2.2e-4, 3.5e-7)])
def test_fractional_relaxation_closed_form(alpha, gl_err, pc_err):
    # D^alpha y = -y, y(0) = 1 is solved by E_alpha(-t^alpha); GL is first
    # order and the predictor-corrector of order 1 + alpha at t = 1
    want = _mittag_leffler(alpha, -1.0)
    hs = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    for scheme, lo, hi, finest in (
            (GRUNWALD_LETNIKOV, 0.9, 1.1, gl_err),
            (PREDICTOR_CORRECTOR, alpha + 0.85, alpha + 1.1, pc_err)):
        errs = [abs(integrate(ivp(("y",), ("-y",), alpha, (1.0,), 1.0, h,
                                  scheme=scheme)).terminal()[0] - want)
                for h in hs]
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert all(lo <= o <= hi for o in orders), (scheme, orders)
        assert errs[-1] < finest, (scheme, errs)


def test_overflow_detected():
    p = ivp(("q",), ("q^3",), 1.0, (2.0,), 50.0, 1e-2,
            scheme=GRUNWALD_LETNIKOV)
    with pytest.raises(Overflow):
        integrate(p)


# Where float64 arithmetic gives inf or nan (an overflowing or zero-base
# power, a negative base under a fractional power) the run stops at the
# step whose state first turns non-finite, with no warning on the way.  The
# predictor-corrector stores an overflowed rate one step before its state
# turns non-finite.
@pytest.mark.parametrize("rhs, alpha, q0, h, scheme, step", [
    ("q^2", 1.0, 1.0, 1e-3, GRUNWALD_LETNIKOV, 1017),
    ("q^2", 1.0, 1.0, 1e-3, PREDICTOR_CORRECTOR, 1005),
    ("q^3", 0.5, 1.0, 1e-3, GRUNWALD_LETNIKOV, 69),
    ("q^3", 0.5, 1.0, 1e-3, PREDICTOR_CORRECTOR, 60),
    ("-1 - q^(1/2)", 1.0, 0.5, 1e-2, GRUNWALD_LETNIKOV, 36),
    ("-1 - q^(1/2)", 1.0, 0.5, 1e-2, PREDICTOR_CORRECTOR, 35),
    ("-1 - q^(1/2)", 0.5, 0.5, 1e-2, GRUNWALD_LETNIKOV, 14),
    ("-1 - q^(1/2)", 0.5, 0.5, 1e-2, PREDICTOR_CORRECTOR, 12),
    ("q^(-1)", 1.0, 0.0, 0.1, GRUNWALD_LETNIKOV, 1),
    # past step 1024 of a classical run
    ("q^2", 1.0, 1.0, 4e-4, GRUNWALD_LETNIKOV, 2518),
    ("q^2", 1.0, 1.0, 4e-4, PREDICTOR_CORRECTOR, 2505),
    ("-1 - q^(1/2)", 1.0, 0.5, 2e-4, GRUNWALD_LETNIKOV, 1724),
    ("-1 - q^(1/2)", 1.0, 0.5, 2e-4, PREDICTOR_CORRECTOR, 1724),
    # Gamma passing the float range gives inf, so the state turns non-finite
    pytest.param("Gamma(q)", 1.0, 3.0, 1e-2, GRUNWALD_LETNIKOV, 48, id="gamma-euler"),
    pytest.param("Gamma(q)", 1.0, 3.0, 1e-2, PREDICTOR_CORRECTOR, 45, id="gamma-heun"),
    pytest.param("Gamma(q)", 0.5, 3.0, 1e-2, GRUNWALD_LETNIKOV, 12, id="gamma-gl"),
    pytest.param("Gamma(q)", 0.5, 3.0, 1e-2, PREDICTOR_CORRECTOR, 9, id="gamma-pece"),
])
def test_overflow_reported_at_first_non_finite_step(rhs, alpha, q0, h, scheme, step):
    p = ivp(("q",), (rhs,), alpha, (q0,), 2.0, h, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="^non-finite state at step %d$" % step):
            integrate(p)


# The same on long fractional runs, where the first non-finite state lies
# past the first block of steps whose history is summed directly.
@pytest.mark.parametrize("rhs, window, scheme, step", [
    ("q^2", None, GRUNWALD_LETNIKOV, 729),
    ("q^2", None, PREDICTOR_CORRECTOR, 713),
    ("q^2", 333, GRUNWALD_LETNIKOV, 739),
    ("q^2", 333, PREDICTOR_CORRECTOR, 823),
    ("-1 - q^(1/2)", None, GRUNWALD_LETNIKOV, 133),
    ("-1 - q^(1/2)", None, PREDICTOR_CORRECTOR, 130),
])
def test_overflow_step_on_long_fractional_runs(rhs, window, scheme, step):
    p = ivp(("q",), (rhs,), 0.5, (0.5,), 12.0, 1e-3, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="^non-finite state at step %d$" % step):
            integrate(p, window)


def test_overflow_step_where_block_sums_pass_the_float_range():
    # D^a q = 40 q climbs to ~1e306: summed over a block of rows the history
    # leaves the float range long before any one step's history sum does
    p = ivp(("q",), ("40*q",), 0.5, (1.0,), 60.0, 1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="^non-finite state at step 469$"):
            integrate(p)


# the four runs of 10 steps keep their ids; at h = 4e-4 a run overflows on
# every one of 2500 steps, past step 1024 of a classical run and past the
# first leaf block of a fractional one
_ABSORBED = [(1.0, GRUNWALD_LETNIKOV, 0.1), (1.0, PREDICTOR_CORRECTOR, 0.1),
             (0.5, GRUNWALD_LETNIKOV, 0.1), (0.5, PREDICTOR_CORRECTOR, 0.1),
             (1.0, GRUNWALD_LETNIKOV, 4e-4), (1.0, PREDICTOR_CORRECTOR, 4e-4),
             (0.5, GRUNWALD_LETNIKOV, 4e-4), (0.5, PREDICTOR_CORRECTOR, 4e-4)]


@pytest.mark.parametrize("alpha, scheme, h", _ABSORBED, ids=[
    "%s-%s" % (a, s) + ("" if h == 0.1 else "-%g" % h) for a, s, h in _ABSORBED])
def test_overflow_absorbed_in_float64_does_not_stop_the_run(alpha, scheme, h):
    # q^400 overflows at q = 10, but (1 + inf)^(-1) = 0 in float64
    p = ivp(("q",), ("(1 + q^400)^(-1)",), alpha, (10.0,), 1.0, h,
            scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (integrate(p).states == 10.0).all()


# A base that no state variable reaches and that is negative under a
# fractional power would make the generated right-hand side complex; it is
# refused before the first step, bound constants included.
@pytest.mark.parametrize("alpha, scheme", [(1.0, GRUNWALD_LETNIKOV),
                                           (1.0, PREDICTOR_CORRECTOR),
                                           (0.5, GRUNWALD_LETNIKOV),
                                           (0.5, PREDICTOR_CORRECTOR)])
@pytest.mark.parametrize("rhs, constants", [("(-2)^(1/2)*q", {}),
                                            ("c^(1/2)*q", {"c": -2.0})])
def test_negative_constant_base_under_fractional_power_is_refused(
        alpha, scheme, rhs, constants):
    p = ivp(("q",), (rhs,), alpha, (1.0,), 1.0, 0.1, scheme=scheme,
            constants=constants)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExprError, match="negative base -2.0 under fractional"):
            integrate(p)


def test_memory_budget_guard():
    steps = MEMORY_BUDGET + 10
    p = ivp(("q",), ("-q",), 0.5, (1.0,), steps * 1e-4, 1e-4)
    with pytest.raises(MemoryBudgetExceeded):
        integrate(p)


def test_memory_window_lifts_budget():
    p = ivp(("q",), ("-q",), 0.9, (1.0,), 2.0, 1e-3)
    full = integrate(p)
    windowed = integrate(p, memory_window=1200)
    gap = abs(full.terminal()[0] - windowed.terminal()[0])
    assert 0.0 < gap < 1e-2
    assert np.isfinite(windowed.states).all()


# -- trajectory container ----------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(DynamicsError):
        Trajectory(("q",), np.array([0.0, 1.0]), np.ones((3, 1)), {})
    with pytest.raises(Overflow):
        Trajectory(("q",), np.array([0.0, 1.0]),
                   np.array([[1.0], [math.nan]]), {})


def test_trajectory_metadata_and_plane():
    t = integrate(oscillator(1.0, h=1e-2, T=1.0, scheme=PREDICTOR_CORRECTOR))
    assert t.metadata["scheme"] == PREDICTOR_CORRECTOR
    assert t.metadata["alpha"] == 1.0
    z = t.plane()
    assert z.dtype == complex
    assert abs(z[0] - (1.0 + 0.0j)) < 1e-15


def test_trajectory_csv_roundtrip(tmp_path):
    t = integrate(oscillator(1.0, h=0.25, T=1.0, scheme=PREDICTOR_CORRECTOR))
    path = tmp_path / "run.csv"
    sidecar = t.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,q,p"
    assert len(lines) == 6
    meta = json.loads(pathlib.Path(sidecar).read_text())
    assert meta["scheme"] == PREDICTOR_CORRECTOR


# -- the planar magnetic problem ---------------------------------------------

def test_landau_problem_approximate_shape():
    p = landau_problem(1.0, 1.0, 1.0, 0.5, 0j, 1j, 10.0, 1e-2, SINGLE_ORDER)
    assert p.variables == ("r1", "r2", "w1", "w2")
    assert p.alpha == 1.0
    assert abs(p.constants["Omega"] - 1.0 / gamma(1.5)) < 1e-14


def test_landau_problem_sequential_shape():
    p = landau_problem(1.0, 1.0, 1.0, 0.5, 0j, 1j, 10.0, 1e-2,
                       SEQUENTIAL_ALPHA_ALPHA)
    assert p.variables == ("r1", "r2", "u1", "u2")
    assert p.alpha == 0.5
    assert p.constants["omega"] == 1.0


def test_landau_rejects_bad_parameters():
    with pytest.raises(DynamicsError):
        landau_problem(1.0, 0.0, 1.0, 0.5, 0j, 1j, 1.0, 1e-2, SINGLE_ORDER)
    with pytest.raises(DynamicsError):
        landau_problem(1.0, 1.0, -1.0, 0.5, 0j, 1j, 1.0, 1e-2, SINGLE_ORDER)


def test_landau_refuses_an_unknown_composition():
    with pytest.raises(DynamicsError, match="unknown composition 'x'"):
        landau_problem(1.0, 1.0, 1.0, 0.5, 0j, 1j, 1.0, 1e-2, composition="x")


def test_landau_classical_frequency():
    t = simulate_landau(1.0, 1.0, 1.0, 1.0, 0j, 1j, 25.0, 1e-3, SINGLE_ORDER)
    assert t.metadata["landau"]["omega"] == 1.0
    f = measure_frequency(t)
    assert abs(f - 1.0) < 5e-3


def test_landau_corrected_frequency_half_order():
    t = simulate_landau(1.0, 1.0, 1.0, 0.5, 0j, 1j, 25.0, 1e-3, SINGLE_ORDER)
    f = measure_frequency(t)
    assert abs(f * gamma(1.5) - 1.0) < 5e-3


def test_landau_speed_conserved():
    t = simulate_landau(1.0, 1.0, 1.0, 0.8, 0j, 1j, 10.0, 1e-3, SINGLE_ORDER)
    w = np.hypot(t.column("w1"), t.column("w2"))
    assert np.max(np.abs(w - 1.0)) < 1e-4


# Self-convergence: the max-norm gap between the terminal states at h and
# h / 2, for h = 2e-2 .. 2.5e-3.  GL and Euler are first order, the
# sequential predictor-corrector about 1 + alpha and Heun second order.
@pytest.mark.parametrize("alpha", [0.6, 0.8])
@pytest.mark.parametrize("composition, scheme", [
    (SEQUENTIAL_ALPHA_ALPHA, GRUNWALD_LETNIKOV),
    (SEQUENTIAL_ALPHA_ALPHA, PREDICTOR_CORRECTOR),
    (SINGLE_ORDER, GRUNWALD_LETNIKOV),
    (SINGLE_ORDER, PREDICTOR_CORRECTOR),
])
def test_landau_self_convergence_order(composition, scheme, alpha):
    ends = [simulate_landau(1.0, 2.0, 1.0, alpha, 0.3 + 0.1j, 0.5 - 0.2j, 2.0, h,
                            composition=composition, scheme=scheme).terminal()
            for h in (2e-2, 1e-2, 5e-3, 2.5e-3)]
    gaps = [np.abs(a - b).max() for a, b in zip(ends, ends[1:])]
    orders = [math.log2(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
    least = 0.9
    if scheme == PREDICTOR_CORRECTOR:
        least += alpha if composition == SEQUENTIAL_ALPHA_ALPHA else 1.0
    assert min(orders) >= least, orders


def test_sequential_orbit_departs_from_approximate():
    kw = dict(e=1.0, B=1.0, m=1.0, alpha=0.5, z0=0j, v0=1j, T=10.0, h=1e-2)
    approx = simulate_landau(composition=SINGLE_ORDER, **kw)
    seq = simulate_landau(composition=SEQUENTIAL_ALPHA_ALPHA, **kw)
    gap = np.max(np.abs(approx.states[:, :2] - seq.states[:, :2]))
    assert gap > 0.5


# -- frequency measurement ---------------------------------------------------

def test_measure_frequency_synthetic():
    ts = np.arange(0.0, 30.0, 1e-2)
    states = np.stack([np.cos(2.0 * ts), np.sin(2.0 * ts)], axis=1)
    t = Trajectory(("x", "y"), ts, states, {})
    assert abs(measure_frequency(t) - 2.0) < 1e-3


def test_measure_frequency_sign_insensitive():
    ts = np.arange(0.0, 30.0, 1e-2)
    states = np.stack([np.cos(1.5 * ts), -np.sin(1.5 * ts)], axis=1)
    t = Trajectory(("x", "y"), ts, states, {})
    assert abs(measure_frequency(t) - 1.5) < 1e-3


def test_measure_frequency_needs_three_turns():
    ts = np.arange(0.0, 2.0 * math.pi, 1e-2)
    states = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    t = Trajectory(("x", "y"), ts, states, {})
    with pytest.raises(InsufficientPeriods):
        measure_frequency(t)
