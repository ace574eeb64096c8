"""End-to-end acceptance checks.

Each test exercises one numbered criterion, prints a single
`criterion N: PASS/FAIL` line with its runtime and headline numbers, then
asserts.  Criterion 9 checks the two-stage half-derivative gap on
f(x) = x^(1/2), where the modified Riemann-Liouville calculus makes it real
(the inner stage gives a constant, the outer stage annihilates it), and uses
f(x) = x, where the two stages compose to the ordinary derivative exactly,
as the control whose numerical gap must vanish like h^(1/2).
"""
import dataclasses
import math
import random
import time

import numpy as np

import fracsymp
import pathlib

from fracsymp.dynamics import SINGLE_ORDER, measure_frequency, simulate_landau
from fracsymp.expr import (
    ZERO,
    diff,
    evaluate,
    parse_expression,
    simplify,
    substitute,
    to_text,
)
from fracsymp.frac import (
    SampledFunction,
    SymbolicPower,
    fractional_poisson_bracket,
    gamma,
    mrl_derivative_grid,
    mrl_derivative_power,
    mrl_derivative_quadrature,
)
from fracsymp.hall import (
    STRONG_FIELD,
    HallScenario,
    estimate_alpha_near_one,
    estimate_alpha_small,
    quantize_strong_field,
)
from fracsymp.modelfile import parse_model_file
from fracsymp.symplectic import (
    Model,
    _dirac_expr,
    coarse_dirac_bracket,
    coarse_hamilton_jacobi,
    fj_iterate,
    momentum_name,
)

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"


def report(n, ok, elapsed, detail):
    print("criterion %d: %s (%.2fs) %s" % (n, "PASS" if ok else "FAIL",
                                           elapsed, detail))
    return ok


def test_criterion_1_canonical_pair_bracket():
    t0 = time.perf_counter()
    doc = parse_model_file(MODELS / "canonical_pair.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    text = to_text(table.entry("q", "p"))
    elapsed = time.perf_counter() - t0
    ok = chain.status == "regular" and text == "1" and elapsed < 1.0
    assert report(1, ok, elapsed, "{q, p} = %s" % text)


def test_criterion_2_strong_field_symbolic_bracket():
    t0 = time.perf_counter()
    table = quantize_strong_field(
        HallScenario(1.0, 1.0, 0.0, 1.0, None, STRONG_FIELD))
    text = to_text(table.entry("r1", "r2"))
    want_text = "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"
    val = evaluate(table.entry("r1", "r2"),
                   {"e": 1.0, "B": 1.0, "alpha": 1e-8})
    want = 1.0000000057721568
    elapsed = time.perf_counter() - t0
    ok = text == want_text and abs(val - want) < 1e-12 and elapsed < 1.0
    assert report(2, ok, elapsed,
                  "{r1, r2} = %s; at alpha=1e-8: %.16f" % (text, val))


def test_criterion_3_near_one_estimate():
    t0 = time.perf_counter()
    est = estimate_alpha_near_one(1e-8)
    elapsed = time.perf_counter() - t0
    gap = abs(est.alpha_estimate - 0.9999999763473)
    ok = gap < 1e-12 and elapsed < 0.1
    assert report(3, ok, elapsed,
                  "alpha(delta=1e-8) = %.13f (gap %.1e)" % (est.alpha_estimate, gap))


def test_criterion_4_small_alpha_estimate():
    t0 = time.perf_counter()
    est = estimate_alpha_small(1e-8)
    elapsed = time.perf_counter() - t0
    want = 1e-8 / 0.5772156649015329
    gap = abs(est.alpha_estimate - want)
    ok = gap < 1e-12 and elapsed < 0.1
    assert report(4, ok, elapsed,
                  "alpha(delta=1e-8) = %.10e (gap %.1e)" % (est.alpha_estimate, gap))


def test_criterion_5_corrected_frequency_law():
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for a in (0.5, 0.8, 1.0):
        t = simulate_landau(1.0, 1.0, 1.0, a, 0j, 1j, 40.0, 1e-3, SINGLE_ORDER)
        f = measure_frequency(t)
        rel = abs(f * gamma(1.0 + a) - 1.0)
        worst = max(worst, rel)
        details.append("alpha=%.1f rel=%.1e" % (a, rel))
    elapsed = time.perf_counter() - t0
    ok = worst < 5e-3 and elapsed < 30.0
    assert report(5, ok, elapsed,
                  "f * Gamma(1+alpha) vs 1: " + ", ".join(details))


def test_criterion_6_power_rule_vs_quadrature():
    t0 = time.perf_counter()
    h = 1e-3
    worst = 0.0
    n = int(round(2.5 / h))
    xs = h * np.arange(n + 1)
    for beta in (0, 1, 2, 3):
        f = SampledFunction(xs, xs ** beta)
        e = parse_expression("x^%d" % beta, variables=("x",))
        for a in (0.25, 0.5, 0.75):
            d = mrl_derivative_power(SymbolicPower(e, "x"), a)
            for x in (0.5, 1.0, 2.0):
                want = evaluate(d.expr, {"x": x})
                got = mrl_derivative_quadrature(f, a, x)
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    assert report(6, ok, elapsed,
                  "36 cases, worst |quadrature - exact| = %.2e" % worst)


def test_criterion_7_order_one_recovers_classical():
    t0 = time.perf_counter()
    rng = random.Random(7)
    worst = 0.0

    def classical_poisson(U, V, m, pt):
        half = len(m.variables) // 2
        b = m.binding(pt)
        total = 0.0
        for qn, pn in zip(m.variables[:half], m.variables[half:]):
            total += (evaluate(diff(U, qn), b) * evaluate(diff(V, pn), b)
                      - evaluate(diff(U, pn), b) * evaluate(diff(V, qn), b))
        return total

    for name in ("canonical_pair", "landau_full"):
        doc = parse_model_file(MODELS / (name + ".model"))
        m = dataclasses.replace(doc.model, alpha=1.0)
        names = m.variables
        half = len(names) // 2
        chain, table = fj_iterate(m, doc.gauge_conditions)
        U = parse_expression(names[0], variables=names)
        V = parse_expression(names[half], variables=names)
        hj = dict(coarse_hamilton_jacobi(m))
        for _ in range(5):
            pt = {v: rng.uniform(0.2, 2.0) for v in names}
            b = m.binding(pt)
            # fractional Poisson bracket against the classical one
            got = fractional_poisson_bracket(U, V, m, 1.0, pt)
            worst = max(worst, abs(got - classical_poisson(U, V, m, pt)))
            # coarse flow against Hamilton's equations of the potential
            for i in range(half):
                qn, pn = names[i], names[half + i]
                worst = max(worst, abs(evaluate(hj[qn], b)
                                       - evaluate(diff(m.potential, pn), b)))
                worst = max(worst, abs(evaluate(hj[pn], b)
                                       - (-evaluate(diff(m.potential, qn), b))))
            # coarse Dirac bracket against the table entry
            got = coarse_dirac_bracket(U, V, m, point=pt)
            want = evaluate(table.entry(names[0], names[half]), b)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    assert report(7, ok, elapsed,
                  "2 models x 5 points, worst deviation = %.1e" % worst)


def test_criterion_8_chain_and_dirac_agree():
    t0 = time.perf_counter()
    doc = parse_model_file(MODELS / "constrained_3d.model")
    chain, table = fj_iterate(doc.model, doc.gauge_conditions)
    cons = [c for lev in chain.levels for c in lev.constraints]
    names = doc.model.variables
    q = parse_expression("q", variables=names)
    p = parse_expression("p", variables=names)
    pt = {"q": 0.7, "p": 1.1, "z": 0.4}
    direct = coarse_dirac_bracket(q, p, doc.model, cons, pt)
    from_table = evaluate(table.entry("q", "p"), doc.model.binding(pt))
    gap = abs(direct - from_table)
    # a second-class chain with nonzero brackets: the Dirac bracket, as an
    # expression with mom_v = a_v(eta), is the table entry exactly
    names = ("q", "p", "x", "y", "z")
    m = Model(names, tuple(parse_expression(t, variables=names)
                           for t in ("p", "0", "y", "0", "0")),
              parse_expression("1/2*(q^2 + p^2 + x^2 + y^2) + z*(x + q)",
                               variables=names), 1.0)
    chain2, table2 = fj_iterate(m)
    cons2 = [c for lev in chain2.levels for c in lev.constraints]
    pt2 = {"q": 0.3, "p": 0.5, "x": 0.2, "y": 0.7, "z": 0.1}
    exact, values = {}, {}
    for u, v in (("q", "p"), ("q", "y"), ("x", "p"), ("p", "y")):
        U, V = (parse_expression(w, variables=names) for w in (u, v))
        e = _dirac_expr(U, V, m, cons2, 1.0, lambda x: x == ZERO)
        for w, k in zip(names, m.kinetic):
            e = substitute(e, momentum_name(w), k)
        exact[u, v] = simplify(e) == table2.entry(u, v)
        values[u, v] = coarse_dirac_bracket(U, V, m, cons2, pt2)
        gap = max(gap, abs(values[u, v] - evaluate(table2.entry(u, v), pt2)))
    elapsed = time.perf_counter() - t0
    ok = (gap < 1e-9 and abs(direct) < 1e-9 and abs(from_table) < 1e-9
          and [to_text(c) for c in cons2] == ["q + x", "p + y"]
          and all(exact.values())
          and values == {("q", "p"): 0.5, ("q", "y"): -0.5, ("x", "p"): -0.5,
                         ("p", "y"): 0.0}
          and elapsed < 2.0)
    assert report(8, ok, elapsed,
                  "iterated {q, p} = %.1e, direct = %.1e; second-class "
                  "{q, p}, {q, y}, {x, p}, {p, y} = %s, exact: %s"
                  % (from_table, direct, list(values.values()),
                     all(exact.values())))


def test_criterion_9_two_stage_half_derivative_gap():
    # D^(1/2) D^(1/2) differs from D where the power rule says so: on
    # x^(1/2) the inner stage gives the constant Gamma(3/2), the outer stage
    # annihilates it, and D x^(1/2) = 1/2 at x = 1, a gap of 1/2.  On x the
    # two stages give exactly 1 = D x.  The grid computation must show the
    # first gap at every h without shrinking, and the second shrinking like
    # h^(1/2), the rate of the node-0 error of mrl_derivative_grid.
    t0 = time.perf_counter()
    exact = {}
    for text in ("x^(1/2)", "x"):
        f = SymbolicPower(parse_expression(text, variables=("x",)), "x")
        twice = mrl_derivative_power(mrl_derivative_power(f, 0.5), 0.5)
        exact[text] = to_text(twice.expr)
    steps = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4, 1e-4)
    gaps = {}
    for text, fn, direct in (("x^(1/2)", np.sqrt, 0.5),
                             ("x", np.array, 1.0)):
        print("criterion 9 convergence table (f(x) = %s, x = 1, D f = %g):"
              % (text, direct))
        gaps[text] = []
        for h in steps:
            n = int(round(1.25 / h))
            xs = h * np.arange(n + 1)
            inner = mrl_derivative_grid(SampledFunction(xs, fn(xs)), 0.5)
            seq = mrl_derivative_quadrature(SampledFunction(xs, inner), 0.5, 1.0)
            gaps[text].append(abs(seq - direct))
            print("  h=%.1e  two-stage=%.6f  |gap to D f|=%.6f"
                  % (h, seq, gaps[text][-1]))
    elapsed = time.perf_counter() - t0
    root, line = gaps["x^(1/2)"], gaps["x"]
    # 4x refinements: h -> h/4 must halve the quadrature gap on x
    ratios = [line[i] / line[i + 2] for i in range(3)]
    ok = (exact == {"x^(1/2)": "0", "x": "1"}
          and min(root) > 1e-2 and root[-1] >= 0.9 * root[0]
          and all(1.8 <= r <= 2.2 for r in ratios)
          and elapsed < 1.0)
    assert report(9, ok, elapsed,
                  "exact D^(1/2)D^(1/2): x^(1/2) -> %s, x -> %s; gap on "
                  "x^(1/2) %.3f at h=1e-4; gap on x falls %s per 4x refinement"
                  % (exact["x^(1/2)"], exact["x"], root[-1],
                     "/".join("%.3f" % r for r in ratios)))
