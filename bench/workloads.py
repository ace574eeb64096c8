"""Workload inputs, operations and output checks for the fracsymp benchmark.

A workload is a list of `Op`s.  Each op runs one `fracsymp` command through
`fracsymp.cli.main(argv)` in-process, or one public library call, inside the
timed region; `snapshot` then collects what it produced (exit code, captured
standard output, files written) outside the timed region, and `check` turns a
snapshot into a list of failure messages (empty when the output is right).

The three workloads stress different layers:

* quantize-mix: `fracsymp quantize` on the bundled models and on a seeded
  family of dense constant two-forms (n = 5 gives one constraint level, n = 6
  none; numeric order, or symbolic order with Gamma(1 + alpha) in the first
  kinetic row), plus the strong-field report and both estimate-alpha regimes.
  Nearly all time goes to the symbolic inverse (`invert_form` -> `_det` ->
  `simplify`); no fractional history sum runs.  n >= 7 is left out: one
  7-variable model costs seconds at the seed commit.
* history-full: genuinely fractional runs with full history (Grunwald-Letnikov
  and predictor-corrector on the sequential alpha-alpha Landau problem, and a
  model-file run at alpha = 0.5), then the grid derivative of each computed
  position.  The O(N^2) history sums dominate; symbolic work is small.
* stream-long: runs whose per-step cost is bounded (the classically
  integrated single-order Landau problem, a windowed Grunwald-Letnikov run,
  an alpha = 1 model-file run), so time goes to right-hand-side closures and
  CSV emission.

Simulation inputs come from one of `SIM_VARIANTS` seeded parameter sets
(seed modulo `SIM_VARIANTS`), because each set has a stored reference final
state; the quantize family is drawn from the seed itself and checked by
properties that need no stored reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"
MODELS = BENCH_DIR.parent / "src" / "fracsymp" / "models"
WORKLOADS = ("quantize-mix", "history-full", "stream-long")
# the yardstick probe whose slowdown under core contention followed the
# workload's own most closely (yardstick.py): stream-long spends its time in
# per-step Python lists, small arrays and closures, the others in Python
# arithmetic (quantize-mix) and array products (history-full)
PROBE = {"quantize-mix": "arith", "history-full": "arith",
         "stream-long": "objects"}
SIM_VARIANTS = 16
EULER_GAMMA = 0.5772156649015329

BUNDLED = {  # bundled model -> expected exit code
    "canonical_pair": 0,
    "constrained_3d": 0,
    "gauge_demo": 2,
    "landau_full": 0,
    "landau_strong": 0,
}

# A simulation's reference is its state at REF_SAMPLES evenly spaced rows,
# the last row (final state) included.  The relative tolerance is loose
# enough for a reordered summation (<= 1e-12) and far below the change a
# wrong history weight makes.
REF_SAMPLES = 9
REF_RTOL = 1e-9


def ref_rows(steps: int) -> np.ndarray:
    return np.linspace(0, steps, REF_SAMPLES).round().astype(int)


@dataclass
class Op:
    """One operation of a workload pass.

    run(previous) executes inside the timed region; `previous` maps the names
    of ops already run in this pass to their snapshots.  work is the number of
    models (quantize) or integration steps (simulate) the op completes.
    """

    name: str
    kind: str
    work: int
    run: Callable
    snapshot: Callable
    check: Callable


def digest(out: dict) -> str:
    """Content hash of a snapshot, so a repeated output is checked once."""
    h = hashlib.sha1()
    for key in sorted(out):
        val = out[key]
        if key == "table":
            continue  # parsed from "csv", which is hashed
        h.update(key.encode())
        if isinstance(val, np.ndarray):
            h.update(val.tobytes())
        elif isinstance(val, list) and val and isinstance(val[0], np.ndarray):
            for a in val:
                h.update(a.tobytes())
        elif isinstance(val, bytes):
            h.update(val)
        else:
            h.update(repr(val).encode())
    return h.hexdigest()


# -- running the command line in-process -------------------------------------

def cli_call(argv):
    """Run `fracsymp <argv>` in this process; return (exit code, stdout)."""
    from fracsymp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit from inside
            rc = exc.code
    return rc, out.getvalue()


def _cli_snapshot(raw):
    rc, stdout = raw
    return {"rc": rc, "stdout": stdout}


def _cli_op(name: str, kind: str, work: int, argv: tuple, check) -> Op:
    """An op whose output is the exit code and standard output of one
    command."""
    return Op(name, kind, work, lambda prev: cli_call(argv), _cli_snapshot,
              check)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _expect_rc(out: dict, rc: int) -> list:
    if "error" in out:
        return ["raised %s" % out["error"]]
    if out["rc"] != rc:
        return ["exit code %r, expected %d" % (out["rc"], rc)]
    return []


# -- quantize-mix ------------------------------------------------------------

_VALS = (-3, -2, -1, 1, 2, 3)
_ALPHAS = (0.25, 0.375, 0.5, 0.625, 0.75, 0.875)


def _antisym(rnd, n):
    k = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            k[i, j] = rnd.choice(_VALS)
            k[j, i] = -k[i, j]
    return k


@dataclass(frozen=True)
class DenseModel:
    """A model whose two-form is F0 - G (e0 u^T - u e0^T), G = Gamma(1+alpha).

    Kinetic coefficients are a_0 = G u.eta (symbolic members only) and
    a_j = sum_{i<j} F0_ij eta_i, so the form is constant in the variables.
    For odd n, F0 nu = 0 and u.nu = 0 with nu_0 = 0: nu is a constant zero
    mode, its contraction with dV (V = |eta|^2 / 2) is the constraint nu.eta,
    and one level of iteration makes the form invertible.
    """

    n: int
    symbolic: bool
    alpha: float | None
    f0: np.ndarray
    u: np.ndarray
    nu: np.ndarray | None
    quartic: Fraction = Fraction(0)  # V gains quartic * sum(eta^4)

    @property
    def names(self):
        return tuple("x%d" % (i + 1) for i in range(self.n))

    def text(self) -> str:
        names = self.names
        lines = ["# seeded dense benchmark model, n = %d" % self.n,
                 "variables: " + ", ".join(names),
                 "alpha: " + ("symbolic" if self.symbolic else repr(self.alpha))]
        for j, v in enumerate(names):
            if j == 0:
                row = ("Gamma(1 + alpha)*(%s)" % " + ".join(
                    "%d*%s" % (self.u[k], names[k]) for k in range(1, self.n))
                    if self.symbolic else "0")
            else:
                row = " + ".join("%d*%s" % (self.f0[i, j], names[i])
                                 for i in range(j))
            lines.append("kinetic %s: %s" % (v, row))
        potential = "1/2*(%s)" % " + ".join("%s^2" % v for v in names)
        if self.quartic:
            potential += " + %s*(%s)" % (self.quartic, " + ".join(
                "%s^4" % v for v in names))
        lines.append("potential: " + potential)
        return "\n".join(lines) + "\n"

    def form(self, g: float) -> np.ndarray:
        f = self.f0.astype(float)
        if self.symbolic:
            f[0, 1:] -= g * self.u[1:]
            f[1:, 0] += g * self.u[1:]
        return f

    def bordered(self, g: float) -> np.ndarray:
        """The form, bordered for odd n by the constraint gradient nu: the
        form the iteration inverts after its one constraint level."""
        f = self.form(g)
        if self.nu is None:
            return f
        ext = np.zeros((self.n + 1, self.n + 1))
        ext[:self.n, :self.n] = f
        ext[:self.n, self.n] = -self.nu
        ext[self.n, :self.n] = self.nu
        return ext

    def expected_brackets(self, g: float) -> np.ndarray:
        """Original-variable block of the bordered form's inverse (which does
        not depend on the scale or sign of the border)."""
        return np.linalg.inv(self.bordered(g))[:self.n, :self.n]


def dense_model(rnd: random.Random, n: int, symbolic: bool) -> DenseModel:
    """Draw a dense model with no zero off-diagonal form entry and the
    intended rank (n, or n - 1 with an invertible bordered form)."""
    alpha = None if symbolic else rnd.choice(_ALPHAS)
    while True:
        if n % 2 == 0:
            f0 = _antisym(rnd, n)
            u = np.array([0] + [rnd.choice(_VALS) for _ in range(n - 1)])
            nu = None
        else:
            nu = np.array([0] + [rnd.choice((-2, -1, 1, 2))
                                 for _ in range(n - 2)] + [1])
            rows = []
            for _ in range(n - 1):
                r = [rnd.choice(_VALS) for _ in range(n - 1)]
                rows.append(r + [-int(np.dot(r, nu[:-1]))])
            p = np.array(rows, dtype=np.int64)
            f0 = p.T @ _antisym(rnd, n - 1) @ p
            u = [0] + [rnd.choice(_VALS) for _ in range(n - 2)]
            u.append(-int(np.dot(u, nu[:-1])))
            u = np.array(u)
        m = DenseModel(n, symbolic, alpha, f0, u, nu)
        off = ~np.eye(n, dtype=bool)
        if not (np.all(f0[off] != 0) and np.all(u[1:] != 0)):
            continue
        if all(np.linalg.matrix_rank(m.form(g)) == (n if nu is None else n - 1)
               and np.linalg.cond(m.bordered(g)) < 1e8
               for g in (math.gamma(1.3), math.gamma(1.8))):
            return m


def _inconsistent_text(rnd) -> str:
    return ("# seeded benchmark model: the zero mode of z gives a constant "
            "constraint\nvariables: q, p, z\nalpha: 1\nkinetic q: %d*p\n"
            "kinetic p: 0\nkinetic z: 0\npotential: 1/2*(q^2 + p^2) + %d*z\n"
            % (rnd.choice((1, 2, 3)), rnd.choice((1, 2, 3))))


def _evaluate_table(rows, names, binding):
    from fracsymp.expr import evaluate, parse_expression

    allowed = set(names) | {"alpha"} | set(binding)
    return np.array([[evaluate(parse_expression(t, variables=names,
                                                allowed=allowed), binding)
                      for t in row] for row in rows])


def _points(seed_text: str, names, symbolic: bool, alpha):
    """Two seeded evaluation points: variable values and, for a symbolic
    order, a value of alpha."""
    rnd = random.Random(seed_text)
    out = []
    for _ in range(2):
        b = {v: rnd.uniform(-2.0, 2.0) for v in names}
        b["alpha"] = rnd.uniform(0.05, 0.95) if symbolic else alpha
        out.append(b)
    return out


def _check_table_normalizations(payload, names, binding) -> list:
    table = payload["table"]
    plain = _evaluate_table(table["brackets"], names, binding)
    if table["normalizations"]["section_6_3"] != table["brackets"]:
        return ["section_6_3 normalization differs from the brackets"]
    scaled = _evaluate_table(table["normalizations"]["section_5_2"], names,
                             binding)
    a = binding["alpha"]
    pref = 1.0 if a == 1.0 else math.gamma(1.0 + a) ** -2
    if not np.allclose(scaled, pref * plain, rtol=1e-9, atol=1e-12):
        return ["section_5_2 normalization is not 1/Gamma(1+alpha)^2 times "
                "the brackets"]
    return []


def check_dense(out: dict, model: DenseModel, key: str) -> list:
    bad = _expect_rc(out, 0)
    if bad:
        return bad
    payload = json.loads(out["stdout"])
    levels = 0 if model.nu is None else 1
    if payload["status"] != "regular" or len(payload["levels"]) != levels:
        return ["status %s with %d levels, expected regular with %d"
                % (payload["status"], len(payload["levels"]), levels)]
    names = model.names
    if payload["table"]["variables"] != list(names):
        return ["bracket table variables %r" % payload["table"]["variables"]]
    fails = []
    for b in _points(key, names, model.symbolic, model.alpha):
        g = math.gamma(1.0 + b["alpha"])
        got = _evaluate_table(payload["table"]["brackets"], names, b)
        if model.nu is None:
            resid = np.abs(model.form(g) @ got - np.eye(model.n)).max()
        else:
            want = model.expected_brackets(g)
            resid = np.abs(got - want).max() / max(1.0, np.abs(want).max())
        if not resid <= 1e-9:
            fails.append("brackets are not the inverse of the form: residual "
                         "%.3g at alpha=%r" % (resid, b["alpha"]))
        fails += _check_table_normalizations(payload, names, b)
    return fails


def check_bundled(out: dict, name: str) -> list:
    bad = _expect_rc(out, BUNDLED[name])
    if bad:
        return bad
    ref = (REF_DIR / "brackets" / (name + ".json")).read_text()
    fails = [] if out["stdout"] == ref else [
        "bracket JSON differs from the reference bytes"]
    if name == "landau_strong":
        payload = json.loads(out["stdout"])
        entry = payload["table"]["brackets"][0][1]
        for a in (0.2, 0.7):
            b = {"r1": 0.3, "r2": -0.4, "alpha": a, "e": 1.0, "B": 1.0}
            got = _evaluate_table([[entry]], ("r1", "r2"), b)[0, 0]
            want = 1.0 / (b["e"] * b["B"] * math.gamma(1.0 + a))
            if not _rel(got, want) <= 1e-10:
                fails.append("strong-field entry %r != 1/(eB Gamma(1+alpha)) "
                             "at alpha=%r" % (got, a))
    return fails


def check_report(out: dict, e: float, B: float, alpha: float) -> list:
    bad = _expect_rc(out, 0)
    if bad:
        return bad
    rep = json.loads(out["stdout"])
    want = 1.0 / (e * B * math.gamma(1.0 + alpha))
    norm = rep["bracket_normalizations"]
    fails = []
    if not _rel(norm["section_6_3"], want) <= 1e-10:
        fails.append("strong-field entry %r != %r" % (norm["section_6_3"], want))
    if not _rel(norm["section_5_2"], want / math.gamma(1.0 + alpha) ** 2) <= 1e-10:
        fails.append("scaled strong-field entry %r" % norm["section_5_2"])
    if not _rel(rep["relative_correction"], alpha * EULER_GAMMA) <= 1e-12:
        fails.append("relative correction %r" % rep["relative_correction"])
    return fails


def check_estimate(out: dict, regime: str, delta: float) -> list:
    bad = _expect_rc(out, 0)
    if bad:
        return bad
    est = json.loads(out["stdout"])["alpha_estimate"]
    if regime == "small":
        ok = _rel(est, delta / EULER_GAMMA) <= 1e-12
    else:
        ok = 0.99 < est < 1.0 and _rel(math.gamma(1.0 + est),
                                       1.0 / (1.0 + delta)) <= 1e-10
    return [] if ok else ["%s estimate %r for delta %r" % (regime, est, delta)]


def quantize_mix(seed: int, work: Path):
    rnd = random.Random(seed)
    ops = []
    for name in BUNDLED:
        ops.append(_cli_op("bundled:" + name, "quantize", 1,
                           ("quantize", str(MODELS / (name + ".model"))),
                           lambda out, name=name: check_bundled(out, name)))
    for n, symbolic in ((5, False), (6, False), (5, True), (6, True)):
        m = dense_model(rnd, n, symbolic)
        key = "dense-%d-%s-%d" % (n, "sym" if symbolic else "num", seed)
        path = work / (key + ".model")
        path.write_text(m.text())
        ops.append(_cli_op(key, "quantize", 1, ("quantize", str(path)),
                           lambda out, m=m, key=key: check_dense(out, m, key)))
    path = work / "inconsistent.model"
    path.write_text(_inconsistent_text(rnd))

    def check_inconsistent(out):
        bad = _expect_rc(out, 3)
        if bad:
            return bad
        payload = json.loads(out["stdout"])
        if payload["status"] != "inconsistent" or payload["table"] is not None:
            return ["status %s, expected inconsistent" % payload["status"]]
        return []

    ops.append(_cli_op("inconsistent", "quantize", 1, ("quantize", str(path)),
                       check_inconsistent))
    for i in range(3):
        alpha = round(rnd.uniform(1e-5, 9e-4), 7)
        e, B = round(rnd.uniform(0.5, 2.0), 3), round(rnd.uniform(0.5, 2.0), 3)
        argv = ("report-hall", "--alpha", repr(alpha), "--e", repr(e),
                "--B", repr(B))
        ops.append(_cli_op("report-hall:%d" % i, "hall", 0, argv,
                           lambda out, e=e, B=B, a=alpha: check_report(out, e, B, a)))
    for regime in ("small", "near-one"):
        for i in range(3):
            delta = float("%.6g" % (10 ** rnd.uniform(-7, math.log10(9e-4))))
            argv = ("estimate-alpha", "--delta", repr(delta),
                    "--regime", regime)
            ops.append(_cli_op("estimate-%s:%d" % (regime, i), "hall", 0, argv,
                               lambda out, r=regime, d=delta:
                               check_estimate(out, r, d)))
    return ops


# -- simulation workloads ----------------------------------------------------

def load_refs() -> dict:
    path = REF_DIR / "trajectories.json"
    return json.loads(path.read_text()) if path.exists() else {}


@dataclass(frozen=True)
class SimCase:
    """One `fracsymp simulate` invocation plus what its output must satisfy.

    exact(t) gives the analytic state at times t (rows of the trajectory),
    matched to exact_tol relative to its largest entry; conserved(states)
    is an invariant of the exact flow, whose relative drift must stay
    within conserved_tol; frequency is the expected --measure-frequency
    value, matched to freq_tol.
    """

    name: str
    argv: tuple
    steps: int
    meta: dict                     # expected sidecar fields
    exact: Callable | None = None
    exact_tol: float = 0.0
    conserved: Callable | None = None
    conserved_tol: float = 0.0
    frequency: float | None = None
    freq_tol: float = 1e-4


def _sim_snapshot(raw, path: Path):
    rc, stdout = raw
    out = {"rc": rc, "stdout": stdout}
    if rc == 0:
        data = path.read_bytes()
        out["csv"] = data
        out["sidecar"] = Path(str(path) + ".json").read_text()
        out["table"] = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                                  ndmin=2)
    return out


def check_sim(out: dict, case: SimCase, ref) -> list:
    """Exit code, trajectory length, sidecar fields, then the reference
    samples (when `ref` is not False), the analytic solution and the
    measured frequency."""
    bad = _expect_rc(out, 0)
    if bad:
        return bad
    fails = []
    table = out["table"]
    if table.shape[0] != case.steps + 1:
        return ["trajectory has %d rows, expected %d"
                % (table.shape[0], case.steps + 1)]
    meta = json.loads(out["sidecar"])
    for k, v in case.meta.items():
        if meta.get(k) != v:
            fails.append("sidecar %s = %r, expected %r" % (k, meta.get(k), v))
    if ref is None:
        fails.append("no reference samples for this input")
    elif ref is not False:
        ref = np.array(ref)
        dev = np.abs(table[ref_rows(case.steps)] - ref).max() / np.abs(ref).max()
        if not dev <= REF_RTOL:
            fails.append("trajectory off the reference samples by %.3g "
                         "(relative)" % dev)
    if case.exact is not None:
        want = case.exact(table[:, 0]).real
        dev = np.abs(table[:, 1:] - want).max() / np.abs(want).max()
        if not dev <= case.exact_tol:
            fails.append("trajectory leaves the analytic solution by %.3g "
                         "(relative)" % dev)
    if case.conserved is not None:
        v = case.conserved(table[:, 1:])
        drift = np.abs(v - v[0]).max() / abs(v[0])
        if not drift <= case.conserved_tol:
            fails.append("conserved quantity drifts by %.3g (relative)" % drift)
    if case.frequency is not None:
        words = out["stdout"].split()
        got = float(words[1]) if len(words) == 2 else float("nan")
        if not _rel(got, case.frequency) <= case.freq_tol:
            fails.append("measured frequency %r, expected %r"
                         % (got, case.frequency))
    return fails


def check_mrl(out: dict, alpha: float, tol: float, pairs) -> list:
    """D^alpha of computed positions against the computed rates, away from
    the first time unit, where the one-sided end stencil is inexact."""
    if "error" in out:
        return ["raised %s" % out["error"]]
    table = out["source"]
    start = int(round(1.0 / (table[1, 0] - table[0, 0])))
    fails = []
    for d, (pos, rate) in zip(out["derivatives"], pairs):
        err = np.abs(d[start:] - table[start:, rate]).max()
        if not err <= tol:
            fails.append("D^%g of column %d differs from column %d by %.3g"
                         % (alpha, pos, rate, err))
    return fails


def _sim_op(case: SimCase, work: Path, ref, counted: bool = True):
    path = work / (case.name.replace(":", "-") + ".csv")
    argv = case.argv + ("--out", str(path))
    return Op(case.name, "simulate", case.steps if counted else 0,
              lambda prev: cli_call(argv),
              lambda raw: _sim_snapshot(raw, path),
              lambda out: check_sim(out, case, ref))


def _mrl_op(source: str, alpha: float, tol: float, pairs):
    def run(prev):
        from fracsymp import frac

        table = prev[source]["table"]
        return table, [frac.mrl_derivative_grid(
            frac.SampledFunction(table[:, 0], table[:, pos]), alpha)
            for pos, _ in pairs]

    return Op("mrl:" + source, "mrl", 0, run,
              lambda raw: {"source": raw[0], "derivatives": raw[1]},
              lambda out: check_mrl(out, alpha, tol, pairs))


def _landau_params(variant: int):
    rnd = random.Random(1000 + variant)
    e, B = round(rnd.uniform(0.9, 1.1), 3), round(rnd.uniform(0.9, 1.1), 3)
    z0 = complex(round(rnd.uniform(-0.5, 0.5), 3), round(rnd.uniform(-0.5, 0.5), 3))
    w0 = complex(round(rnd.uniform(0.3, 0.8), 3), round(rnd.uniform(-0.8, 0.8), 3))
    return e, B, z0, w0


def _pair(z: complex) -> str:
    return "%r,%r" % (z.real, z.imag)


def _landau_argv(e, B, z0, w0, T, h, extra=()):
    return ("simulate", "--landau", repr(e), repr(B), "1.0", "--alpha", "0.5",
            "--T", repr(T), "--h", repr(h), "--z0=" + _pair(z0),
            "--v0=" + _pair(w0)) + tuple(extra)


def _meta(alpha, scheme, composition, step, horizon, window=None):
    return {"alpha": alpha, "scheme": scheme, "composition": composition,
            "step": step, "horizon": horizon, "memory_window": window}


def _landau_orbit(z0: complex, w0: complex, omega: float) -> Callable:
    """Analytic (r1, r2, w1, w2) of dw/dt = i omega w, dr/dt = w."""
    def f(t):
        turn = np.exp(1j * omega * t)
        r = z0 + w0 / (1j * omega) * (turn - 1.0)
        w = w0 * turn
        return np.column_stack([r.real, r.imag, w.real, w.imag])
    return f


def flow_model(rnd: random.Random) -> DenseModel:
    """A dense 4-variable alpha = 1 model with V = |eta|^2/2 + sum(eta^4)/8:
    its equations of motion d eta/dt = F^-1 grad V have six-term right-hand
    sides (no zero entry in F^-1 off the diagonal), and, F being
    antisymmetric, they conserve V."""
    while True:
        f0 = _antisym(rnd, 4)
        if np.linalg.matrix_rank(f0) < 4:
            continue
        a = np.linalg.inv(f0)
        off = ~np.eye(4, dtype=bool)
        if np.all(np.abs(a[off]) > 1e-9) and 0.5 <= np.linalg.norm(a, 2) <= 2.0:
            return DenseModel(4, False, 1.0, f0, np.zeros(4, dtype=np.int64),
                              None, Fraction(1, 8))


def sim_cases(workload: str, variant: int, work: Path):
    e, B, z0, w0 = _landau_params(variant)
    seq = ("--composition", "sequential-alpha-alpha")
    if workload == "history-full":
        initial = "--initial=%s,%s" % (_pair(z0), _pair(w0))
        return [
            SimCase("gl", _landau_argv(e, B, z0, w0, 80.0, 1e-2, seq + (
                "--scheme", "grunwald-letnikov")), 8000,
                _meta(0.5, "grunwald-letnikov", "sequential-alpha-alpha",
                      1e-2, 80.0)),
            SimCase("pece", _landau_argv(e, B, z0, w0, 60.0, 1e-2, seq + (
                "--scheme", "predictor-corrector")), 6000,
                _meta(0.5, "predictor-corrector", "sequential-alpha-alpha",
                      1e-2, 60.0)),
            SimCase("model-frac", ("simulate", str(MODELS / "landau_full.model"),
                                   "--alpha", "0.5", initial, "--T", "40.0",
                                   "--h", "0.01"), 4000,
                    _meta(0.5, "grunwald-letnikov", "single-order", 1e-2, 40.0)),
        ]
    omega = e * B / math.gamma(1.5)
    rnd = random.Random(2000 + variant)
    model = flow_model(rnd)
    eta0 = [round(rnd.uniform(-1.0, 1.0), 3) for _ in range(4)]
    path = work / "flow.model"
    path.write_text(model.text())

    def energy(states):
        return 0.5 * (states ** 2).sum(axis=1) + float(model.quartic) * (
            states ** 4).sum(axis=1)
    return [
        SimCase("single", _landau_argv(e, B, z0, w0, 80.0, 1e-3, (
            "--measure-frequency",)), 80000,
            _meta(1.0, "predictor-corrector", "single-order", 1e-3, 80.0),
            exact=_landau_orbit(z0, w0, omega), exact_tol=5e-4,
            frequency=omega),
        SimCase("windowed", _landau_argv(e, B, z0, w0, 100.0, 1e-2, seq + (
            "--scheme", "grunwald-letnikov", "--memory-window", "1000")), 10000,
            _meta(0.5, "grunwald-letnikov", "sequential-alpha-alpha", 1e-2,
                  100.0, 1000)),
        SimCase("model-classical", ("simulate", str(path), "--alpha", "1",
                                    "--scheme", "predictor-corrector",
                                    "--initial=" + ",".join(map(repr, eta0)),
                                    "--T", "20.0", "--h", "0.001"), 20000,
                _meta(1.0, "predictor-corrector", "single-order", 1e-3, 20.0),
                conserved=energy, conserved_tol=5e-6),
    ]


# tolerance on max |D^alpha r - u| per source run, about ten times the
# largest error any variant shows at the seed commit
MRL_TOL = {"gl": 3e-2, "pece": 1.5e-3, "model-frac": 3e-2}


def smoke_ops(work: Path, quantize: bool) -> list:
    """Small fixed instances of the commands a workload does not otherwise
    run, so that every layer is measured on every workload.  None of them
    runs a fractional history sum: the simulation is an alpha = 1 (explicit
    Euler) run of the canonical pair, and its grid derivative is taken at
    order 1."""
    ops = []
    if quantize:
        ops.append(_cli_op("smoke:quantize", "quantize", 0,
                           ("quantize", str(MODELS / "constrained_3d.model")),
                           lambda out: check_bundled(out, "constrained_3d")))
        ops.append(_cli_op("smoke:report-hall", "hall", 0,
                           ("report-hall", "--alpha", "0.0005"),
                           lambda out: check_report(out, 1.0, 1.0, 0.0005)))
        for regime in ("small", "near-one"):
            ops.append(_cli_op("smoke:estimate-" + regime, "hall", 0,
                               ("estimate-alpha", "--delta", "1e-06",
                                "--regime", regime),
                               lambda out, r=regime: check_estimate(out, r, 1e-6)))
    h = 0.01
    euler = np.array([[1.0, h], [-h, 1.0]])  # one Euler step of q' = p, p' = -q
    w, v = np.linalg.eig(euler)
    c = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
    case = SimCase("smoke:simulate", (
        "simulate", str(MODELS / "canonical_pair.model"), "--alpha", "1",
        "--initial=1.0,0.0", "--T", "20.0", "--h", repr(h),
        "--measure-frequency"), 2000,
        _meta(1.0, "grunwald-letnikov", "single-order", h, 20.0),
        exact=lambda t: (w[None, :] ** np.rint(t / h)[:, None] * c) @ v.T,
        exact_tol=1e-9, frequency=1.0, freq_tol=3e-3)
    ops.append(_sim_op(case, work, False, counted=False))
    ops.append(_mrl_op("smoke:simulate", 1.0, 2e-2, ((1, 2),)))
    return ops


def simulation(workload: str, seed: int, work: Path):
    variant = seed % SIM_VARIANTS
    states = load_refs().get(workload, {}).get(str(variant), {})
    ops = [_sim_op(c, work, states.get(c.name))
           for c in sim_cases(workload, variant, work)]
    if workload == "history-full":
        ops += [_mrl_op(src, 0.5, tol, ((1, 3), (2, 4)))
                for src, tol in MRL_TOL.items()]
    return ops + smoke_ops(work, quantize=True)


def build(workload: str, seed: int, work: Path):
    """The ops of one workload for one seed; model files go under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "quantize-mix":
        return quantize_mix(seed, work) + smoke_ops(work, quantize=False)
    if workload in ("history-full", "stream-long"):
        return simulation(workload, seed, work)
    raise ValueError("unknown workload %r" % workload)
