"""Self-tests of the benchmark harness (not of the program).

    python3 bench/selftest.py

* every output check passes on the program's real output and fails on a
  corrupted one: a wrong exit code, a perturbed bracket entry, report or
  estimate value, a perturbed trajectory sample, sidecar field, measured
  frequency or grid derivative;
* the reference-sample check tolerates a 1e-13 relative change of the history
  weights and rejects a 1e-6 change of one weight;
* two traced runs of the same workload and seed give identical counts, and
  both kinds of run print exactly the metrics BENCHMARK.json lists;
* the yardstick drops probe time from a stretch and weighs the rest by the
  probed host speed, and its timer leaves a timed pass's outputs unchanged.

The file name keeps pytest from collecting it with the program's tests.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from fracsymp import dynamics  # noqa: E402

SEED = 5


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py")] + list(args),
                          capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _perturb_bracket(out):
    """Scale the first off-diagonal bracket entry by 1001/1000 in place in
    the JSON text, leaving every other byte alone."""
    payload = json.loads(out["stdout"])
    old = payload["table"]["brackets"][0][1]
    head, sep, rest = out["stdout"].partition('"brackets"')
    rest = rest.replace(json.dumps(old), json.dumps("(%s)*1001/1000" % old), 1)
    return dict(out, stdout=head + sep + rest)


def _with_json(out, edit):
    payload = json.loads(out["stdout"])
    edit(payload)
    return dict(out, stdout=json.dumps(payload))


def _with_table(out, edit):
    table = out["table"].copy()
    edit(table)
    return dict(out, table=table)


def _case_checks(workload):
    """Names of the analytic checks each simulate op of `workload` has."""
    cases = {"smoke:simulate": ("analytic",)}
    if workload != "quantize-mix":
        work = run.WORK / "selftest" / "cases"
        work.mkdir(parents=True, exist_ok=True)
        for c in workloads.sim_cases(workload, SEED % workloads.SIM_VARIANTS,
                                     work):
            cases[c.name] = tuple(
                text for text, present in (("analytic", c.exact),
                                           ("conserved", c.conserved))
                if present is not None)
    return cases


def corruptions(op, out, analytic=()):
    """(label, corrupted output, expected failure text) for one op;
    `analytic` names the analytic checks a simulate op has."""
    if "rc" in out:
        yield "exit code", dict(out, rc=(out["rc"] + 1) % 4), "exit code"
    if op.kind == "quantize" and json.loads(out["stdout"])["table"]:
        want = ("reference bytes" if op.name.startswith(("bundled", "smoke"))
                else "inverse of the form")
        yield "bracket entry", _perturb_bracket(out), want
        if op.name == "bundled:landau_strong":
            yield "strong-field entry", _perturb_bracket(out), "strong-field"
    if op.name.startswith(("report-hall", "smoke:report-hall")):
        def edit(p):
            p["bracket_normalizations"]["section_6_3"] *= 1.0 + 1e-8
        yield "report value", _with_json(out, edit), "strong-field entry"
    if "estimate" in op.name:
        def edit(p):
            p["alpha_estimate"] *= 1.0 + 1e-9
        yield "estimate", _with_json(out, edit), "estimate"
    if op.kind == "simulate":
        def last(t):
            t[-1, 1] += 1e-6 * max(1.0, abs(t[-1, 1]))
        def middle(t):
            t[len(t) // 2, 1] += 1e-2
        if op.work:
            yield "final sample", _with_table(out, last), "reference samples"
            yield "middle sample", _with_table(out, middle), "reference samples"
        for want in analytic:
            yield "middle sample vs " + want, _with_table(out, middle), want
        meta = json.loads(out["sidecar"])
        meta["alpha"] = 0.25
        yield "sidecar", dict(out, sidecar=json.dumps(meta)), "sidecar"
        if out["stdout"]:
            f = float(out["stdout"].split()[1]) * 1.01
            yield "frequency", dict(out, stdout="measured_frequency %r\n" % f), \
                "frequency"
    if op.kind == "mrl":
        d = [a.copy() for a in out["derivatives"]]
        d[0][len(d[0]) // 2] += 0.1
        yield "grid derivative", dict(out, derivatives=d), "differs"


class ChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.WORK / "selftest"
        cls.passes = {}
        for w in workloads.WORKLOADS:
            ops = workloads.build(w, SEED, cls.work / w)
            cls.passes[w] = (ops, run.run_pass(ops)[1])

    @classmethod
    def tearDownClass(cls):
        run.remove_work_dir(cls.work)

    def test_real_outputs_pass(self):
        for w, (ops, outs) in self.passes.items():
            for op in ops:
                with self.subTest(workload=w, op=op.name):
                    self.assertEqual(op.check(outs[op.name]), [])

    def test_corrupted_outputs_fail(self):
        for w, (ops, outs) in self.passes.items():
            analytic = _case_checks(w)
            for op in ops:
                for label, bad, want in corruptions(op, outs[op.name],
                                                    analytic.get(op.name, ())):
                    with self.subTest(workload=w, op=op.name, corruption=label):
                        fails = op.check(copy.copy(bad))
                        self.assertTrue(any(want in f for f in fails),
                                        "%r not in %r" % (want, fails))

    def test_reference_tolerance_separates_rounding_from_a_wrong_weight(self):
        ops = workloads.build("history-full", SEED, self.work / "weights")
        gl = next(op for op in ops if op.name == "gl")
        original = dynamics._gl_weights
        cases = {"rounding": (lambda w: w * (1.0 + 1e-13), True),
                 "wrong weight": (lambda w: w + np.eye(1, len(w), 3)[0] * w[3] * 1e-6,
                                  False)}
        for label, (change, ok) in cases.items():
            dynamics._gl_weights = lambda a, n, c=change: c(original(a, n))
            try:
                out = gl.snapshot(gl.run({}))
            finally:
                dynamics._gl_weights = original
            with self.subTest(label):
                fails = gl.check(out)
                self.assertEqual(fails == [], ok, fails)


class YardstickArithmetic(unittest.TestCase):
    def _ys(self, probe_times):
        ys = yardstick.Yardstick("arith")
        ys.starts = [float(k) for k in range(1, len(probe_times) + 1)]
        ys.ends = [t + 0.1 for t in ys.starts]
        ys.times = list(probe_times)
        return ys

    def test_probe_time_dropped_and_speed_applied(self):
        ref = yardstick.PROBES["arith"][1]
        ys = self._ys([2 * ref] * 6)  # a host at half the reference speed
        # [0.5, 6.5] holds 6.0 s, 0.6 s of it in probes
        self.assertAlmostEqual(ys.reference_seconds(0.5, 6.5), 5.4 / 2)
        self.assertAlmostEqual(ys.reference_seconds(2.2, 2.8), 0.6 / 2)
        self.assertAlmostEqual(ys.reference_seconds(0.9, 1.2), 0.2 / 2)

    def test_one_slow_probe_does_not_move_the_speed(self):
        ref = yardstick.PROBES["arith"][1]
        ys = self._ys([ref, ref, ref, 50 * ref, ref, ref, ref])
        self.assertAlmostEqual(ys.reference_seconds(3.2, 4.0), 0.8)

    def test_timed_pass_gives_the_untimed_outputs(self):
        ops = workloads.build("quantize-mix", SEED, run.WORK / "yardstick")
        try:
            times, outs, ref_times = run.run_pass(ops, "arith")
        finally:
            run.remove_work_dir(run.WORK / "yardstick")
        for op in ops:
            with self.subTest(op=op.name):
                self.assertEqual(op.check(outs[op.name]), [])
                self.assertGreater(ref_times[op.name], 0.0)


class TracedRuns(unittest.TestCase):
    def test_counts_repeat_and_metric_names_match(self):
        spec = _spec()
        per_layer = [m["name"] for m in spec["per_layer"]]
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        for w in workloads.WORKLOADS:
            args = ("--workload", w, "--seed", str(SEED), "--seconds", "0",
                    "--trace", "1")
            first, second = _bench(*args), _bench(*args)
            with self.subTest(workload=w):
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(list(first["metrics"]), per_layer)
                self.assertEqual({k: first["metrics"][k]["value"] for k in exact},
                                 {k: second["metrics"][k]["value"] for k in exact})
        e2e = _bench("--workload", "history-full", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0")
        self.assertEqual(list(e2e["metrics"]),
                         [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(e2e["failed"], 0)


if __name__ == "__main__":
    unittest.main()
