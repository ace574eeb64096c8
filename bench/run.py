"""fracsymp benchmark: one workload per fresh process, every metric by name.

    python3 bench/run.py --workload quantize-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of
BENCHMARK.json instead.  End-to-end times are in reference seconds, scaled
by the host speed measured while they ran (yardstick.py); per-layer times
are plain seconds.  Every operation's output is checked (outside the timed
region); `failed` counts operations whose exit code or output was wrong.

    python3 bench/run.py --record-refs

rewrites the reference data under bench/ref/ from the program in `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11

# One BLAS thread and a fixed string hash seed, so that a run is
# single-threaded and its call counts repeat exactly.  The run is also held
# to one CPU, so that the yardstick's probes (yardstick.py) and the operations
# it scales share a core and whatever contends for it.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _pin_environment():
    """Hold this process to one CPU; re-execute this script under PINNED_ENV
    unless it already runs there."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program and build inputs, then exit "
                        "(what setup_s times)")
    p.add_argument("--record-refs", action="store_true")
    args = p.parse_args(argv)
    if not args.record_refs and args.workload is None:
        p.error("--workload is required")
    return args


def _work_dir(tag: str) -> Path:
    return WORK / ("%s-%d" % (tag, os.getpid()))


def remove_work_dir(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def machine_record() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]),
                      "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads, "machine": platform.machine()}


def time_setup(workload: str, seed: int, probe: str) -> float:
    """Median time, in reference seconds, of fresh interpreters that import
    the program and build the workload's inputs.  The first start is
    untimed: it writes the bytecode caches a fresh checkout lacks."""
    from yardstick import PROBES, probe_burst

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    subprocess.run(cmd, check=True)
    times, speeds = [], [probe_burst(probe)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
        speeds.append(probe_burst(probe))
    print("setup seconds: %s" % " ".join("%.3f" % t for t in times))
    # the host speed of each start is that of the probe bursts around it
    return statistics.median(
        t * PROBES[probe][1] / ((s0 + s1) / 2)
        for t, s0, s1 in zip(times, speeds, speeds[1:]))


class Checker:
    """Counts attempted and failed operations; identical outputs (equal
    `digest(output)`) are checked once."""

    def __init__(self, digest):
        self.digest = digest
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, op, out):
        self.attempted += 1
        key = (op.name, self.digest(out))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                self.verdicts[key] = ["check raised %r" % exc]
            for msg in self.verdicts[key]:
                sys.stderr.write("FAIL %s: %s\n" % (op.name, msg))
        if self.verdicts[key]:
            self.failed += 1


def run_pass(ops, probe: str | None = None):
    """Run every op once; return (op seconds by name, snapshots by name,
    op reference seconds by name).  `probe` names the yardstick's probe
    kind; without one the last mapping is empty and no probe runs."""
    from yardstick import Yardstick

    outs, stretches = {}, {}
    with Yardstick(probe) if probe else contextlib.nullcontext() as ys:
        for op in ops:
            t0 = time.perf_counter()
            try:
                raw = op.run(outs)
                t1 = time.perf_counter()
                out = op.snapshot(raw)
            except Exception as exc:  # the op fails; the pass goes on
                t1 = time.perf_counter()
                out = {"error": repr(exc)}
            stretches[op.name] = (t0, t1)
            outs[op.name] = out
    times = {name: t1 - t0 for name, (t0, t1) in stretches.items()}
    ref_times = {name: ys.reference_seconds(*s)
                 for name, s in stretches.items()} if probe else {}
    return times, outs, ref_times


def measure(ops, seconds: float, check, trace: bool, probe: str):
    """Repeat passes for `seconds`, checking every output.  Untraced: return
    the end-to-end figures (medians over passes, in reference seconds).
    Traced: alternate untraced and traced passes and return the per-layer
    figures (in seconds)."""
    walls, ref_walls, rates, traced_walls, layers = [], [], [], [], []
    if trace:
        import tracing
    start = time.perf_counter()
    passes = 0
    while passes < (4 if trace else 3) or time.perf_counter() - start < seconds:
        if trace and passes % 2:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                times, outs, _ = run_pass(ops)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(times.values()))
            layers.append(tracing.layer_metrics(tracer))
        else:
            times, outs, ref_times = run_pass(ops, None if trace else probe)
            walls.append(sum(times.values()))
            if not trace:
                ref_walls.append(sum(ref_times.values()))
                busy = sum(ref_times[op.name] for op in ops if op.work)
                rates.append(sum(op.work for op in ops) / busy)
        for op in ops:
            check(op, outs[op.name])
        del outs  # so two passes' outputs never count towards peak_rss_mb
        passes += 1
    print("pass seconds: untraced %s; traced %s" % (
        " ".join("%.3f" % x for x in walls),
        " ".join("%.3f" % x for x in traced_walls) or "-"))
    if not trace:
        print("pass reference seconds: %s" % " ".join(
            "%.3f" % x for x in ref_walls))
        return {"wall_s": statistics.median(ref_walls),
                "work_per_s": statistics.median(rates)}
    # median_low keeps each figure a measured value (and counts integers)
    out = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(walls))
    return out


def record_refs():
    import workloads as w

    brackets = w.REF_DIR / "brackets"
    brackets.mkdir(parents=True, exist_ok=True)
    for name in w.BUNDLED:
        _, out = w.cli_call(("quantize", str(w.MODELS / (name + ".model"))))
        (brackets / (name + ".json")).write_text(out)
    states = {}
    work = _work_dir("refs")
    try:
        for workload in ("history-full", "stream-long"):
            states[workload] = {}
            for variant in range(w.SIM_VARIANTS):
                ops = w.build(workload, variant, work)
                _, outs, _ = run_pass(ops)
                states[workload][str(variant)] = {
                    op.name: outs[op.name]["table"][w.ref_rows(op.work)].tolist()
                    for op in ops if op.kind == "simulate" and op.work}
    finally:
        remove_work_dir(work)
    (w.REF_DIR / "trajectories.json").write_text(
        json.dumps(states, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fracsymp" / "cli.py").is_file():
        sys.stderr.write("bench: no program source at %s\n" % SRC)
        return 2
    _pin_environment()
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.record_refs:
        record_refs()
        return 0
    if args.setup_only:
        import fracsymp.cli  # noqa: F401  (the import every invocation pays)
        import workloads
        work = _work_dir("setup")
        try:
            workloads.build(args.workload, args.seed, work)
        finally:
            remove_work_dir(work)
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("bench: unknown workload %r\n" % args.workload)
        return 2
    probe = workloads.PROBE[args.workload]
    setup_s = None if args.trace else time_setup(args.workload, args.seed,
                                                 probe)
    work = _work_dir(args.workload)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        check = Checker(workloads.digest)
        metrics = measure(ops, args.seconds, check, bool(args.trace), probe)
    finally:
        remove_work_dir(work)
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["ok_ratio"] = 1.0 - check.failed / check.attempted
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print("machine %s" % json.dumps(machine_record(), sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
