"""Batch front end: quantize model files, run simulations, print estimates.

Exit codes: 0 success (quantize: a Regular terminal), 1 parse, IO, or
parameter errors, 2 a GaugeTheory terminal, 3 an Inconsistent terminal.
Every error on bad input (a FracsympError, OSError or ValueError) is
caught once, in `main`, and printed as one `fracsymp: error: ...` line.
JSON results go to --out when given, otherwise to standard output; logs
and diagnostics go to standard error, so piped output stays machine
readable.  All JSON is rendered deterministically: fixed key order and
17-significant-digit floats.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import replace

from . import dynamics, hall, modelfile, symplectic
from .expr import FracsympError, to_text
from .serialize import render_json

_EXIT_BY_STATUS = {
    symplectic.REGULAR: 0,
    symplectic.GAUGE_THEORY: 2,
    symplectic.INCONSISTENT: 3,
}


class _Parser(argparse.ArgumentParser):
    """argparse front end that exits 1 (not 2) on usage errors and reads
    -1e-3 after a flag as a number, as it does -0.001."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # what argparse takes for a negative number, not an option string
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+|\d*\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fracsymp",
                description="fractional symplectic quantization toolkit")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("quantize",
                       help="run the constraint iteration on a model file")
    q.add_argument("model", help="model document path")
    q.add_argument("--alpha", default=None,
                   help="override the model's order: a number or 'symbolic'")
    q.add_argument("--out", default=None, help="write the JSON result here")
    q.add_argument("--verbose", action="store_true")

    s = sub.add_parser("simulate", help="integrate equations of motion")
    s.add_argument("model", nargs="?", default=None,
                   help="model document path (omit with --landau)")
    s.add_argument("--landau", nargs=3, type=float, metavar=("E", "B", "M"),
                   default=None, help="built-in planar magnetic problem")
    s.add_argument("--alpha", default=None,
                   help="fractional order (required with --landau)")
    s.add_argument("--T", type=float, required=True, help="time horizon")
    s.add_argument("--h", type=float, required=True, help="step size")
    s.add_argument("--scheme", choices=list(dynamics.SCHEMES), default=None)
    s.add_argument("--composition", choices=list(dynamics.COMPOSITIONS),
                   default=dynamics.SINGLE_ORDER)
    s.add_argument("--z0", default="0,0", metavar="X,Y",
                   help="initial position for --landau runs")
    s.add_argument("--v0", default="0,1", metavar="X,Y",
                   help="initial velocity for --landau runs")
    s.add_argument("--initial", default=None,
                   help="comma-separated initial state for model-file runs")
    s.add_argument("--memory-window", type=int, default=None,
                   help="truncate fractional history to this many steps")
    s.add_argument("--measure-frequency", action="store_true",
                   help="print the fitted rotation frequency")
    s.add_argument("--out", required=True, help="trajectory CSV path")
    s.add_argument("--verbose", action="store_true")

    e = sub.add_parser("estimate-alpha",
                       help="invert a relative frequency shift")
    e.add_argument("--delta", type=float, required=True,
                   help="relative frequency shift")
    e.add_argument("--regime", choices=["small", "near-one"], required=True)
    e.add_argument("--out", default=None)

    r = sub.add_parser("report-hall",
                       help="noncommutativity report for the strong-field "
                            "scenario")
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--e", type=float, default=1.0)
    r.add_argument("--B", type=float, default=1.0)
    r.add_argument("--hbar", type=float, default=1.0)
    r.add_argument("--out", default=None)
    return p


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _load_model(args):
    """The parsed model file and its model, with the order --alpha gives
    (a number, or 'symbolic') in place of the file's."""
    doc = modelfile.parse_model_file(args.model)
    if args.alpha is None:
        return doc, doc.model
    alpha = modelfile.parse_order(args.alpha, "--alpha")
    return doc, replace(doc.model, alpha=alpha)


def cmd_quantize(args) -> int:
    doc, model = _load_model(args)
    if args.verbose:
        sys.stderr.write(modelfile.render_model(model, doc.gauge_conditions))
    chain, table = symplectic.fj_iterate(
        model, gauge_conditions=doc.gauge_conditions)
    texts = [[to_text(c) for c in level.constraints] for level in chain.levels]
    log = ["status: %s" % chain.status]
    for i, (level, cons) in enumerate(zip(chain.levels, texts), 1):
        log.append("level %d: constraints [%s] via multipliers [%s]"
                   % (i, ", ".join(cons), ", ".join(level.multipliers)))
    for note in chain.notes:
        log.append("note: %s" % note)
    sys.stderr.write("".join(line + "\n" for line in log))
    payload = {
        "status": chain.status,
        "levels": [
            {
                "constraints": cons,
                "multipliers": list(level.multipliers),
            }
            for level, cons in zip(chain.levels, texts)
        ],
        "notes": list(chain.notes),
        "table": None if table is None else table.to_json_dict(),
    }
    _emit(render_json(payload), args.out)
    return _EXIT_BY_STATUS[chain.status]


def _parse_pair(text: str, what: str) -> complex:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ValueError("%s must be 'x,y', got %r" % (what, text))
    return float(parts[0]) + 1j * float(parts[1])


def _landau_trajectory(args):
    if args.alpha is None:
        raise ValueError("--alpha is required with --landau")
    e, B, m = args.landau
    z0 = _parse_pair(args.z0, "--z0")
    v0 = _parse_pair(args.v0, "--v0")
    return dynamics.simulate_landau(
        e, B, m, float(args.alpha), z0, v0, args.T, args.h,
        composition=args.composition, scheme=args.scheme,
        memory_window=args.memory_window)


def _model_trajectory(args):
    _, model = _load_model(args)
    if model.alpha is None:
        raise ValueError("a numeric order is required to integrate; set "
                         "alpha in the file or pass --alpha")
    if args.initial is None:
        raise ValueError("--initial is required for model-file runs")
    initial = tuple(float(t) for t in args.initial.split(","))
    rhs = symplectic.fractional_equations_of_motion(model)
    ivp = dynamics.FractionalIVP(
        model.variables, tuple(e for _, e in rhs), model.alpha, initial,
        args.T, args.h, scheme=args.scheme or dynamics.GRUNWALD_LETNIKOV,
        composition=args.composition, constants=model.binding())
    return dynamics.integrate(ivp, memory_window=args.memory_window)


def cmd_simulate(args) -> int:
    if (args.landau is None) == (args.model is None):
        raise ValueError("exactly one of a model path or --landau is required")
    if args.landau is not None:
        traj = _landau_trajectory(args)
    else:
        traj = _model_trajectory(args)
    sidecar = traj.to_csv(args.out)
    if args.verbose:
        sys.stderr.write("wrote %s and %s (%d samples)\n"
                         % (args.out, sidecar, len(traj.times)))
    if args.measure_frequency:
        freq = dynamics.measure_frequency(traj)
        sys.stdout.write("measured_frequency %.17g\n" % freq)
    return 0


def cmd_estimate_alpha(args) -> int:
    fn = (hall.estimate_alpha_small if args.regime == "small"
          else hall.estimate_alpha_near_one)
    _emit(render_json(fn(args.delta).to_json_dict()), args.out)
    return 0


def cmd_report_hall(args) -> int:
    scenario = hall.HallScenario(args.e, args.B, 0.0, args.hbar,
                                 args.alpha, hall.STRONG_FIELD)
    _emit(render_json(hall.noncommutativity_report(scenario)), args.out)
    return 0


_COMMANDS = {
    "quantize": cmd_quantize,
    "simulate": cmd_simulate,
    "estimate-alpha": cmd_estimate_alpha,
    "report-hall": cmd_report_hall,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reads every command line with: built on the first
    call, not at import, and kept, since parsing a command line leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FracsympError, OSError, ValueError) as exc:
        sys.stderr.write("fracsymp: error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
