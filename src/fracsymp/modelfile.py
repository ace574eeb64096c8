"""Line-oriented model documents and their canonical serialization.

A model document is plain text, one `key: value` pair per line.  Blank
lines and lines starting with # are ignored.  Keys:

    variables: q+, p          ordered names; a trailing + marks the name
                              as positivity-assumed for simplification
    alpha: 0.5                a number in (0, 1], or the word symbolic
    constants: e = 1, B = 2   optional name = value pairs
    kinetic q: p              one kinetic coefficient per variable
    potential: 1/2*(p^2+q^2)  the potential expression
    constraints_gauge: q      optional gauge-fixing expression, repeatable

Expressions are parsed over the declared variables; any other name must be
a declared constant (the order name alpha and the reserved gamma_ec are
always available, and no constant may take either name).  Parsed
expressions are simplified immediately, so the canonical rendering of a
parsed document reparses to the same document.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .expr import ExprError, FracsympError, parse_expression, simplify, to_text
from .symplectic import RESERVED_NAMES, Model, ModelError

_LINE_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)(?:[ \t]+([A-Za-z_][A-Za-z0-9_]*))?[ \t]*:[ \t]*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_SCALAR_KEYS = ("variables", "alpha", "constants", "potential")
_KNOWN_KEYS = _SCALAR_KEYS + ("kinetic", "constraints_gauge")


class ModelFileError(FracsympError):
    """A model document that does not parse to exactly one Model."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def parse_order(text: str, label: str = "alpha", line: int | None = None):
    """The order `text` names: None for 'symbolic', otherwise its float."""
    if text == "symbolic":
        return None
    try:
        return float(text)
    except ValueError:
        raise ModelFileError("%s must be a number or 'symbolic', got %r"
                             % (label, text), line)


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model plus its optional gauge-fixing expressions."""

    model: Model
    gauge_conditions: tuple


def parse_model_text(text: str) -> ModelDocument:
    seen: dict = {}
    kinetic_lines: dict = {}
    gauge_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ModelFileError("expected 'key: value'", lineno)
        key, subkey, value = m.group(1), m.group(2), m.group(3).strip()
        if key not in _KNOWN_KEYS:
            raise ModelFileError("unknown key %r" % key, lineno)
        if key == "kinetic":
            if subkey is None:
                raise ModelFileError("kinetic needs a variable name, as in "
                                     "'kinetic q: ...'", lineno)
            if subkey in kinetic_lines:
                raise ModelFileError("duplicate kinetic entry for %r" % subkey,
                                     lineno)
            kinetic_lines[subkey] = (lineno, value)
            continue
        if subkey is not None:
            raise ModelFileError("key %r takes no variable name" % key, lineno)
        if key == "constraints_gauge":
            gauge_lines.append((lineno, value))
            continue
        if key in seen:
            raise ModelFileError("duplicate key %r" % key, lineno)
        seen[key] = (lineno, value)

    for required in ("variables", "alpha", "potential"):
        if required not in seen:
            raise ModelFileError("missing required key %r" % required)

    lineno, value = seen["variables"]
    variables: list = []
    positive: list = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            raise ModelFileError("empty variable name", lineno)
        if token.endswith("+"):
            token = token[:-1].strip()
            positive.append(token)
        if not _NAME_RE.match(token):
            raise ModelFileError("bad variable name %r" % token, lineno)
        if token in variables:
            raise ModelFileError("duplicate variable %r" % token, lineno)
        variables.append(token)

    lineno, value = seen["alpha"]
    alpha = parse_order(value, line=lineno)

    constants: dict = {}
    if "constants" in seen:
        lineno, value = seen["constants"]
        if value:
            for pair in value.split(","):
                if "=" not in pair:
                    raise ModelFileError("constants are 'name = value' pairs",
                                         lineno)
                name, _, num = pair.partition("=")
                name = name.strip()
                if not _NAME_RE.match(name):
                    raise ModelFileError("bad constant name %r" % name, lineno)
                if name in constants or name in variables:
                    raise ModelFileError("name %r declared twice" % name, lineno)
                if name in RESERVED_NAMES:
                    raise ModelFileError("name %r is reserved" % name, lineno)
                try:
                    constants[name] = float(num.strip())
                except ValueError:
                    raise ModelFileError("bad numeric value for %r" % name,
                                         lineno)
                if not math.isfinite(constants[name]):
                    raise ModelFileError("value for %r is not finite" % name,
                                         lineno)

    allowed = set(variables) | set(constants) | {"alpha"}

    def expr_at(lineno: int, text_: str):
        if not text_:
            raise ModelFileError("empty expression", lineno)
        try:
            return simplify(parse_expression(text_, variables=variables,
                                             allowed=allowed),
                            positive=tuple(positive))
        except ExprError as exc:
            raise ModelFileError(str(exc), lineno)

    for name in kinetic_lines:
        if name not in variables:
            raise ModelFileError("kinetic entry for undeclared variable %r"
                                 % name, kinetic_lines[name][0])
    missing = [v for v in variables if v not in kinetic_lines]
    if missing:
        raise ModelFileError("kinetic expression missing for %s"
                             % ", ".join(repr(v) for v in missing))

    kinetic = tuple(expr_at(*kinetic_lines[v]) for v in variables)
    potential = expr_at(*seen["potential"])
    gauges = tuple(expr_at(ln, tx) for ln, tx in gauge_lines)

    try:
        model = Model(tuple(variables), kinetic, potential, alpha,
                      constants, tuple(positive))
    except (ModelError, ValueError) as exc:
        raise ModelFileError("model invalid: %s" % exc)
    return ModelDocument(model, gauges)


def parse_model_file(path: str) -> ModelDocument:
    with open(path, "r") as fh:
        return parse_model_text(fh.read())


def _format_number(x: float) -> str:
    return "%.17g" % float(x)


def render_model(model: Model, gauge_conditions=()) -> str:
    """Canonical document text: fixed key order, sorted constants.

    Rendering a parsed document and reparsing yields an equal document, and
    rendering is idempotent, so documents can be diffed byte for byte.
    """
    lines = []
    tokens = [v + ("+" if v in model.positive else "")
              for v in model.variables]
    lines.append("variables: " + ", ".join(tokens))
    if model.alpha is None:
        lines.append("alpha: symbolic")
    else:
        lines.append("alpha: " + _format_number(model.alpha))
    if model.constants:
        pairs = ["%s = %s" % (k, _format_number(model.constants[k]))
                 for k in sorted(model.constants)]
        lines.append("constants: " + ", ".join(pairs))
    for v, k in zip(model.variables, model.kinetic):
        lines.append("kinetic %s: %s" % (v, to_text(k)))
    lines.append("potential: " + to_text(model.potential))
    for g in gauge_conditions:
        lines.append("constraints_gauge: " + to_text(g))
    return "\n".join(lines) + "\n"
