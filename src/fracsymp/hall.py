"""Planar charged particle in a uniform magnetic field, as a reusable scenario.

Bundles the pieces the other modules provide into one worked example: read
the particle's first-order model from the bundled model documents, quantize
the strong-field limit, rescale the cyclotron frequency by the
coarse-graining factor, invert small frequency shifts into estimates of the
fractional order, and emit a report comparing the resulting coordinate
commutator with its classical value.

Two regimes are supported.  The full-dynamics regime keeps the mass term
and doubles the variables with a velocity pair, feeding the dynamics
module.  The strong-field regime drops the kinetic energy (the intense
field, vanishing mass limit), leaving a first-order Lagrangian in the two
coordinates alone whose quantization makes the coordinates noncommutative.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, dataclass, replace

from .expr import EULER_GAMMA, FracsympError, evaluate
from .frac import gamma
from .modelfile import parse_model_file
from .symplectic import BracketTable, Model, fj_iterate

STRONG_FIELD = "strong-field-massless-limit"
FULL_DYNAMICS = "full-dynamics"
REGIMES = (STRONG_FIELD, FULL_DYNAMICS)

SMALL_ALPHA = "small-alpha"
NEAR_ONE = "near-one"

# upper end of the "small shift" regimes accepted by the estimators
SHIFT_LIMIT = 1e-3

EULER_GAMMA_ROUNDED = 0.57721

_MODELS = os.path.join(os.path.dirname(__file__), "models")


class HallError(FracsympError):
    pass


class OutOfRegime(HallError):
    """Input shift or order outside the regime an estimator is valid in."""


def _unit_order(alpha, hint: str = "") -> float:
    """alpha as a float in [0, 1]; otherwise HallError, its message ending
    in `hint`."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise HallError("alpha must be in [0, 1]" + hint)
    return a


@dataclass(frozen=True)
class HallScenario:
    """Physical inputs for the magnetic-field example.

    alpha may be None, meaning the fractional order is kept symbolic in
    everything built from the scenario.  alpha = 0 is accepted as the
    classical edge for reporting purposes, although no Model can be built
    at order zero.
    """

    e: float
    B: float
    m: float
    hbar: float
    alpha: float | None
    regime: str

    def __post_init__(self):
        for name in ("e", "B", "m", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise HallError("%s must be finite" % name)
        if self.e == 0:
            raise HallError("e must be nonzero")
        if self.B == 0:
            raise HallError("B must be nonzero")
        if self.hbar <= 0:
            raise HallError("hbar must be positive")
        if self.regime not in REGIMES:
            raise HallError("unknown regime %r" % (self.regime,))
        if self.regime == FULL_DYNAMICS and self.m <= 0:
            raise HallError("full dynamics requires m > 0")
        if self.m < 0:
            raise HallError("m must be nonnegative")
        if self.alpha is not None:
            _unit_order(self.alpha, " or None for symbolic")

    @property
    def omega(self) -> float:
        if self.m <= 0:
            raise HallError("omega = e B / m needs m > 0")
        return self.e * self.B / self.m


@dataclass(frozen=True)
class FractionalityEstimate:
    """An inferred fractional order with the shift it came from."""

    regime: str
    delta: float
    alpha_estimate: float
    note: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _model_order(s: HallScenario) -> float | None:
    """The scenario's order, refused at zero, where no Model exists."""
    if s.alpha is not None and s.alpha == 0.0:
        raise HallError("no model at order zero; use a positive alpha")
    return s.alpha


def build_landau_model(s: HallScenario) -> Model:
    """First-order Model for the scenario's regime: the bundled document
    (`landau_strong.model` or `landau_full.model`) with the scenario's
    order and its e and B, plus m for full dynamics."""
    alpha = _model_order(s)
    name = "landau_strong.model"
    constants = {"e": float(s.e), "B": float(s.B)}
    if s.regime == FULL_DYNAMICS:
        name = "landau_full.model"
        constants["m"] = float(s.m)
    doc = parse_model_file(os.path.join(_MODELS, name))
    return replace(doc.model, alpha=alpha, constants=constants)


def quantize_strong_field(s: HallScenario) -> BracketTable:
    """Run the symplectic iteration on the strong-field model.

    The form is already nonsingular, so the chain terminates immediately
    and the table holds {r1, r2} = 1 / (e B Gamma(1 + alpha)).  e and B
    stay symbols in the table, so it depends on the order alone and is
    made once per order (`_strong_field_table`).
    """
    if s.regime != STRONG_FIELD:
        raise OutOfRegime("quantization shortcut applies to the strong-field "
                          "regime only")
    return _strong_field_table(_model_order(s))


@functools.lru_cache(maxsize=16)
def _strong_field_table(alpha: float | None) -> BracketTable:
    """The strong-field table at order alpha, from the bundled document as
    it stands: the iteration never reads the values of e and B.  Kept and
    shared, since a table and its expressions are immutable."""
    doc = parse_model_file(os.path.join(_MODELS, "landau_strong.model"))
    chain, table = fj_iterate(replace(doc.model, alpha=alpha))
    if table is None:
        raise HallError("strong-field model did not terminate regular: %s"
                        % chain.status)
    return table


def strong_field_bracket_first_order(e: float, B: float, alpha: float) -> float:
    """First-order small-alpha form of the coordinate bracket.

    (1 + alpha * gamma_ec) / (e B); the exact value is
    1 / (e B Gamma(1 + alpha)).
    """
    return (1.0 + alpha * EULER_GAMMA) / (e * B)


def cyclotron_correction(omega: float, alpha: float) -> float:
    """Exact rescaled cyclotron frequency omega / Gamma(1 + alpha)."""
    return omega / gamma(1.0 + _unit_order(alpha))


def cyclotron_correction_first_order(omega: float, alpha: float) -> float:
    """Documented small-alpha approximation omega * (1 + alpha * gamma_ec).

    Exposed for comparison; cyclotron_correction returns the exact value.
    """
    return omega * (1.0 + _unit_order(alpha) * EULER_GAMMA)


def estimate_alpha_small(delta: float) -> FractionalityEstimate:
    """Invert a small relative frequency shift in the small-order regime.

    Solves alpha * gamma_ec = delta exactly, so the estimate is
    delta / gamma_ec.  That stays within one order of magnitude of delta
    itself (gamma_ec is about 0.577), so quoting the shift as the order of
    magnitude of alpha is consistent with this exact inversion.
    """
    d = float(delta)
    if d == 0.0:
        return FractionalityEstimate(SMALL_ALPHA, 0.0, 0.0,
                                     "zero shift means zero order exactly")
    if not 0.0 < d < SHIFT_LIMIT:
        raise OutOfRegime("delta must lie in [0, %g)" % SHIFT_LIMIT)
    est = d / EULER_GAMMA
    note = ("exact inversion of the first-order shift alpha * gamma_ec with "
            "gamma_ec = %.17g; the estimate is within a factor %.3f of delta"
            % (EULER_GAMMA, 1.0 / EULER_GAMMA))
    return FractionalityEstimate(SMALL_ALPHA, d, est, note)


def estimate_alpha_near_one(delta: float) -> FractionalityEstimate:
    """Invert a small shift in the near-classical regime.

    Solves Gamma(1 + alpha) = 1 / (1 + delta) for alpha in (0.99, 1) by
    bisection to 1e-14.  To first order the root is
    1 - delta / (1 - gamma_ec).
    """
    d = float(delta)
    if d == 0.0:
        return FractionalityEstimate(NEAR_ONE, 0.0, 1.0,
                                     "zero shift means classical order exactly")
    if not 0.0 < d < SHIFT_LIMIT:
        raise OutOfRegime("delta must lie in [0, %g)" % SHIFT_LIMIT)
    target = 1.0 / (1.0 + d)

    def g(a: float) -> float:
        return gamma(1.0 + a) - target

    # g rises on [0.99, 1] from below -0.003, for every delta in the
    # regime, to g(1) = 1 - target >= 0, which is 0 where 1 / (1 + delta)
    # rounds to 1.
    lo, hi = 0.99, 1.0
    if g(hi) == 0.0:
        root = hi
    else:
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                lo = hi = mid
                break
            if gm > 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
    note = ("bisection on Gamma(1 + alpha) = 1 / (1 + delta) over (0.99, 1) "
            "to 1e-14; first-order root 1 - delta / (1 - gamma_ec)")
    return FractionalityEstimate(NEAR_ONE, d, root, note)


def noncommutativity_report(s: HallScenario) -> dict:
    """Compare the fractional coordinate commutator with the classical one.

    Valid for strong-field scenarios with a numeric order in the small
    regime (0 <= alpha < 1e-3).  theta_fractional uses the first-order
    form hbar (1 + alpha gamma_ec) / (e B); the bracket normalizations are
    evaluated exactly from the quantized table, in both conventions the
    table carries.  The relative correction equals alpha * gamma_ec, so
    the fractional order and the induced noncommutative shift share an
    order of magnitude when alpha is small.
    """
    if s.regime != STRONG_FIELD:
        raise OutOfRegime("the report applies to the strong-field regime")
    if s.alpha is None or not 0.0 <= s.alpha < SHIFT_LIMIT:
        raise OutOfRegime("the report needs a numeric alpha in [0, %g)"
                          % SHIFT_LIMIT)
    table = quantize_strong_field(replace(s, alpha=None))
    binding = {"e": float(s.e), "B": float(s.B), "alpha": float(s.alpha)}
    alpha = float(s.alpha)
    try:
        plain = evaluate(table.entry("r1", "r2"), binding)
        scaled = evaluate(table.scaled_entry("r1", "r2"), binding)
        theta_classical = s.hbar / (s.e * s.B)
        theta_fractional = theta_classical * (1.0 + alpha * EULER_GAMMA)
        finite = all(map(math.isfinite,
                         (plain, scaled, theta_classical, theta_fractional)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise HallError("the report leaves the float range at e = %r, B = %r, "
                        "hbar = %r" % (s.e, s.B, s.hbar))
    return {
        "theta_classical": theta_classical,
        "theta_fractional": theta_fractional,
        "alpha": alpha,
        "relative_correction": alpha * EULER_GAMMA,
        "bracket_normalizations": {
            "section_5_2": scaled,
            "section_6_3": plain,
        },
        "euler_gamma": EULER_GAMMA,
        "euler_gamma_rounded": EULER_GAMMA_ROUNDED,
        "note": ("the induced correction to the coordinate commutator is "
                 "alpha * gamma_ec, so for small alpha the fractional order "
                 "and the noncommutative shift have the same order of "
                 "magnitude"),
    }
