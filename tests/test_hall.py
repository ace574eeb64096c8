"""Planar magnetic scenarios: strong-field quantization, corrected cyclotron
frequency, and order-of-fractionality estimates."""

import dataclasses
import math
import pathlib

import pytest

import fracsymp
from fracsymp.expr import evaluate, to_text
from fracsymp.frac import gamma
from fracsymp.hall import (
    EULER_GAMMA_ROUNDED,
    FULL_DYNAMICS,
    SHIFT_LIMIT,
    STRONG_FIELD,
    HallError,
    HallScenario,
    OutOfRegime,
    build_landau_model,
    cyclotron_correction,
    cyclotron_correction_first_order,
    estimate_alpha_near_one,
    estimate_alpha_small,
    noncommutativity_report,
    quantize_strong_field,
    strong_field_bracket_first_order,
)
from fracsymp.modelfile import parse_model_file
from fracsymp.symplectic import fj_iterate

EULER_GAMMA = 0.5772156649015329
MODELS = pathlib.Path(fracsymp.__file__).parent / "models"


def strong(alpha=None, e=1.0, B=1.0, hbar=1.0):
    return HallScenario(e, B, 0.0, hbar, alpha, STRONG_FIELD)


# -- scenario validation -----------------------------------------------------

def test_scenario_validation():
    with pytest.raises(HallError):
        HallScenario(1.0, 0.0, 0.0, 1.0, None, STRONG_FIELD)
    with pytest.raises(HallError):
        HallScenario(1.0, 1.0, 1.0, 0.0, None, STRONG_FIELD)
    with pytest.raises(HallError):
        HallScenario(1.0, 1.0, 0.0, 1.0, None, FULL_DYNAMICS)
    with pytest.raises(HallError):
        HallScenario(1.0, 1.0, 0.0, 1.0, 1.5, STRONG_FIELD)
    with pytest.raises(HallError):
        HallScenario(1.0, 1.0, 0.0, 1.0, None, "weak-field")


def test_omega_property():
    s = HallScenario(2.0, 3.0, 1.5, 1.0, None, FULL_DYNAMICS)
    assert abs(s.omega - 4.0) < 1e-15


# -- model building and quantization ----------------------------------------

def test_build_strong_field_model():
    m = build_landau_model(strong())
    assert m.variables == ("r1", "r2")
    assert m.alpha is None
    assert set(m.constants) == {"e", "B"}


def test_build_full_model():
    s = HallScenario(1.0, 1.0, 1.0, 1.0, 0.8, FULL_DYNAMICS)
    m = build_landau_model(s)
    assert m.variables == ("r1", "r2", "v1", "v2")
    assert set(m.constants) == {"e", "B", "m"}


@pytest.mark.parametrize("s, name", [
    (strong(alpha=0.3, e=-2.5, B=1.5), "landau_strong"),
    (HallScenario(2.0, -0.5, 1.5, 1.0, None, FULL_DYNAMICS), "landau_full"),
], ids=["strong-field", "full-dynamics"])
def test_build_is_the_bundled_document(s, name):
    doc = parse_model_file(MODELS / (name + ".model"))
    constants = {"e": s.e, "B": s.B}
    if s.regime == FULL_DYNAMICS:
        constants["m"] = s.m
    assert build_landau_model(s) == dataclasses.replace(
        doc.model, alpha=s.alpha, constants=constants)


def test_build_rejects_zero_order():
    with pytest.raises(HallError):
        build_landau_model(strong(alpha=0.0))


def test_strong_field_symbolic_bracket():
    table = quantize_strong_field(strong())
    assert to_text(table.entry("r1", "r2")) == "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"


def test_strong_field_bracket_near_classical():
    table = quantize_strong_field(strong())
    got = evaluate(table.entry("r1", "r2"), {"e": 1.0, "B": 1.0, "alpha": 1e-8})
    assert abs(got - 1.0 / gamma(1.0 + 1e-8)) < 1e-12


def test_quantize_requires_strong_field_regime():
    s = HallScenario(1.0, 1.0, 1.0, 1.0, 0.8, FULL_DYNAMICS)
    with pytest.raises(OutOfRegime):
        quantize_strong_field(s)


@pytest.mark.parametrize("alpha", [None, 0.3, 1.0])
def test_strong_field_table_depends_on_the_order_alone(alpha):
    """Scenarios that differ only in e and B share one table, and it is the
    table the iteration gives afresh on the model with their e and B."""
    fields = [(1.0, 1.0), (2.5, -1.5), (-0.25, 4.0)]
    tables = [quantize_strong_field(strong(alpha, e, B)) for e, B in fields]
    for (e, B), table in zip(fields, tables):
        _, fresh = fj_iterate(build_landau_model(strong(alpha, e, B)))
        assert table == fresh
        assert table.to_json_dict() == fresh.to_json_dict()


def test_refusals_precede_the_stored_table():
    """With tables stored, order zero and the full-dynamics regime are
    still refused."""
    quantize_strong_field(strong())
    quantize_strong_field(strong(alpha=0.3))
    with pytest.raises(HallError, match="order zero"):
        quantize_strong_field(strong(alpha=0.0))
    with pytest.raises(OutOfRegime):
        quantize_strong_field(HallScenario(1.0, 1.0, 1.0, 1.0, None,
                                           FULL_DYNAMICS))


def test_first_order_bracket_expansion():
    a = 1e-6
    exact = 1.0 / (2.0 * 3.0 * gamma(1.0 + a))
    approx = strong_field_bracket_first_order(2.0, 3.0, a)
    assert abs(approx - (1.0 + a * EULER_GAMMA) / 6.0) < 1e-18
    assert abs(approx - exact) < 1e-12 * abs(exact)


# -- the corrected rotation frequency ----------------------------------------

def test_cyclotron_correction_values():
    assert cyclotron_correction(1.0, 1.0) == 1.0
    assert abs(cyclotron_correction(1.0, 0.5) - 1.0 / gamma(1.5)) < 1e-15
    assert abs(cyclotron_correction(2.0, 0.5) - 2.0 / gamma(1.5)) < 1e-15


def test_cyclotron_correction_monotone_below_one():
    # Gamma(1 + alpha) < 1 on (0, 1), so the corrected frequency exceeds
    # the bare one
    for a in (0.1, 0.4, 0.7, 0.95):
        assert cyclotron_correction(1.0, a) > 1.0


def test_cyclotron_correction_gate():
    with pytest.raises(HallError):
        cyclotron_correction(1.0, 1.2)
    with pytest.raises(HallError):
        cyclotron_correction(1.0, -0.1)


def test_cyclotron_first_order_agrees_for_small_alpha():
    a = 1e-7
    full = cyclotron_correction(1.0, a)
    lin = cyclotron_correction_first_order(1.0, a)
    assert abs(full - lin) < 1e-12
    assert abs(lin - (1.0 + a * EULER_GAMMA)) < 1e-18


# -- fractionality estimates -------------------------------------------------

def test_small_alpha_estimate():
    est = estimate_alpha_small(1e-8)
    assert abs(est.alpha_estimate - 1e-8 / EULER_GAMMA) < 1e-20
    assert abs(est.alpha_estimate - 1.7324547146006334e-08) < 1e-12 * 1.7e-8


def test_small_alpha_zero_shift():
    assert estimate_alpha_small(0.0).alpha_estimate == 0.0


def test_small_alpha_out_of_regime():
    with pytest.raises(OutOfRegime):
        estimate_alpha_small(SHIFT_LIMIT)
    with pytest.raises(OutOfRegime):
        estimate_alpha_small(-1e-9)


def test_small_alpha_roundtrip():
    # forward map: delta = alpha * gamma_ec to first order
    a = 1e-6
    delta = a * EULER_GAMMA
    est = estimate_alpha_small(delta)
    assert abs(est.alpha_estimate - a) < 1e-12 * a


def test_near_one_estimate():
    est = estimate_alpha_near_one(1e-8)
    assert abs(est.alpha_estimate - 0.9999999763473) < 1e-12


def test_near_one_zero_shift():
    assert estimate_alpha_near_one(0.0).alpha_estimate == 1.0


def test_near_one_shift_below_rounding_gives_the_classical_order():
    # 1 / (1 + 1e-17) rounds to 1 = Gamma(2), so the bracket's upper end
    # is the root itself.
    assert estimate_alpha_near_one(1e-17).alpha_estimate == 1.0


def test_near_one_out_of_regime():
    with pytest.raises(OutOfRegime):
        estimate_alpha_near_one(1e-2)


def test_near_one_roundtrip():
    # forward map: 1 / Gamma(1 + alpha) = 1 + delta
    a = 0.99999
    delta = 1.0 / gamma(1.0 + a) - 1.0
    est = estimate_alpha_near_one(delta)
    assert abs(est.alpha_estimate - a) < 1e-12


def test_estimate_serialization():
    d = estimate_alpha_small(1e-8).to_json_dict()
    assert d["regime"] == "small-alpha"
    assert d["delta"] == 1e-8
    assert "alpha_estimate" in d and "note" in d


# -- the noncommutativity report ---------------------------------------------

def test_report_structure_and_values():
    rep = noncommutativity_report(strong(alpha=1e-4))
    assert rep["theta_classical"] == 1.0
    assert abs(rep["relative_correction"] - 1e-4 * EULER_GAMMA) < 1e-20
    assert abs(rep["theta_fractional"] - (1.0 + 1e-4 * EULER_GAMMA)) < 1e-15
    assert set(rep["bracket_normalizations"]) == {"section_5_2", "section_6_3"}
    assert rep["euler_gamma_rounded"] == EULER_GAMMA_ROUNDED == 0.57721
    assert rep["euler_gamma"] == EULER_GAMMA


def test_report_normalizations_scale():
    rep = noncommutativity_report(strong(alpha=1e-4))
    plain = rep["bracket_normalizations"]["section_6_3"]
    scaled = rep["bracket_normalizations"]["section_5_2"]
    # the prefactor-scaled entry carries one more 1/Gamma(1+alpha) power...
    a = 1e-4
    assert abs(plain - 1.0 / gamma(1.0 + a)) < 1e-14
    assert abs(scaled - 1.0 / gamma(1.0 + a) ** 3) < 1e-12


def test_report_zero_alpha_is_classical():
    rep = noncommutativity_report(strong(alpha=0.0))
    assert rep["theta_fractional"] == rep["theta_classical"] == 1.0
    assert rep["relative_correction"] == 0.0


def test_report_regime_gate():
    with pytest.raises(OutOfRegime):
        noncommutativity_report(strong(alpha=0.5))
    with pytest.raises(OutOfRegime):
        noncommutativity_report(strong(alpha=None))
    s = HallScenario(1.0, 1.0, 1.0, 1.0, 1e-4, FULL_DYNAMICS)
    with pytest.raises(OutOfRegime):
        noncommutativity_report(s)


def test_report_scales_with_field():
    rep = noncommutativity_report(HallScenario(2.0, 4.0, 0.0, 1.0, 1e-5,
                                               STRONG_FIELD))
    assert abs(rep["theta_classical"] - 1.0 / 8.0) < 1e-15
