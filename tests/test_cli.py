"""Command surface: exit codes, JSON payloads, and determinism."""

import json
import pathlib
import warnings

import pytest

import fracsymp
from fracsymp.cli import main

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"


def model(name):
    return str(MODELS / (name + ".model"))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- quantize ----------------------------------------------------------------

def test_quantize_canonical_pair(capsys):
    code, out, err = run(capsys, "quantize", model("canonical_pair"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "regular"
    assert payload["levels"] == []
    assert payload["table"]["brackets"][0][1] == "1"


def test_quantize_landau_strong(capsys):
    code, out, err = run(capsys, "quantize", model("landau_strong"))
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["alpha"] == "symbolic"
    assert payload["table"]["brackets"][0][1] == \
        "B^(-1)*e^(-1)*Gamma(1 + alpha)^(-1)"
    assert set(payload["table"]["normalizations"]) == \
        {"section_5_2", "section_6_3"}


def test_quantize_constrained_chain(capsys):
    code, out, err = run(capsys, "quantize", model("constrained_3d"))
    assert code == 0
    payload = json.loads(out)
    assert [lev["constraints"] for lev in payload["levels"]] == [["q"], ["p"]]
    assert [lev["multipliers"] for lev in payload["levels"]] == \
        [["lam_1"], ["lam_2"]]
    assert any("pruned" in n for n in payload["notes"])


def test_quantize_gauge_theory_exit_code(capsys):
    code, out, err = run(capsys, "quantize", model("gauge_demo"))
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "gauge-theory"
    assert payload["table"] is None


def test_quantize_alpha_override(capsys):
    code, out, err = run(capsys, "quantize", model("landau_strong"),
                         "--alpha", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["alpha"] == 0.5


@pytest.mark.parametrize("command", ["quantize", "simulate"])
@pytest.mark.parametrize("alpha, message", [
    ("x", "--alpha must be a number or 'symbolic', got 'x'"),
    ("2", "order must lie in (0, 1], got 2.0"),
], ids=["non-numeric", "out-of-range"])
def test_bad_alpha_override_is_reported(capsys, tmp_path, command, alpha, message):
    argv = [command, model("canonical_pair"), "--alpha", alpha]
    if command == "simulate":
        argv += ["--T", "1.0", "--h", "1e-2", "--initial", "1,0",
                 "--out", str(tmp_path / "out.csv")]
    assert run(capsys, *argv) == (1, "", "fracsymp: error: %s\n" % message)


def test_quantize_inconsistent_exit_code(capsys, tmp_path):
    bad = tmp_path / "broken.model"
    bad.write_text(
        "variables: q, p, z\n"
        "alpha: 1\n"
        "kinetic q: p\n"
        "kinetic p: 0\n"
        "kinetic z: 0\n"
        "potential: 1/2*(q^2 + p^2) + z\n")
    code, out, err = run(capsys, "quantize", str(bad))
    assert code == 3
    assert json.loads(out)["status"] == "inconsistent"


def test_quantize_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "quantize", str(tmp_path / "absent.model"))
    assert code == 1
    assert "error" in err


def test_quantize_bad_model_text(capsys, tmp_path):
    bad = tmp_path / "syntax.model"
    bad.write_text("variables q, p\n")
    code, out, err = run(capsys, "quantize", str(bad))
    assert code == 1
    assert "error" in err


def test_quantize_out_file_and_verbose_log(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, out, err = run(capsys, "quantize", model("constrained_3d"),
                         "--out", str(out_path), "--verbose")
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "regular"
    assert "level 1" in err and "level 2" in err


def test_quantize_deterministic_output(capsys):
    _, out1, _ = run(capsys, "quantize", model("landau_full"))
    _, out2, _ = run(capsys, "quantize", model("landau_full"))
    assert out1 == out2


# -- simulate ----------------------------------------------------------------

def test_simulate_landau_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, out, err = run(capsys, "simulate",
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "25.0", "--h", "1e-3",
                         "--measure-frequency",
                         "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "t,r1,r2,w1,w2"
    sidecar = json.loads((tmp_path / "orbit.csv.json").read_text())
    assert sidecar["landau"]["alpha"] == 0.5
    assert "measured_frequency" in out
    freq = float(out.split()[-1])
    assert abs(freq * 0.8862269254527586 - 1.0) < 5e-3


def test_simulate_sequential_composition(capsys, tmp_path):
    out_path = tmp_path / "seq.csv"
    code, out, err = run(capsys, "simulate",
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "5.0", "--h", "1e-2",
                         "--composition", "sequential-alpha-alpha",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "t,r1,r2,u1,u2"


def test_simulate_model_file(capsys, tmp_path):
    out_path = tmp_path / "pair.csv"
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--alpha", "1.0", "--T", "8.0", "--h", "1e-3",
                         "--initial", "1,0",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "t,q,p"


def test_simulate_refuses_complex_right_hand_side(capsys, tmp_path):
    path = tmp_path / "negative_root.model"
    path.write_text("variables: q, p\nalpha: 1\nkinetic q: p\nkinetic p: 0\n"
                    "potential: 1/2*p^2 + 1/2*(-2)^(1/2)*q^2\n")
    out_path = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(path), "--initial", "1,0",
                             "--T", "1", "--h", "0.1", "--out", str(out_path))
    assert code == 1
    assert "cannot compile (-2)^(1/2)" in err
    assert not out_path.exists()


def test_simulate_needs_exactly_one_source(capsys, tmp_path):
    code, out, err = run(capsys, "simulate",
                         "--alpha", "0.5", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--landau", "1.0", "1.0", "1.0",
                         "--alpha", "0.5", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "y.csv"))
    assert code == 1


def test_simulate_requires_step(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--landau", "1", "1", "1", "--alpha", "0.5",
              "--T", "1.0", "--out", str(tmp_path / "z.csv")])
    assert err.value.code == 1
    capsys.readouterr()


def test_simulate_model_needs_initial(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", model("canonical_pair"),
                         "--alpha", "1.0", "--T", "1.0", "--h", "1e-2",
                         "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert "error" in err


# -- estimate-alpha ----------------------------------------------------------

def test_estimate_near_one(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta", "1e-8",
                         "--regime", "near-one")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_estimate"] - 0.9999999763473) < 1e-12


def test_estimate_small(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta", "1e-8",
                         "--regime", "small")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_estimate"] - 1.7324547146006334e-08) < 1e-20


def test_estimate_rejects_out_of_regime(capsys):
    code, out, err = run(capsys, "estimate-alpha", "--delta=-1e-8",
                         "--regime", "small")
    assert code == 1
    assert "error" in err


def test_estimate_requires_regime(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate-alpha", "--delta", "1e-8"])
    assert err.value.code == 1
    capsys.readouterr()


# -- report-hall -------------------------------------------------------------

def test_report_hall(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "1e-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_classical"] == 1.0
    assert abs(payload["relative_correction"] - 1e-4 * 0.5772156649015329) < 1e-18
    assert set(payload["bracket_normalizations"]) == \
        {"section_5_2", "section_6_3"}


def test_report_hall_out_of_regime(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "0.5")
    assert code == 1
    assert "error" in err


def test_report_hall_custom_field(capsys):
    code, out, err = run(capsys, "report-hall", "--alpha", "1e-5",
                         "--e", "2.0", "--B", "4.0")
    assert code == 0
    assert json.loads(out)["theta_classical"] == 0.125


# -- top level ---------------------------------------------------------------

def test_no_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 1
    capsys.readouterr()
