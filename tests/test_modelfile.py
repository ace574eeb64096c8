"""Model document grammar: parsing, validation messages, canonical render."""

import pathlib

import pytest

import fracsymp
from fracsymp.modelfile import (
    ModelFileError,
    parse_model_file,
    parse_model_text,
    render_model,
)

MODELS = pathlib.Path(fracsymp.__file__).parent / "models"

MINIMAL = """\
variables: q, p
alpha: 1
kinetic q: p
kinetic p: 0
potential: 1/2*(q^2 + p^2)
"""


def test_minimal_document():
    doc = parse_model_text(MINIMAL)
    assert doc.model.variables == ("q", "p")
    assert doc.model.alpha == 1.0
    assert doc.gauge_conditions == ()


def test_symbolic_alpha():
    doc = parse_model_text(MINIMAL.replace("alpha: 1", "alpha: symbolic"))
    assert doc.model.alpha is None


def test_positive_flag():
    doc = parse_model_text(MINIMAL.replace("variables: q, p",
                                           "variables: q+, p"))
    assert doc.model.positive == ("q",)


def test_comments_and_blank_lines():
    text = "# a comment\n\n" + MINIMAL + "\n# trailing\n"
    doc = parse_model_text(text)
    assert doc.model.variables == ("q", "p")


def test_constants_and_gauge_conditions():
    text = MINIMAL + "constants: k = 2.5\nconstraints_gauge: q - p\n"
    text = text.replace("potential: 1/2*(q^2 + p^2)", "potential: k*q^2")
    doc = parse_model_text(text)
    assert doc.model.constants == {"k": 2.5}
    assert len(doc.gauge_conditions) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_constant_rejected_with_line(value):
    with pytest.raises(ModelFileError) as err:
        parse_model_text(MINIMAL + "constants: c = %s\n" % value)
    assert str(err.value) == "line 6: value for 'c' is not finite"


def test_constant_below_the_float_range_reads_as_zero():
    doc = parse_model_text(MINIMAL + "constants: c = 1e-400\n")
    assert doc.model.constants == {"c": 0.0}


def test_unknown_key_rejected_with_line():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(MINIMAL + "flavor: strange\n")
    assert "line 6" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ModelFileError) as err:
        parse_model_text(MINIMAL + "alpha: 0.5\n")
    assert "line 6" in str(err.value)


def test_missing_kinetic_coverage():
    bad = MINIMAL.replace("kinetic p: 0\n", "")
    with pytest.raises(ModelFileError):
        parse_model_text(bad)


def test_kinetic_for_unknown_variable():
    with pytest.raises(ModelFileError):
        parse_model_text(MINIMAL + "kinetic w: 0\n")


def test_expression_error_carries_line():
    bad = MINIMAL.replace("potential: 1/2*(q^2 + p^2)", "potential: q +* p")
    with pytest.raises(ModelFileError) as err:
        parse_model_text(bad)
    assert "line 5" in str(err.value)


def test_undeclared_name_rejected():
    bad = MINIMAL.replace("potential: 1/2*(q^2 + p^2)", "potential: w^2")
    with pytest.raises(ModelFileError):
        parse_model_text(bad)


def test_bad_alpha_value():
    with pytest.raises(ModelFileError):
        parse_model_text(MINIMAL.replace("alpha: 1", "alpha: 1.7"))


def test_render_is_canonical_and_idempotent(tmp_path):
    for path in sorted(MODELS.glob("*.model")):
        doc = parse_model_file(path)
        text = render_model(doc.model, doc.gauge_conditions)
        doc2 = parse_model_text(text)
        assert doc2.model == doc.model
        assert render_model(doc2.model, doc2.gauge_conditions) == text


def test_bundled_corpus_parses():
    names = {p.stem for p in MODELS.glob("*.model")}
    assert {"canonical_pair", "landau_strong", "landau_full",
            "constrained_3d", "gauge_demo"} <= names
    for p in sorted(MODELS.glob("*.model")):
        parse_model_file(p)


@pytest.mark.parametrize("old, new, message", [
    ("kinetic p: 0", "kinetic: 0",
     "line 4: kinetic needs a variable name, as in 'kinetic q: ...'"),
    ("kinetic p: 0", "kinetic q: 0",
     "line 4: duplicate kinetic entry for 'q'"),
    ("alpha: 1", "alpha q: 1", "line 2: key 'alpha' takes no variable name"),
    ("potential: 1/2*(q^2 + p^2)", "", "missing required key 'potential'"),
    ("variables: q, p", "variables: q, , p", "line 1: empty variable name"),
    ("variables: q, p", "variables: q, 2p", "line 1: bad variable name '2p'"),
    ("variables: q, p", "variables: q, p, q", "line 1: duplicate variable 'q'"),
    ("alpha: 1", "alpha: 1\nconstants: c", "line 3: constants are "
     "'name = value' pairs"),
    ("alpha: 1", "alpha: 1\nconstants: 2c = 1",
     "line 3: bad constant name '2c'"),
    ("alpha: 1", "alpha: 1\nconstants: q = 1", "line 3: name 'q' declared twice"),
    ("alpha: 1", "alpha: 1\nconstants: c = 1, c = 2",
     "line 3: name 'c' declared twice"),
    ("alpha: 1", "alpha: 0.5\nconstants: alpha = 0.3",
     "line 3: name 'alpha' is reserved"),
    ("alpha: 1", "alpha: 1\nconstants: c = 1, gamma_ec = 2",
     "line 3: name 'gamma_ec' is reserved"),
    ("alpha: 1", "alpha: 1\nconstants: c = one",
     "line 3: bad numeric value for 'c'"),
    ("potential: 1/2*(q^2 + p^2)", "potential:", "line 5: empty expression"),
], ids=["kinetic-without-name", "duplicate-kinetic", "scalar-key-with-name",
        "missing-key", "empty-variable", "bad-variable", "duplicate-variable",
        "constant-without-equals", "bad-constant-name",
        "constant-names-a-variable", "constant-declared-twice",
        "constant-names-the-order", "constant-names-euler-gamma",
        "non-numeric-constant", "empty-expression"])
def test_document_errors_name_their_line(old, new, message):
    assert old in MINIMAL
    with pytest.raises(ModelFileError) as err:
        parse_model_text(MINIMAL.replace(old, new))
    assert str(err.value) == message


def test_render_writes_gauge_conditions():
    doc = parse_model_text(MINIMAL + "constraints_gauge: q - p\n"
                                     "constraints_gauge: p\n")
    text = render_model(doc.model, doc.gauge_conditions)
    assert text.endswith("potential: 1/2*p^2 + 1/2*q^2\n"
                         "constraints_gauge: -p + q\nconstraints_gauge: p\n")
    assert parse_model_text(text) == doc
