"""Command-line surface: verbs, JSON I/O, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hecke3.cli import main
from hecke3.errors import InputError
from hecke3.fields import QQ
from hecke3.multilinear import idx2
from hecke3.heckecore import build_R, flip_matrix, skewsymmetrizer_matrix, symmetric_form
from hecke3.linalg import Matrix
from hecke3.multilinear import std_basis, wedge2
from hecke3.classify import canonical
from hecke3.jsonio import (
    hecke_data_from_json,
    hecke_data_to_json,
    load_symmetry,
    matrix_to_json,
    symmetry_to_json,
)

Fr = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out)


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({"field": "Q", "q": "1", "R": matrix_to_json(flip_matrix(QQ))}))
    return str(path)


@pytest.fixture
def type1_data_file(tmp_path):
    data = canonical("Type1", Fr(3))
    path = tmp_path / "type1.json"
    path.write_text(json.dumps(hecke_data_to_json(data)))
    return str(path)


class TestConstruct:
    def test_canonical_entry(self, capsys):
        code, doc = run_cli(capsys, "construct", "--type", "1", "--q", "2", "--field", "Q")
        assert code == 0
        # the monomial e2 e1 maps to q e1 e2
        assert doc["R"][idx2(0, 1)][idx2(1, 0)] == "2"
        assert doc["q"] == "2" and doc["field"] == "Q"

    def test_from_data_file(self, capsys, type1_data_file):
        code, doc = run_cli(capsys, "construct", "--data", type1_data_file)
        assert code == 0 and doc["q"] == "3"

    def test_constraint_violation_is_exit_2(self, capsys, tmp_path):
        bad = {
            "field": "Q",
            "q": "2",
            "a": ["1", "0", "0"],
            "b": ["0", "1", "0"],
            "g": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, doc = run_cli(capsys, "construct", "--data", str(path))
        assert code == 2 and doc["error"]["type"] == "InvalidConstraint"


class TestVerify:
    def test_flip_passes(self, capsys, flip_file):
        code, doc = run_cli(capsys, "verify", "--matrix", flip_file)
        assert code == 0
        assert all(entry["passed"] for entry in doc)
        names = {entry["name"] for entry in doc}
        assert {"braid", "hecke", "image_eigen", "containments",
                "component_identity", "pairing_identities",
                "cyclic_shift_identity"} <= names

    def test_data_input(self, capsys, type1_data_file):
        code, doc = run_cli(capsys, "verify", "--data", type1_data_file)
        assert code == 0 and all(entry["passed"] for entry in doc)

    def test_bad_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, doc = run_cli(capsys, "verify", "--matrix", str(path))
        assert code == 2 and doc["error"]["type"] == "InputError"

    def test_characteristic_two_rejected(self, capsys, flip_file):
        code, doc = run_cli(capsys, "--field", "Fp:2", "fuzz",
                            "--trials", "1", "--seed", "1")
        assert code == 2 and doc["error"]["type"] == "CharacteristicTwo"


class TestClassify:
    def test_canonical_type4(self, capsys, tmp_path):
        sym = build_R(canonical("Type4"))
        path = tmp_path / "t4.json"
        path.write_text(json.dumps(symmetry_to_json(sym)))
        code, doc = run_cli(capsys, "classify", "--matrix", str(path))
        assert code == 0 and doc["type"] == "Type4"

    def test_non_member_is_diagnosed(self, capsys, tmp_path):
        # right shape, broken constraint: quadratic relation holds, braid fails
        e = std_basis(QQ)
        g = symmetric_form(QQ, [[0, 2, 0], [2, 0, 0], [0, 0, 1]])
        Y = skewsymmetrizer_matrix(QQ.of(2), g, wedge2(e[0], e[1]))
        R = Matrix.identity(QQ, 9).scale(QQ.of(2)) - Y
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"field": "Q", "R": matrix_to_json(R)}))
        code, doc = run_cli(capsys, "classify", "--matrix", str(path))
        assert code == 1
        assert doc["error"]["type"] == "NotHeckeSym0"
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and all(c["witness"] is not None for c in failed)


class TestRmatrixAndCarrier:
    def test_flip_rmatrix_zero(self, capsys, flip_file):
        code, doc = run_cli(capsys, "rmatrix", "--matrix", flip_file)
        assert code == 0
        assert all(all(x == "0" for x in row) for row in doc["r"]["matrix"])
        assert all(c["passed"] for c in doc["checks"])

    def test_type7_carrier(self, capsys, tmp_path):
        sym = build_R(canonical("Type7"))
        path = tmp_path / "t7.json"
        path.write_text(json.dumps(symmetry_to_json(sym)))
        code, doc = run_cli(capsys, "carrier", "--matrix", str(path))
        assert code == 0
        assert doc["dim"] == 2
        assert doc["frobenius"]["status"] == "no"
        assert doc["fingerprint"] == [2, 0, 2, 0]


class TestDeform:
    def test_moves_parameter(self, capsys, type1_data_file):
        code, doc = run_cli(capsys, "deform", "--data", type1_data_file,
                            "--lambda", "1/2")
        assert code == 0
        assert doc["symmetry"]["q"] == "2"
        assert all(c["passed"] for c in doc["checks"])

    def test_singular_parameter_is_exit_2(self, capsys, type1_data_file):
        code, doc = run_cli(capsys, "deform", "--data", type1_data_file,
                            "--lambda=-1/2")
        assert code == 2 and doc["error"]["type"] == "SingularDeformation"


class TestFuzz:
    def test_small_run(self, capsys):
        code, doc = run_cli(capsys, "fuzz", "--trials", "5", "--seed", "42",
                            "--strategy", "A")
        assert code == 0 and doc["passed"]

    def test_adversarial(self, capsys):
        code, doc = run_cli(capsys, "fuzz", "--trials", "3", "--seed", "1",
                            "--strategy", "A", "--adversarial")
        assert code == 0 and doc["passed"]

    def test_prime_field(self, capsys):
        code, doc = run_cli(capsys, "--field", "Fp:11", "fuzz",
                            "--trials", "5", "--seed", "7", "--strategy", "B")
        assert code == 0


class TestTable:
    def test_byte_identical_across_runs(self, capsys):
        code1 = main(["table", "--q", "2"])
        out1 = capsys.readouterr().out
        code2 = main(["table", "--q", "2"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_contents(self, capsys):
        code, doc = run_cli(capsys, "table", "--q", "2")
        assert code == 0
        assert [t["type"] for t in doc["types"]] == [f"Type{n}" for n in range(1, 9)]
        t8 = doc["types"][-1]
        assert t8["carrier"]["dim"] == 0
        t1 = doc["types"][0]
        assert t1["q"] == "2"


class TestEnvironmentDefault:
    def test_env_field(self, capsys, monkeypatch):
        monkeypatch.setenv("HECKE3_FIELD", "Fp:7")
        code, doc = run_cli(capsys, "table", "--q", "3")
        assert code == 0 and doc["field"] == "Fp:7"


class TestSerializationRoundtrips:
    def test_hecke_data(self):
        data = canonical("Type1", Fr(-1))
        doc = hecke_data_from_json(json.loads(json.dumps(hecke_data_to_json(data))))
        assert doc == data

    def test_symmetry_record(self):
        sym = build_R(canonical("Type3"))
        loaded = load_symmetry(json.loads(json.dumps(symmetry_to_json(sym))))
        assert loaded.R == sym.R and loaded.q == sym.q

    def test_bare_matrix_with_default_field(self):
        sym = build_R(canonical("Type5"))
        loaded = load_symmetry(json.loads(json.dumps(matrix_to_json(sym.R))), QQ)
        assert loaded.R == sym.R

    def test_no_field_and_no_default_field_is_one_input_error(self):
        """A bare matrix and records with no "field" key meet the same field rule."""
        sym = build_R(canonical("Type5"))
        quadruple = hecke_data_to_json(canonical("Type5"))
        del quadruple["field"]
        documents = [matrix_to_json(sym.R), {"q": "1", "R": matrix_to_json(sym.R)}, quadruple]
        for doc in documents:
            with pytest.raises(InputError) as err:
                load_symmetry(doc)
            assert str(err.value) == "no field given and no default field set"
            assert load_symmetry(doc, QQ).R == sym.R

    def test_scalar_strings_not_numbers(self):
        doc = hecke_data_to_json(canonical("Type1", Fr(1, 2)))
        assert doc["q"] == "1/2"
        assert isinstance(doc["g"][0][1], str)


_QUADRUPLE = {"a": ["1", "0", "0"], "b": ["0", "1", "0"],
              "g": [["0", "-1/4", "0"], ["-1/4", "0", "0"], ["0", "0", "1"]]}
_SEVENTH = {"field": "Q", "q": "1", "a": ["1", "0", "0"], "b": ["0", "1", "0"]}


@pytest.mark.parametrize("argv, document", [
    (["fuzz", "--trials", "0", "--seed", "1"], None),
    (["verify", "--matrix", "{doc}"], {"field": 5, "q": "1", "R": [["0"] * 9] * 9}),
    (["verify", "--matrix", "{doc}"], "[" * 100_000 + "]" * 100_000),
    (["construct", "--data", "{doc}"], {"field": "Q", "q": 0.5, **_QUADRUPLE}),
    (["verify", "--data", "{doc}"], {**_SEVENTH, "g": 5}),
    (["verify", "--data", "{doc}"],
     {**_SEVENTH, "g": [[False, False, False], [False, False, False], [False, False, True]]}),
    (["classify", "--data", "{doc}"], {**_SEVENTH, "g": ["000", "000", "001"]}),
    (["construct", "--data", "{doc}"], {**_QUADRUPLE, "field": "Q", "q": "1e400"}),
    (["construct", "--data", "{doc}"], {**_QUADRUPLE, "field": "Q", "q": "0.5"}),
    (["construct", "--data", "{doc}"], {**_QUADRUPLE, "field": "Q", "q": "1" * 5000 + "/2"}),
    (["verify", "--bogus"], None),
    ([], None),
    (["table", "--q"], None),
], ids=["zero_trials", "non_string_field", "deep_array", "float_q", "scalar_g",
        "boolean_g", "string_rows_g", "exponent_q", "decimal_q", "long_q",
        "unknown_flag", "no_verb", "missing_value"])
def test_invalid_input_is_one_error_document(tmp_path, argv, document):
    """Invalid input exits 2 with one JSON error document and no traceback."""
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
    proc = subprocess.run(
        [sys.executable, "-m", "hecke3.cli", *(a.format(doc=path) for a in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"}
    assert "Traceback" not in proc.stderr


def test_closed_stdout_is_not_a_traceback():
    """A reader that leaves after one line gets a contract exit code and no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hecke3.cli", "table", "--q", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1, 2)
    assert b"Traceback" not in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hecke3.cli", "construct", "--type", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["q"] == "1"
