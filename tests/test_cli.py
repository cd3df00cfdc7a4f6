import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ellfm import DEFAULT_ENTRY, catalog_get, surface_doc
from ellfm.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestConstruct:
    def test_order_eleven_surface(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--p", "11", "--json")
        assert code == 0
        assert doc["rational"] is True
        assert doc["lambda"] == 11
        assert doc["euler_number"] == 12
        assert doc["chi"] == 1
        assert doc["canonical_degree"] == "-1/11"
        assert doc["kodaira_dimension"] == "-inf"
        kinds = sorted((f["kind"], f["multiplicity"]) for f in doc["fibers"])
        assert kinds == [("I(0)", 11), ("I(1)", 1), ("I(2)", 1), ("III*", 1)]

    def test_byte_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, "construct", "--p", "11", "--json")
        _, second, _ = run_cli(capsys, "construct", "--p", "11", "--json")
        assert first == second

    def test_relative_power_flag(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--p", "11", "--i", "3", "--json")
        assert code == 0 and doc["lambda"] == 11
        code, doc, _ = run_json(capsys, "construct", "--p", "11", "--i", "0", "--json")
        assert code == 0 and doc["lambda"] == 1 and doc["has_section"] is True

    def test_non_coprime_index_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--p", "11", "--i", "22")
        assert code == 2
        assert "coprime" in err

    def test_trivial_order(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--p", "1", "--json")
        assert code == 0 and doc["lambda"] == 1

    def test_nonpositive_order_rejected(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--p", "0")
        assert code == 2

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--p", "11")
        assert code == 0
        assert "lambda" in out and "rational" in out


class TestInvariants:
    def test_catalog_base(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "--json")
        assert code == 0
        assert doc["lambda"] == 1
        assert doc["canonical_degree"] == "-1"

    def test_file_without_section_has_unknown_lambda(self, capsys, tmp_path):
        base = catalog_get(DEFAULT_ENTRY).surface
        doc = surface_doc(base)
        doc["has_section"] = False
        path = tmp_path / "sectionless.json"
        path.write_text(json.dumps(doc))
        code, loaded, _ = run_json(capsys, "invariants", "--base", str(path), "--json")
        assert code == 0
        assert loaded["lambda"] is None

    def test_i_requires_p(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--i", "2")
        assert code == 2 and "--p" in err


class TestPartners:
    def test_count(self, capsys):
        code, doc, _ = run_json(capsys, "partners", "--p", "5", "--json")
        assert code == 0
        assert doc["count"] == 4
        assert [p["index"] for p in doc["partners"]] == [1, 2, 3, 4]
        assert all(p["rational"] for p in doc["partners"])

    def test_kodaira_zero_surfaces_refused(self, capsys, tmp_path):
        # Build a section-bearing e=24 base: loading succeeds, gating fails.
        doc = {
            "name": "chi-two",
            "has_section": True,
            "fibers": [
                {"point": "0", "kind": "II*", "multiplicity": 1},
                {"point": "1", "kind": "II*", "multiplicity": 1},
                {"point": "2", "kind": "II", "multiplicity": 1},
                {"point": "3", "kind": "II", "multiplicity": 1},
            ],
        }
        path = tmp_path / "chi2.json"
        path.write_text(json.dumps(doc))
        code, error, _ = run_json(capsys, "partners", "--p", "5", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-base"


class TestClassifyAndVerify:
    def test_inversion_classes(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "11", "--mode", "inversion", "--json")
        assert code == 0
        assert doc["classes"] == [[1, 10], [2, 9], [3, 8], [4, 7], [5, 6]]
        assert doc["M_min"] == 2

    def test_bound_mode_aut_override(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--p", "11", "--mode", "bound", "--aut-bound", "2", "--json"
        )
        assert code == 0
        assert doc["M_min"] == 5

    def test_non_rigid_base_is_module_error(self, capsys):
        code, error, _ = run_json(
            capsys, "classify", "--p", "5", "--base", "II*-I1-I1", "--json"
        )
        assert code == 1
        assert error["error"] == "not-rigid"
        assert "detail" in error

    def test_verify_certified(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--p", "11", "--n", "2", "--json")
        assert code == 0
        assert doc["verdict"] == "certified"
        assert doc["M_min"] == 2
        assert doc["index_count"] == 10

    def test_verify_inconclusive(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--p", "7", "--n", "2", "--json")
        assert code == 0
        assert doc["verdict"] == "inconclusive"

    def test_verify_non_prime_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "12", "--n", "2")
        assert code == 2
        assert "not prime" in err

    def test_verify_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "11", "--n", "2")
        assert code == 0 and "certified" in out


class TestRigidity:
    def test_default_base_rigid(self, capsys):
        code, doc, _ = run_json(capsys, "rigidity", "--json")
        assert code == 0
        assert doc["rigid"] is True and doc["group_order"] == 1

    def test_twelve_i1_symmetry(self, capsys):
        code, doc, _ = run_json(capsys, "rigidity", "--base", "twelve-I1", "--json")
        assert code == 0
        assert doc["rigid"] is False and doc["group_order"] == 2

    def test_two_marked_points_infinite(self, capsys):
        code, doc, _ = run_json(capsys, "rigidity", "--base", "IV*-IV", "--json")
        assert code == 0
        assert doc["finite"] is False and doc["group_order"] is None and doc["maps"] is None


class TestCatalogCommand:
    def test_list(self, capsys):
        code, doc, _ = run_json(capsys, "catalog", "--json")
        assert code == 0
        assert doc["default"] == DEFAULT_ENTRY
        assert any(e["name"] == "twelve-I1" for e in doc["entries"])

    def test_show_entry(self, capsys):
        code, doc, _ = run_json(capsys, "catalog", DEFAULT_ENTRY, "--json")
        assert code == 0
        assert doc["provenance"] == "cited"

    def test_unknown_entry(self, capsys):
        code, error, _ = run_json(capsys, "catalog", "missing", "--json")
        assert code == 1
        assert error["error"] == "unknown-entry"


class TestBaseLoading:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--p", "5", "--base", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_is_module_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, error, _ = run_json(capsys, "construct", "--p", "5", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-document"

    def test_zero_denominator_point_is_invalid_document(self, capsys, tmp_path):
        doc = surface_doc(catalog_get(DEFAULT_ENTRY).surface)
        doc["fibers"][0]["point"] = "1/0"
        path = tmp_path / "zero-denominator.json"
        path.write_text(json.dumps(doc))
        code, error, _ = run_json(capsys, "invariants", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-document"

    def test_non_utf8_file_is_invalid_document(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9", "has_section": true, "fibers": []}'.encode("latin-1"))
        code, error, _ = run_json(capsys, "invariants", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-document"

    def test_oversized_json_integer_is_invalid_document(self, capsys, tmp_path):
        # json.load raises a plain ValueError past the interpreter's 4,300-digit limit.
        path = tmp_path / "big.json"
        path.write_text('{"has_section": true, "fibers": [], "name": ' + "9" * 5000 + "}")
        code, error, _ = run_json(capsys, "invariants", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-document"

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "invariants", "--base", str(tmp_path), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_construct_from_file_round_trip(self, capsys, tmp_path):
        base = catalog_get(DEFAULT_ENTRY).surface
        path = tmp_path / "base.json"
        path.write_text(json.dumps(surface_doc(base)))
        code, doc, _ = run_json(capsys, "construct", "--p", "7", "--base", str(path), "--json")
        assert code == 0
        assert doc["lambda"] == 7


_POINTS = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "1/2", "3/6", "inf", "1/0", "0/0", "x", ""]),
    st.integers(-2, 2),
    st.none(),
)
_KINDS = st.one_of(
    st.sampled_from(["I(0)", "I(1)", "I(2)", "I(9)", "I*(0)", "II", "III", "IV", "II*", "III*", "IV*", "V"]),
    st.integers(0, 3),
    st.none(),
)
_FIBERS = st.fixed_dictionaries(
    {"point": _POINTS, "kind": _KINDS},
    optional={"multiplicity": st.one_of(st.integers(-1, 7), st.booleans(), st.just("2"))},
)
_SURFACE_DOCS = st.fixed_dictionaries(
    {"fibers": st.one_of(st.lists(_FIBERS, max_size=5), st.integers(), st.none())},
    optional={"has_section": st.one_of(st.booleans(), st.integers(0, 1)), "name": st.text(max_size=4)},
)
_FILE_BYTES = st.one_of(
    _SURFACE_DOCS.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.lists(st.integers(), max_size=2).map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.binary(max_size=24),
)


class TestErrorContract:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_FILE_BYTES)
    def test_every_surface_file_ends_in_a_clean_exit(self, capsys, tmp_path, content):
        path = tmp_path / "surface.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "invariants", "--base", str(path), "--json")
        assert code in (0, 1, 2)
        if code == 0:
            assert "lambda" in json.loads(out)
        elif code == 1:
            assert set(json.loads(out)) == {"error", "detail"}
        else:
            assert out == "" and err.startswith("usage error: ")


class TestProgramEntry:
    def test_module_invocation_matches_inprocess(self, capsys):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "ellfm", "verify", "--p", "11", "--n", "2", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        code, out, _ = run_cli(capsys, "verify", "--p", "11", "--n", "2", "--json")
        assert result.stdout == out
