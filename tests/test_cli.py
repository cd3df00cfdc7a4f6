import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ellfm import DEFAULT_ENTRY, catalog_get, surface_doc
from ellfm.cli import main

from conftest import AUT_FLOOR_PROBE, AUT_FLOOR_PROBE_DETAIL, J_PROBE, J_PROBE_DETAIL, SHIODA_TATE_PROBE

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

    def test_negative_index_not_coprime_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--p", "4", "--i", "-2")
        assert code == 2
        assert out == "" and err.startswith("usage error: ")

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

    def test_composite_order_numbers_partners_by_index(self, capsys):
        # At p = 12 the indices b are the units mod 12, not the positions plus 1.
        code, doc, _ = run_json(capsys, "partners", "--p", "12", "--json")
        assert code == 0
        assert doc["count"] == 4
        assert [p["index"] for p in doc["partners"]] == [1, 5, 7, 11]
        assert [p["name"].rsplit("+", 1)[1] for p in doc["partners"]] == ["12I0[1]", "12I0[5]", "12I0[7]", "12I0[11]"]
        assert [p["lambda"] for p in doc["partners"]] == [12] * 4

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

    def test_nameless_base_refusal_is_readable(self, capsys, tmp_path):
        doc = {"has_section": False, "fibers": [{"point": "0", "kind": "II*"}, {"point": "1", "kind": "II"}]}
        path = tmp_path / "nameless.json"
        path.write_text(json.dumps(doc))
        code, error, _ = run_json(capsys, "construct", "--p", "5", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-base"
        assert "''" not in error["detail"]
        assert error["detail"].startswith("unnamed base is not")


    def test_shioda_tate_probe_is_refused(self, capsys, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(SHIODA_TATE_PROBE))
        code, error, _ = run_json(capsys, "classify", "--p", "11", "--base", str(path), "--json")
        assert code == 1
        assert error == {
            "error": "invalid-base",
            "detail": "base 'probe' fails the Shioda-Tate bound s + a >= 4: "
            "s = 3 singular and a = 0 additive fibers give fiber root rank 9 > 8",
        }

    def test_j_probe_is_refused(self, capsys, tmp_path):
        path = tmp_path / "j-probe.json"
        path.write_text(json.dumps(J_PROBE))
        code, error, _ = run_json(capsys, "classify", "--p", "11", "--base", str(path))
        assert code == 1
        assert error == {"error": "invalid-base", "detail": J_PROBE_DETAIL}

class TestClassifyAndVerify:
    def test_inversion_classes(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "11", "--mode", "inversion", "--json")
        assert code == 0
        assert doc["classes"] == [[1, 10], [2, 9], [3, 8], [4, 7], [5, 6]]
        assert doc["M_min"] == 2

    def test_inversion_classes_at_a_composite_order(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "12", "--mode", "inversion", "--json")
        assert code == 0
        assert doc["classes"] == [[1, 11], [5, 7]]
        assert doc["index_count"] == 4 and doc["M_min"] == 1

    def test_bound_blocks_at_a_composite_order(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "30", "--json")
        assert code == 0
        assert doc["classes"] == [[1, 7, 11, 13, 17, 19], [23, 29]]
        assert doc["index_count"] == 8 and doc["M_min"] == 2

    def test_bound_mode_aut_override(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--p", "11", "--mode", "bound", "--aut-bound", "2", "--json"
        )
        assert code == 0
        assert doc["M_min"] == 5

    def test_additive_fiber_with_index_passes_the_gate(self, capsys, tmp_path):
        # I*(1) is additive with an index; with II and III it is a valid base.
        doc = {
            "name": "istar-ii-iii",
            "has_section": True,
            "fibers": [
                {"point": "0", "kind": "I*(1)", "multiplicity": 1},
                {"point": "1", "kind": "II", "multiplicity": 1},
                {"point": "inf", "kind": "III", "multiplicity": 1},
            ],
        }
        path = tmp_path / "istar.json"
        path.write_text(json.dumps(doc))
        code, doc, _ = run_json(capsys, "classify", "--p", "11", "--base", str(path), "--json")
        assert code == 0
        assert doc["M_min"] == 2

    def test_aut_bound_below_the_floor_is_refused(self, tmp_path):
        # In a child process, so that stderr shows no traceback either.
        (tmp_path / "probe.json").write_text(json.dumps(AUT_FLOOR_PROBE))
        argv = [sys.executable, "-m", "ellfm", "classify", "--p", "13", "--base", "probe.json", "--json"]
        env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
        refused = subprocess.run([*argv, "--aut-bound", "2"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (refused.returncode, refused.stderr) == (1, "")
        assert json.loads(refused.stdout) == {"error": "below-aut-floor", "detail": AUT_FLOOR_PROBE_DETAIL}
        accepted = subprocess.run([*argv, "--aut-bound", "6"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert accepted.returncode == 0 and json.loads(accepted.stdout)["M_min"] == 2

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

    def test_verify_table_for_a_61_bit_prime(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--p", "2305843009213693951", "--n", "3")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "M_min             384307168202282325\n" in out
        assert out.endswith("verdict           certified\n")
        assert elapsed < 1.0

    def test_past_the_primality_limit_is_module_error(self, capsys):
        for argv in (("verify", "--p", "318665857834031151167461", "--n", "2"),
                     ("classify", "--p", "318665857834031151167461")):
            code, error, _ = run_json(capsys, *argv)
            assert code == 1
            assert error["error"] == "primality-range"
            assert "detail" in error


class TestRigidity:
    def test_default_base_rigid(self, capsys):
        code, doc, _ = run_json(capsys, "rigidity", "--json")
        assert code == 0
        assert doc["rigid"] is True and doc["group_order"] == 1

    def test_twelve_i1_symmetry(self, capsys):
        code, doc, _ = run_json(capsys, "rigidity", "--base", "twelve-I1", "--json")
        assert code == 0
        assert doc["rigid"] is False and doc["group_order"] == 2

    def test_many_points_on_a_line(self, capsys, tmp_path):
        # --base runs no gate, so 192 I(1) fibers reach the symmetry search.
        fibers = [{"point": str(v), "kind": "I(1)", "multiplicity": 1} for v in range(192)]
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"name": "line-192", "has_section": True, "fibers": fibers}))
        code, doc, _ = run_json(capsys, "rigidity", "--base", str(path), "--json")
        assert code == 0
        assert doc["group_order"] == 2 and doc["maps"] == [[1, -191, 0, -1], [1, 0, 0, 1]]

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

    def test_non_ascii_digit_in_fiber_kind_is_invalid_document(self, capsys, tmp_path):
        doc = surface_doc(catalog_get(DEFAULT_ENTRY).surface)
        doc["fibers"][1]["kind"] = "I(\u0662)"  # ARABIC-INDIC DIGIT TWO
        path = tmp_path / "arabic-indic.json"
        path.write_text(json.dumps(doc))
        code, error, _ = run_json(capsys, "invariants", "--base", str(path), "--json")
        assert code == 1
        assert error["error"] == "invalid-document"

    @pytest.mark.parametrize("name", [None, {"a": [1]}])
    def test_non_string_name_is_invalid_document(self, capsys, tmp_path, name):
        doc = dict(surface_doc(catalog_get(DEFAULT_ENTRY).surface), name=name)
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        code, error, _ = run_json(capsys, "construct", "--p", "3", "--i", "2", "--base", str(path), "--json")
        assert code == 1
        assert error == {
            "error": "invalid-document",
            "detail": "malformed surface document: name must be a string",
        }

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
    @example(content=b"[" * 100_000 + b"]" * 100_000)  # nesting past the recursion limit
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

    def test_a_memory_cap_ends_in_an_error_object(self):
        # The order-10007 partner list peaks near 86 MB uncapped; under a
        # 48 MB address-space cap, set in the child alone, building or
        # rendering it raises MemoryError.
        cap = 48 * 2**20
        result = subprocess.run(
            [sys.executable, "-m", "ellfm", "partners", "--p", "10007", "--json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=60,
        )
        assert result.returncode == 1
        assert json.loads(result.stdout) == {
            "error": "out-of-memory",
            "detail": "partners ran out of memory building or rendering its output",
        }
        assert "Traceback" not in result.stderr
