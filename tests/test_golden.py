"""Byte-for-byte replay of the golden CLI corpus.

``golden/cli.json`` records, for every subcommand over every catalog base and
p in {1, 2, 3, 5, 11, 101}, in table and ``--json`` form, plus usage and
domain error cases, the exit code and stdout of ``ellfm.cli.main(argv)``.
It also records stderr when it is one of the CLI's own ``usage error:``
lines; argparse's usage text varies between Python versions and is stored
as null.  Cases that read a surface file carry the file's text under
``files``; it is written to a fresh working directory before the call.

The corpus was recorded before the CLI and library were consolidated and is
never rewritten by the suite: a difference here is a change in behaviour.
A slice of it is also replayed in ``python -m ellfm`` children under two
hash seeds, since set order may follow string or identity hashes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellfm
from ellfm import (
    BasePoint,
    EllipticSurface,
    InvalidBaseError,
    KodairaFiber,
    MarkedConfig,
    NotEllipticError,
    canonical_degree,
    chi,
    is_rational,
    kodaira_dimension,
    order_p_twist,
    surface_from_doc,
)
from ellfm.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_output_matches_corpus(case, capsys, request):
    if "files" in case:
        tmp_path = request.getfixturevalue("tmp_path")
        request.getfixturevalue("monkeypatch").chdir(tmp_path)
        for name, text in case["files"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    if case["stderr"] is not None:
        assert captured.err == case["stderr"]


@pytest.mark.parametrize("name", ["sectionless.json", "chi2.json", "twisted.json"])
def test_library_refuses_the_corpus_bases_with_their_detail(name):
    # The twist model owns the base gate: a library caller gets the refusal
    # the corpus records for the CLI, word for word.
    (case,) = [case for case in CASES if case["argv"] == ["construct", "--p", "5", "--base", name]]
    recorded = json.loads(case["stdout"])
    assert recorded["error"] == InvalidBaseError.code
    with pytest.raises(InvalidBaseError) as refusal:
        order_p_twist(surface_from_doc(json.loads(case["files"][name])), 5)
    assert str(refusal.value) == recorded["detail"]


def test_every_reader_refuses_euler_13_with_the_corpus_detail():
    # The rule "12 divides e" has one home: a raw configuration, each reader
    # and a surface report the detail the corpus records for a surface file.
    (case,) = [case for case in CASES if case["argv"] == ["invariants", "--base", "euler13.json"]]
    recorded = json.loads(case["stdout"])
    assert recorded["error"] == NotEllipticError.code
    config = MarkedConfig(
        [(BasePoint(0), KodairaFiber.from_token("III*")), (BasePoint(1), KodairaFiber.from_token("IV"))]
    )
    assert config.euler_number == 13
    for read in (chi, canonical_degree, kodaira_dimension, is_rational, EllipticSurface):
        with pytest.raises(NotEllipticError) as refusal:
            read(config)
        assert str(refusal.value) == recorded["detail"]


# One case per subcommand, the 13-point twelve-I1 base, and a surface file.
_SEED_SLICE = (
    ["construct", "--p", "11", "--base", "twelve-I1", "--json"],
    ["invariants", "--p", "11", "--i", "3", "--base", "II*-I1-I1", "--json"],
    ["partners", "--p", "11", "--base", "twelve-I1", "--json"],
    ["classify", "--p", "11", "--mode", "inversion", "--base", "persson-III*-I2-I1", "--json"],
    ["rigidity", "--base", "twelve-I1", "--json"],
    ["verify", "--p", "11", "--n", "17", "--json"],
    ["catalog", "--json"],
    ["classify", "--p", "7", "--base", "base.json", "--json"],
    ["partners", "--p", "5", "--base", "base.json"],
)


@pytest.mark.parametrize("seed", ["0", "2718281"])
def test_cli_bytes_do_not_depend_on_the_hash_seed(seed, tmp_path):
    cases = [case for argv in _SEED_SLICE for case in CASES if case["argv"] == argv]
    assert len(cases) == len(_SEED_SLICE)
    env = {**os.environ, "PYTHONPATH": str(Path(ellfm.__file__).resolve().parent.parent), "PYTHONHASHSEED": seed}
    for case in cases:
        for name, text in case.get("files", {}).items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "ellfm", *case["argv"]], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (case["exit"], case["stdout"], ""), case["argv"]
