"""The CLI contract as a property over drawn argv lists, run in-process.

Hypothesis draws a subcommand, its flags in any order (some missing, some
repeated, now and then one foreign to the subcommand), integers, numerals
that ``int`` refuses or reads oddly, catalog names and ``--base`` files from
the document reader's strategies.  Each argv runs as a table, then twice
with ``--json``.  Every run ends in exit 0, exit 1 with exactly an
``{"error", "detail"}`` object whose code an ``EllfmError`` subclass owns,
or exit 2 with nothing on stdout; ``--json`` does not change the exit code;
on exit 0 the table's scalar rows are the document's scalar keys, less
``verify``'s ``mode`` and ``aut_bound``; the second run gives the same
bytes.  The O(p) commands take p at most 2000.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ellfm import AUT_BOUNDS, ClassificationMode, EllfmError, catalog_names
from ellfm.cli import main

from test_document_readers import _SURFACE_DOCS, _readable_surface_docs

CODES = {cls.code for cls in EllfmError.__subclasses__()}
# The list-valued document keys, and the labels of the table rows they give.
LIST_KEYS = {"fibers", "partners", "classes", "maps", "entries"}
LIST_LABELS = {"fiber", "partner", "classes", "map", "entry"}

_NAMES = st.sampled_from([*catalog_names(), "no-such-base"])
_BASES = st.one_of(_NAMES, _SURFACE_DOCS, _readable_surface_docs())  # a document is written to a file
_ODD = st.sampled_from(["1e3", "0x10", "True", "", "1.5", "-", "+5", "\u0663", " 7 ", "1_1"])
# An integer three times in four, else an odd numeral.
_BIG, _SMALL = (
    st.integers(0, 3).flatmap(lambda k, high=high: st.integers(-10, high).map(str) if k else _ODD)
    for high in (10**30, 2000)
)
_FLAGS = {
    "construct": {"--p": _BIG, "--i": _BIG, "--base": _BASES},
    "invariants": {"--p": _BIG, "--i": _BIG, "--base": _BASES},
    "partners": {"--p": _SMALL, "--base": _BASES},
    "classify": {
        "--p": _SMALL,
        "--mode": st.sampled_from([m.value for m in ClassificationMode] + ["both"]),
        "--aut-bound": st.sampled_from([*map(str, AUT_BOUNDS), "3"]),
        "--base": _BASES,
    },
    "rigidity": {"--base": _BASES},
    "verify": {"--p": _SMALL | st.sampled_from(["2", "3", "11", "101", "1999"]), "--n": _BIG},
    "catalog": {"": _NAMES},  # the positional entry name
}
_FOREIGN = {"--n": _SMALL, "--mode": st.just("bound"), "--zzz": _SMALL}


@st.composite
def _argv(draw):
    """A subcommand, its token groups (a file base as its document) and the group ``--json`` precedes."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_FOREIGN, **_FLAGS[command]} if draw(st.integers(0, 9)) == 0 else _FLAGS[command]
    # Each flag is given with odds 3 in 4, sometimes one twice, in any order.
    chosen = [flag for flag in sorted(flags) if draw(st.integers(0, 3))]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=1))
    groups = [[flag, draw(flags[flag])] if flag else [draw(flags[flag])] for flag in draw(st.permutations(chosen))]
    return command, groups, draw(st.integers(0, len(groups)))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A base whose name holds the row separator of the table.
_LINE_BREAK_NAME = {
    "name": "a\nb",
    "has_section": True,
    "fibers": [{"point": "0", "kind": "II*"}, {"point": "1", "kind": "I(1)"}, {"point": "2", "kind": "I(1)"}],
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_argv())
@example(drawn=("invariants", [["--base", _LINE_BREAK_NAME]], 0))
def test_every_argv_keeps_the_contract(capsys, tmp_path, drawn):
    command, groups, at = drawn
    tokens = []
    for i, group in enumerate(groups):
        if isinstance(group[-1], dict):
            path = tmp_path / f"base{i}.json"
            path.write_text(json.dumps(group[-1]), encoding="utf-8")
            group = [*group[:-1], str(path)]
        tokens.append(group)
    table = [command, *sum(tokens, [])]
    as_json = [command, *sum(tokens[:at], []), "--json", *sum(tokens[at:], [])]
    runs = [_run(capsys, table), _run(capsys, as_json)]
    assert [_run(capsys, table), _run(capsys, as_json)] == runs
    code = runs[0][0]
    assert code in (0, 1, 2) and runs[1][0] == code
    for _, out, err in runs:
        if code == 1:
            error = json.loads(out)
            assert set(error) == {"error", "detail"} and error["error"] in CODES and err == ""
        elif code == 2:
            assert out == "" and err.startswith(("usage error:", "usage:"))
    if code == 0:
        labels = [line.split(" ", 1)[0] for line in runs[0][1][:-1].split("\n")]
        doc = json.loads(runs[1][1])
        hidden = {"mode", "aut_bound"} if command == "verify" else set()
        assert sorted(label for label in labels if label not in LIST_LABELS) == sorted(
            key for key in doc if key not in LIST_KEYS | hidden
        )
