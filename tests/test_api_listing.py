"""README stays in step with the ``ellfm`` API: its "API at a glance" lists
every export and lists nothing that is not one, every ``Name.attr`` it
mentions exists, its "Layout" names every module in layer order, and its
"Library quick start" block runs and gives the values its comments state."""

import ast
import inspect
import re
from pathlib import Path

import ellfm
from ellfm import EllfmError

from test_layering import EXEMPT, LAYERS, MODULES

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _api_section() -> str:
    start = README.index("### API at a glance")
    end = README.index("\n## ", start)
    return README[start:end]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_export_is_listed():
    # Each backticked span names the identifier it starts with:
    # `certify_partner_count(p, target)` lists certify_partner_count.
    listed = {
        match.group(0)
        for span in re.findall(r"`([^`]+)`", _api_section())
        if (match := re.match(r"[A-Za-z_]\w*", span))
    }
    exported = {
        name
        for name, value in vars(ellfm).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and not (inspect.isclass(value) and issubclass(value, EllfmError))
    }
    assert exported - listed == set()


# One item of a bullet's leading list: a backticked name, maybe with a
# parenthetical that holds no backticks, e.g. `AUT_BOUNDS` (2, 4, 6).
_ITEM = r"`[A-Za-z_][^`]*`(?:\s*\([^()`]*\))?"


def test_every_listed_name_is_exported():
    # Each "- `module`: `A`, `b`, ..." bullet opens with a comma-separated list
    # of names; the prose after it (helpers that are not re-exported, notes in
    # parentheses with backticks) is not part of the list.
    bullets = re.findall(rf"^- `(\w+)`: ((?:{_ITEM},\s*)*{_ITEM})", _api_section(), flags=re.M)
    assert sorted(module for module, _ in bullets) == sorted(set(LAYERS) - {"cli"})
    listed = {name for _, items in bullets for name in re.findall(r"`([A-Za-z_]\w*)", items)}
    assert {name for name in listed if not hasattr(ellfm, name)} == set()


def test_one_error_subclass_per_code():
    # README sums up the error classes as "one subclass per error code".
    assert "one subclass per error code" in _api_section()
    codes = [cls.code for cls in _subclasses(EllfmError)]
    assert codes and len(set(codes)) == len(codes)


def test_every_dotted_name_resolves():
    # `BasePoint.parse` or `ellfm.projective` must name something that exists,
    # when its head is `ellfm`, an export or a submodule; `entry.config` and
    # other local names are prose.  Fenced code blocks are skipped.
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    missing = [
        match.group(0)
        for span in re.findall(r"`([^`\n]+)`", prose)
        for match in re.finditer(r"(?<![\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
        if (owner := ellfm if match.group(1) == "ellfm" else getattr(ellfm, match.group(1), None)) is not None
        and not hasattr(owner, match.group(2))  # a slotted field is a class attribute
    ]
    assert missing == []


def test_layout_names_every_module_in_layer_order():
    start = README.index("## Layout")
    layout = README[start : README.index("\n## ", start)]
    listed = re.findall(r"^\s+(\w+)\.py\s", layout, flags=re.M)
    assert sorted(listed) == sorted(set(MODULES) - EXEMPT)
    assert listed == sorted(listed, key=LAYERS.index)


def test_quick_start_gives_the_commented_values():
    # Statements run in order; each bare expression must equal the literal its
    # trailing comment opens with, e.g. `... # 'inconclusive' (7 = 6+1, not >)`.
    start = README.index("## Library quick start")
    block = re.search(r"```python\n(.*?)```", README[start:], flags=re.S)[1]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "<README>", "exec"), namespace)
            continue
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        expected = ast.literal_eval(re.match(r"'[^']*'|\d+", comment)[0])
        assert eval(compile(ast.Expression(node.value), "<README>", "eval"), namespace) == expected, comment
        checked.append(expected)
    assert checked == [11, 10, "certified", "inconclusive"]
