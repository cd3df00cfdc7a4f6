"""README's "API at a glance" stays in step with what ``ellfm`` exports."""

import inspect
import re
from pathlib import Path

import ellfm
from ellfm import EllfmError

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


def test_one_error_subclass_per_code():
    # README sums up the error classes as "one subclass per error code".
    assert "one subclass per error code" in _api_section()
    codes = [cls.code for cls in _subclasses(EllfmError)]
    assert codes and len(set(codes)) == len(codes)
