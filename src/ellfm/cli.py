"""Command-line front end; ``ellfm --help`` lists the subcommands.

Output is a human-readable table on stdout, or canonical JSON with
``--json`` (keys sorted, exact rationals as "a/b" strings); identical
invocations produce byte-identical JSON.  The table lists the fields of the
``--json`` document, a line break in a field written as ``\\n``;
``verify``'s table leaves out ``mode``, ``aut_bound`` and ``classes``.
Exit status 0 on success, 1 with a machine-readable ``{"error": code,
"detail": ...}`` object for any domain error or for running out of memory,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import DEFAULT_ENTRY, catalog_get, catalog_list
from .errors import (
    EllfmError,
    InvalidDocumentError,
    NotCoprimeError,
    OutOfMemoryError,
    UnknownEntryError,
    UnknownLambdaError,
)
from .partners import (
    AUT_BOUNDS,
    ClassificationMode,
    PartnerClassification,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    family_indices,
    is_prime,
    order_p_twist,
    rigidity_check,
)
from .surface import (
    EllipticSurface,
    canonical_degree,
    chi,
    euler_number,
    is_rational,
    kodaira_dimension,
    surface_doc,
    surface_from_doc,
)
from .twists import TwistedSurface, multisection_index, relative_jacobian_power


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfm",
        description="Exact invariants and Fourier-Mukai partner counts for twisted rational elliptic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    def add_base(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--base",
            default=DEFAULT_ENTRY,
            help=f"catalog entry name or path to a surface JSON file (default: {DEFAULT_ENTRY})",
        )

    p = command("construct", _cmd_invariants, "build the order-p twist of a base surface")
    p.add_argument("--p", type=int, required=True, help="order of the twist class (>= 1)")
    p.add_argument("--i", type=int, default=None, help="report the i-th relative Jacobian power instead")
    add_base(p)

    p = command("invariants", _cmd_invariants, "invariants of a base surface or of its order-p twist")
    p.add_argument("--p", type=int, default=None, help="twist the base first with a class of this order")
    p.add_argument("--i", type=int, default=None, help="report the i-th relative Jacobian power (needs --p)")
    add_base(p)

    p = command("partners", _cmd_partners, "enumerate the Fourier-Mukai partners of the order-p twist")
    p.add_argument("--p", type=int, required=True)
    add_base(p)

    p = command("classify", _cmd_classify, "partition partner indices into classes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in ClassificationMode], default=ClassificationMode.BOUND.value)
    p.add_argument("--aut-bound", type=int, choices=AUT_BOUNDS, default=AUT_BOUNDS[-1])
    add_base(p)

    p = command("rigidity", _cmd_rigidity, "typed Moebius symmetries of a surface's marked points")
    add_base(p)

    p = command("verify", _cmd_verify, "certify a lower bound of N non-isomorphic partners for prime p")
    p.add_argument("--p", type=int, required=True, help="prime twist order")
    p.add_argument("--n", type=int, required=True, help="target partner-class count N")

    p = command("catalog", _cmd_catalog, "list built-in base configurations")
    p.add_argument("name", nargs="?", default=None, help="show a single entry")

    # Every subcommand takes --json, as its last argument.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit canonical JSON instead of a table")

    return parser


def _load_base(ref: str) -> EllipticSurface:
    """Resolve --base: a catalog name first, else a JSON file path.

    Whether the surface may be twisted is decided by the twist model itself.
    """
    try:
        surface = catalog_get(ref).surface
    except UnknownEntryError:
        if not os.path.exists(ref):
            raise UsageError(f"--base {ref!r} is neither a catalog entry nor an existing file")
        try:
            with open(ref, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise UsageError(f"--base {ref!r} cannot be read: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:  # bad bytes or JSON, huge integers, deep nesting
            raise InvalidDocumentError(f"{ref}: not valid JSON ({exc})") from exc
        surface = surface_from_doc(doc)
    return surface


def _twist_from_args(args) -> TwistedSurface:
    """The order-p twist named by ``--p`` and ``--base``."""
    if args.p < 1:
        raise UsageError("--p must be a positive integer")
    return order_p_twist(_load_base(args.base), args.p)


def _invariant_doc(surface: EllipticSurface, lam: int | None) -> dict:
    return {
        **surface_doc(surface),
        "euler_number": euler_number(surface),
        "chi": chi(surface),
        "canonical_degree": str(canonical_degree(surface)),
        "kodaira_dimension": kodaira_dimension(surface).value,
        "rational": is_rational(surface),
        "lambda": lam,
    }


def _classification_doc(classification: PartnerClassification) -> dict:
    return {
        "lambda": classification.multisection_index,
        "index_count": classification.index_count,
        "mode": classification.mode.value,
        "aut_bound": classification.aut_bound,
        "M_min": classification.lower_bound,
        "classes": classification.classes,
    }


def _cmd_invariants(args) -> dict:
    """``construct`` and ``invariants``: the base, else its order-p twist or that twist's i-th power."""
    if args.p is None:
        if args.i is not None:
            raise UsageError("--i requires --p")
        base = _load_base(args.base)
        try:
            lam = multisection_index(base)
        except UnknownLambdaError:
            lam = None
        return _invariant_doc(base, lam)
    twisted = _twist_from_args(args)
    if args.i is not None:
        try:
            twisted = relative_jacobian_power(twisted, args.i)
        except NotCoprimeError:
            lam = twisted.multisection_index
            raise UsageError(f"--i {args.i} is not coprime to the multisection index {lam}") from None
    return _invariant_doc(twisted.surface, twisted.multisection_index)


def _cmd_partners(args) -> dict:
    twisted = _twist_from_args(args)
    lam = twisted.multisection_index
    found = enumerate_partners(twisted)
    partners = []
    for index, partner in zip(family_indices(lam), found):
        entry = _invariant_doc(partner.surface, partner.multisection_index)
        entry["index"] = index
        partners.append(entry)
    return {"lambda": lam, "count": len(partners), "partners": partners}


def _cmd_classify(args) -> dict:
    twisted = _twist_from_args(args)
    classification = classify_partners(twisted, ClassificationMode(args.mode), args.aut_bound)
    return {"p": args.p, **_classification_doc(classification)}


def _cmd_rigidity(args) -> dict:
    base = _load_base(args.base)
    report = rigidity_check(base.config)
    return {
        "points": len(base.config),
        "rigid": report.rigid,
        "finite": report.finite,
        "group_order": report.order,
        "maps": None if report.symmetries is None else [m.entries() for m in report.symmetries],
    }


def _cmd_verify(args) -> dict:
    if not is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    verdict = certify_partner_count(args.p, args.n)
    c = verdict.classification
    summary = {
        "p": verdict.p,
        "N": verdict.target,
        "lambda": c.multisection_index,
        "index_count": c.index_count,
        "M_min": verdict.m_min,
        "verdict": verdict.verdict,
    }
    # The table leaves out the classes, which take O(p) to list.
    return {**_classification_doc(c), **summary} if args.json else summary


def _cmd_catalog(args) -> dict:
    if args.name is not None:
        entry = catalog_get(args.name)
        return {
            **surface_doc(entry.surface),
            "euler_number": entry.config.euler_number,
            "provenance": entry.provenance.value,
        }
    entries = [
        {
            "name": entry.name,
            "provenance": entry.provenance.value,
            "euler_number": entry.config.euler_number,
            "fibers": " ".join(fiber.token() for _, fiber in entry.config),
        }
        for entry in catalog_list()
    ]
    return {"default": DEFAULT_ENTRY, "entries": entries}


def _row(label: str, text) -> str:
    """One table row: the label padded to 18 columns, then the text, a line break in it written as ``\\n``."""
    return f"{label:<18}{text}".replace("\n", "\\n")


# The rows of each list-valued document key; every other key is one _row.
_LIST_ROWS = {
    "fibers": lambda fibers: [
        _row("fiber", f"{f['kind']:<8} m={f['multiplicity']:<4} at {f['point']}") for f in fibers
    ],
    "partners": lambda partners: [
        f"partner b={e['index']:<5} e={e['euler_number']} chi={e['chi']} "
        f"kappa={e['kodaira_dimension']} rational={e['rational']} lambda={e['lambda']}"
        for e in partners
    ],
    "classes": lambda classes: [
        _row("classes", " ".join("{" + ",".join(map(str, block)) + "}" for block in classes))
    ],
    "maps": lambda maps: [_row("map", f"z -> ({a}z + {b})/({c}z + {d})") for a, b, c, d in maps or ()],
    "entries": lambda entries: [
        _row("entry", f"{e['name']:<22} [{e['provenance']}] {e['fibers']}") for e in entries
    ],
}


def _table(doc: dict) -> str:
    """The table view of a document: its top-level keys, in order."""
    lines = []
    for key, value in doc.items():
        lines.extend(_LIST_ROWS[key](value) if key in _LIST_ROWS else [_row(key, value)])
    return "\n".join(lines)


def _output(args: argparse.Namespace) -> str:
    doc = args.handler(args)
    return json.dumps(doc, sort_keys=True, indent=2) if args.json else _table(doc)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys.stdout.write(_output(args) + "\n")
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except EllfmError as exc:
        error = exc
    except MemoryError:
        # The traceback holds ``_output``'s frame, and with it the document,
        # until this clause ends, so the error object is written after it.
        error = OutOfMemoryError(f"{args.command} ran out of memory building or rendering its output")
    sys.stdout.write(json.dumps({"error": error.code, "detail": str(error)}, sort_keys=True, indent=2) + "\n")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
