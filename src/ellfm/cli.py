"""Command-line front end.

Subcommands: construct, invariants, partners, classify, rigidity, verify,
catalog.  Output is a human-readable table on stdout, or canonical JSON with
``--json`` (keys sorted, exact rationals as "a/b" strings); identical
invocations produce byte-identical JSON.  Exit status 0 on success, 1 with a
machine-readable ``{"error": code, "detail": ...}`` object for any domain
error, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import DEFAULT_ENTRY, catalog_get, catalog_list
from .errors import EllfmError, InvalidDocumentError, NotCoprimeError, UnknownEntryError
from .partners import (
    AUT_BOUNDS,
    ClassificationMode,
    PartnerClassification,
    certify_partner_count,
    classify_partners,
    enumerate_partners,
    is_prime,
    order_p_twist,
    partner_indices,
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
from .twists import TwistedSurface, relative_jacobian_power


# A handler's result: the JSON document and the table rows that render it.
Output = tuple[dict, list[str]]


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfm",
        description="Exact invariants and Fourier-Mukai partner counts for twisted rational elliptic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_base(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--base",
            default=DEFAULT_ENTRY,
            help=f"catalog entry name or path to a surface JSON file (default: {DEFAULT_ENTRY})",
        )

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit canonical JSON instead of a table")

    p = sub.add_parser("construct", help="build the order-p twist of a base surface")
    p.add_argument("--p", type=int, required=True, help="order of the twist class (>= 1)")
    p.add_argument("--i", type=int, default=None, help="report the i-th relative Jacobian power instead")
    add_base(p)
    add_json(p)

    p = sub.add_parser("invariants", help="invariants of a base surface or of its order-p twist")
    p.add_argument("--p", type=int, default=None, help="twist the base first with a class of this order")
    p.add_argument("--i", type=int, default=None, help="report the i-th relative Jacobian power (needs --p)")
    add_base(p)
    add_json(p)

    p = sub.add_parser("partners", help="enumerate the Fourier-Mukai partners of the order-p twist")
    p.add_argument("--p", type=int, required=True)
    add_base(p)
    add_json(p)

    p = sub.add_parser("classify", help="partition partner indices into classes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mode", choices=["inversion", "bound"], default="bound")
    p.add_argument("--aut-bound", type=int, choices=AUT_BOUNDS, default=6)
    add_base(p)
    add_json(p)

    p = sub.add_parser("rigidity", help="typed Moebius symmetries of a surface's marked points")
    add_base(p)
    add_json(p)

    p = sub.add_parser("verify", help="certify a lower bound of N non-isomorphic partners for prime p")
    p.add_argument("--p", type=int, required=True, help="prime twist order")
    p.add_argument("--n", type=int, required=True, help="target partner-class count N")
    add_json(p)

    p = sub.add_parser("catalog", help="list built-in base configurations")
    p.add_argument("name", nargs="?", default=None, help="show a single entry")
    add_json(p)

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
        "classes": [list(block) for block in classification.classes],
        "M_min": classification.lower_bound,
    }


def _row(label: str, text) -> str:
    """One table row: the label padded to 18 columns, then the text."""
    return f"{label:<18}{text}"


def _field_lines(doc: dict, keys) -> list[str]:
    """One table row per key present in ``doc``, labelled by the key."""
    return [_row(key, doc[key]) for key in keys if key in doc]


def _surface_lines(doc: dict) -> list[str]:
    lines = _field_lines(doc, ("name", "has_section"))
    for fiber in doc["fibers"]:
        lines.append(_row("fiber", f"{fiber['kind']:<8} m={fiber['multiplicity']:<4} at {fiber['point']}"))
    return lines + _field_lines(
        doc, ("euler_number", "chi", "canonical_degree", "kodaira_dimension", "rational", "lambda")
    )


def _cmd_construct(args) -> Output:
    twisted = _twist_from_args(args)
    if args.i is not None:
        try:
            twisted = relative_jacobian_power(twisted, args.i)
        except NotCoprimeError:
            lam = twisted.multisection_index
            raise UsageError(f"--i {args.i} is not coprime to the multisection index {lam}") from None
    doc = _invariant_doc(twisted.surface, twisted.multisection_index)
    return doc, _surface_lines(doc)


def _cmd_invariants(args) -> Output:
    if args.i is not None and args.p is None:
        raise UsageError("--i requires --p")
    if args.p is not None:
        return _cmd_construct(args)
    base = _load_base(args.base)
    lam = 1 if base.has_section else None
    doc = _invariant_doc(base, lam)
    return doc, _surface_lines(doc)


def _cmd_partners(args) -> Output:
    twisted = _twist_from_args(args)
    lam = twisted.multisection_index
    found = enumerate_partners(twisted)
    partners = []
    for index, partner in zip(partner_indices(lam) or (0,), found):
        entry = _invariant_doc(partner.surface, partner.multisection_index)
        entry["index"] = index
        partners.append(entry)
    doc = {"lambda": lam, "count": len(partners), "partners": partners}
    lines = _field_lines(doc, ("lambda", "count"))
    for entry in partners:
        lines.append(
            f"partner b={entry['index']:<5} e={entry['euler_number']} chi={entry['chi']} "
            f"kappa={entry['kodaira_dimension']} rational={entry['rational']} lambda={entry['lambda']}"
        )
    return doc, lines


def _cmd_classify(args) -> Output:
    twisted = _twist_from_args(args)
    classification = classify_partners(twisted, ClassificationMode(args.mode), args.aut_bound)
    doc = _classification_doc(classification)
    doc["p"] = args.p
    lines = _field_lines(doc, ("p", "lambda", "index_count", "mode", "aut_bound", "M_min"))
    lines.append(_row("classes", " ".join("{" + ",".join(map(str, block)) + "}" for block in doc["classes"])))
    return doc, lines


def _cmd_rigidity(args) -> Output:
    base = _load_base(args.base)
    report = rigidity_check(base.config)
    maps = None if report.symmetries is None else [list(m.entries()) for m in report.symmetries]
    doc = {
        "points": len(base.config),
        "rigid": report.rigid,
        "finite": report.finite,
        "group_order": report.order,
        "maps": maps,
    }
    lines = _field_lines(doc, ("points", "rigid", "finite", "group_order"))
    if maps is not None:
        for a, b, c, d in maps:
            lines.append(_row("map", f"z -> ({a}z + {b})/({c}z + {d})"))
    return doc, lines


def _cmd_verify(args) -> Output:
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
    doc = {**_classification_doc(c), **summary} if args.json else summary
    return doc, [_row(key, value) for key, value in summary.items()]


def _cmd_catalog(args) -> Output:
    if args.name is not None:
        entry = catalog_get(args.name)
        doc = surface_doc(entry.surface)
        doc["provenance"] = entry.provenance.value
        doc["euler_number"] = entry.config.euler_number
        return doc, _surface_lines(doc) + _field_lines(doc, ("provenance",))
    entries = []
    doc = {"default": DEFAULT_ENTRY, "entries": entries}
    lines = _field_lines(doc, ("default",))
    for entry in catalog_list():
        summary = " ".join(fiber.token() for _, fiber in entry.config)
        entries.append(
            {
                "name": entry.name,
                "provenance": entry.provenance.value,
                "euler_number": entry.config.euler_number,
                "fibers": summary,
            }
        )
        lines.append(_row("entry", f"{entry.name:<22} [{entry.provenance.value}] {summary}"))
    return doc, lines


_HANDLERS = {
    "construct": _cmd_construct,
    "invariants": _cmd_invariants,
    "partners": _cmd_partners,
    "classify": _cmd_classify,
    "rigidity": _cmd_rigidity,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, lines = _HANDLERS[args.command](args)
        code = 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except EllfmError as exc:
        doc, code = {"error": exc.code, "detail": str(exc)}, 1
    if args.json or code:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = "\n".join(lines)
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
