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
import math
import os
import sys

from .catalog import DEFAULT_ENTRY, catalog_get, catalog_list, validate_config
from .errors import EllfmError, InvalidBaseError, InvalidDocumentError, UnknownEntryError
from .partners import (
    AUT_BOUNDS,
    ClassificationMode,
    certify_partner_count,
    classification_doc,
    classify_partners,
    enumerate_partners,
    is_prime,
    order_p_twist,
    partner_indices,
    rigidity_check,
    verdict_doc,
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


def _load_base(ref: str, *, gate: bool) -> EllipticSurface:
    """Resolve --base: a catalog name first, else a JSON file path.

    With ``gate`` set the surface must pass the section-bearing base checks
    used for twisting (Euler sum 12, no multiple fibers, has a section).
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
        except ValueError as exc:  # undecodable bytes, bad JSON, oversized integers
            raise InvalidDocumentError(f"{ref}: not valid JSON ({exc})") from exc
        surface = surface_from_doc(doc)
    if gate and not (surface.has_section and validate_config(surface.config)):
        raise InvalidBaseError(
            f"base {surface.name or ref!r} is not a section-bearing configuration with Euler sum 12"
        )
    return surface


def _twist_from_args(args) -> TwistedSurface:
    """The order-p twist named by ``--p`` and ``--base``."""
    if args.p < 1:
        raise UsageError("--p must be a positive integer")
    return order_p_twist(_load_base(args.base, gate=True), args.p)


def _invariant_doc(twisted_or_surface, lam: int | None) -> dict:
    surface = getattr(twisted_or_surface, "surface", twisted_or_surface)
    doc = surface_doc(surface)
    doc.update(
        {
            "euler_number": euler_number(surface),
            "chi": chi(surface),
            "canonical_degree": str(canonical_degree(surface)),
            "kodaira_dimension": kodaira_dimension(surface).value,
            "rational": is_rational(surface),
            "lambda": lam,
        }
    )
    return doc


def _field_lines(doc: dict, keys) -> list[str]:
    """One table row per key present in ``doc``: the key padded to 18 columns, then its value."""
    return [f"{key:<18}{doc[key]}" for key in keys if key in doc]


def _surface_lines(doc: dict) -> list[str]:
    lines = _field_lines(doc, ("name", "has_section"))
    for fiber in doc["fibers"]:
        lines.append(
            f"fiber             {fiber['kind']:<8} m={fiber['multiplicity']:<4} at {fiber['point']}"
        )
    return lines + _field_lines(
        doc, ("euler_number", "chi", "canonical_degree", "kodaira_dimension", "rational", "lambda")
    )


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_construct(args) -> int:
    twisted = _twist_from_args(args)
    if args.i is not None:
        lam = twisted.multisection_index
        if args.i != 0 and math.gcd(args.i, lam) != 1:
            raise UsageError(f"--i {args.i} is not coprime to the multisection index {lam}")
        twisted = relative_jacobian_power(twisted, args.i)
    doc = _invariant_doc(twisted, twisted.multisection_index)
    _emit(doc, args.json, _surface_lines(doc))
    return 0


def _cmd_invariants(args) -> int:
    if args.i is not None and args.p is None:
        raise UsageError("--i requires --p")
    if args.p is not None:
        return _cmd_construct(args)
    base = _load_base(args.base, gate=False)
    lam = 1 if base.has_section else None
    doc = _invariant_doc(base, lam)
    _emit(doc, args.json, _surface_lines(doc))
    return 0


def _cmd_partners(args) -> int:
    twisted = _twist_from_args(args)
    lam = twisted.multisection_index
    found = enumerate_partners(twisted)
    partners = []
    for index, partner in zip(partner_indices(lam) or (0,), found):
        entry = _invariant_doc(partner, partner.multisection_index)
        entry["index"] = index
        partners.append(entry)
    doc = {"lambda": lam, "count": len(partners), "partners": partners}
    lines = _field_lines(doc, ("lambda", "count"))
    for entry in partners:
        lines.append(
            f"partner b={entry['index']:<5} e={entry['euler_number']} chi={entry['chi']} "
            f"kappa={entry['kodaira_dimension']} rational={entry['rational']} lambda={entry['lambda']}"
        )
    _emit(doc, args.json, lines)
    return 0


def _cmd_classify(args) -> int:
    twisted = _twist_from_args(args)
    classification = classify_partners(twisted, ClassificationMode(args.mode), args.aut_bound)
    doc = classification_doc(classification)
    doc["p"] = args.p
    lines = _field_lines(doc, ("p", "lambda", "index_count", "mode", "aut_bound", "M_min"))
    lines.append(
        "classes           " + " ".join("{" + ",".join(map(str, block)) + "}" for block in doc["classes"])
    )
    _emit(doc, args.json, lines)
    return 0


def _cmd_rigidity(args) -> int:
    base = _load_base(args.base, gate=False)
    report = rigidity_check(base.config)
    maps = None
    if report.symmetries is not None:
        maps = [list(m.entries()) for m in report.symmetries]
    doc = {
        "points": len(base.config),
        "rigid": report.rigid,
        "finite": report.finite,
        "group_order": report.order,
        "maps": maps,
    }
    lines = _field_lines(doc, ("points", "rigid", "finite", "group_order"))
    if maps is not None:
        for row in maps:
            a, b, c, d = row
            lines.append(f"map               z -> ({a}z + {b})/({c}z + {d})")
    _emit(doc, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    if not is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    verdict = certify_partner_count(args.p, args.n)
    doc = verdict_doc(verdict)
    _emit(doc, args.json, _field_lines(doc, ("p", "N", "lambda", "index_count", "M_min", "verdict")))
    return 0


def _cmd_catalog(args) -> int:
    if args.name is not None:
        entry = catalog_get(args.name)
        doc = surface_doc(entry.surface)
        doc["provenance"] = entry.provenance.value
        doc["euler_number"] = entry.config.euler_number
        _emit(doc, args.json, _surface_lines(doc) + _field_lines(doc, ("provenance",)))
        return 0
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
        lines.append(f"entry             {entry.name:<22} [{entry.provenance.value}] {summary}")
    _emit(doc, args.json, lines)
    return 0


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
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except EllfmError as exc:
        error = {"error": exc.code, "detail": str(exc)}
        sys.stdout.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
