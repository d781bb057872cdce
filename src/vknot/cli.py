"""Command line front end.

Exit status: 0 on success, 1 on Gauss-code parse errors, 2 when a requested
computation's precondition fails (for example the determinant of a knot that
is not checkerboard colorable), 3 when ``verify`` reports a counterexample.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .arrows import IntPolynomial, conway_sets
from .catalog import builtin_catalog, find_entry, invariant_record, load_catalog
from .diagram import is_mod_p_numberable, parse_gauss_code, serialize_gauss_code
from .enumeration import enumerate_diagrams
from .errors import GaussCodeError, PreconditionError, VknotError
from .verify import CHECKS, SweepConfig, reports_to_json, run_checks


def modulus(text):
    """argparse type of every modulus option; a negative one fails like a precondition."""
    p = int(text)
    if p < 0:
        raise PreconditionError("modulus must be >= 0, got %d" % p)
    return p


def count(text):
    """argparse type of every count option; a negative one fails like a precondition."""
    n = int(text)
    if n < 0:
        raise PreconditionError("count must be >= 0, got %d" % n)
    return n


@functools.cache
def _build_parser():
    """The parser of every command, built on first use; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(prog="vknot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="invariants of one knot (code or catalog name)")
    inv.add_argument("knot", help="signed Gauss code, or a catalog entry name")
    inv.add_argument("-p", "--modulus", type=modulus, action="append", default=None,
                     help="modulus for colorability and v2 (repeatable; default 2)")
    inv.add_argument("--degree", type=count, default=None, help="polynomial degree bound")
    inv.add_argument("--catalog", default=None, help="extra catalog file for name lookup")
    inv.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="run sweep checks")
    ver.add_argument("checks", nargs="*", help="check names (default: all: %s)" % ", ".join(sorted(CHECKS)))
    ver.add_argument("--max-chords", type=count, default=4)
    ver.add_argument("-p", "--modulus", type=modulus, action="append", default=None,
                     help="moduli for the modular checks (default 2 3)")
    ver.add_argument("--samples", type=count, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--workers", type=count, default=1,
                     help="processes a sweep runs in, counting this one (default 1; 0 or 1: serial)")
    ver.add_argument("--json", action="store_true")

    enu = sub.add_parser("enumerate", help="stream one-circle diagrams with k chords")
    enu.add_argument("chords", type=count)
    enu.add_argument("--canonical", action="store_true",
                     help="deduplicate up to basepoint rotation")
    enu.add_argument("--colorable", type=modulus, default=None, metavar="P",
                     help="keep only mod-P numberable diagrams")
    enu.add_argument("--limit", type=count, default=None)

    con = sub.add_parser("conway", help="export one-component ascending/descending diagrams")
    con.add_argument("--degree", type=count, required=True, help="generate all degrees up to this bound")
    con.add_argument("--variant", choices=("ascending", "descending"), default=None)
    return parser


def _cmd_invariants(args):
    entries = builtin_catalog()
    if args.catalog:
        entries = load_catalog(args.catalog) + entries
    entry = find_entry(args.knot, entries)
    moduli = args.modulus or [2]
    out = invariant_record(parse_gauss_code(entry.code if entry else args.knot), moduli, args.degree)
    is_knot = out["circles"] == 1

    if args.json:
        print(json.dumps({**out, "name": entry.name if entry else None}, indent=2, sort_keys=True))
    else:
        print("code: %s" % out["code"])
        if entry:
            print("name: %s" % entry.name)
        print("circles: %d  chords: %d" % (out["circles"], out["chords"]))
        if is_knot:
            print("indices: %s" % " ".join("%s:%d" % kv for kv in sorted(out["indices"].items())))
            print("warping degree: %d" % out["warping_degree"])
        for p in moduli:
            print("mod %d numberable: %s" % (p, "yes" if out["colorable"][str(p)] else "no"))
        if is_knot:
            print("ascending:  %s" % IntPolynomial(out["ascending"]))
            print("descending: %s" % IntPolynomial(out["descending"]))
            print("z^2 coefficient: %d" % out["c2"])
            for p in moduli:
                value = out["v2"][str(p)]
                print("v2 mod %d: %s" % (p, value if value is not None else "n/a (not numberable)"))
        if out["determinant"] is not None:
            print("determinant: %d" % out["determinant"])
            if is_knot:
                print("determinant class: %s (%s)" % (
                    out["mod8_class"],
                    "consistent" if out["mod8_consistent"] else "INCONSISTENT",
                ))
        for message in out["refusals"]:
            print(message)
    return 2 if out["refusals"] else 0


def _cmd_verify(args):
    config = SweepConfig(
        max_chords=args.max_chords,
        moduli=tuple(args.modulus) if args.modulus else (2, 3),
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    reports = run_checks(config, args.checks or None)
    if args.json:
        print(reports_to_json(reports))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return 3 if any(r.failures for r in reports) else 0


def _cmd_enumerate(args):
    p = args.colorable
    # mod 2 the colorable words are generated, not filtered, in the same order
    diagrams = enumerate_diagrams(args.chords, canonical=args.canonical, colorable=p == 2)
    if p not in (None, 2):
        diagrams = (diagram for diagram in diagrams if is_mod_p_numberable(diagram, p))
    for diagram in itertools.islice(diagrams, args.limit):
        print(serialize_gauss_code(diagram))
    return 0


def _cmd_conway(args):
    variants = (args.variant,) if args.variant else ("ascending", "descending")
    for degree in range(args.degree + 1):
        sets = {found.variant: found for found in conway_sets(degree, 1 if degree % 2 == 0 else 2)}
        for variant in variants:
            for member in sets[variant].members:
                print("%d\t%s\t%s" % (degree, variant, member))
    return 0


_COMMANDS = {
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "conway": _cmd_conway,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except GaussCodeError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except VknotError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
