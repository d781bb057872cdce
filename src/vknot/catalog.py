"""Named knots with expected invariant values.

The catalog file format is line oriented: ``name<TAB>gauss_code<TAB>kv``
where ``kv`` is a comma-separated list of ``key=value`` pairs; from ``#`` to
the end of a line is a comment.  Every expected value carries a ``source``
provenance string; golden values are re-derived by the test suite on every
run and a mismatch fails the build quoting that provenance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

from .arrows import conway_pairing_table, table_polynomials
from .determinant import determinant
from .diagram import indices, is_mod_p_numberable, parse_gauss_code, serialize_gauss_code, warping_degree
from .errors import PreconditionError, VknotError
from .verify import _mod8_residues


class CatalogError(VknotError, ValueError):
    """Malformed catalog file."""


_INT_KEYS = {"det", "c2", "v2_mod2", "warp"}
_BOOL_KEYS = {"colorable_p0", "colorable_p2", "colorable_p3"}
_STR_KEYS = {"source"}
_KNOWN_KEYS = _INT_KEYS | _BOOL_KEYS | _STR_KEYS
_DET_REFUSED = "determinant refused: "


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: str
    expected: tuple = ()

    _map: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.expected))

    @property
    def provenance(self):
        return self._map.get("source", "unspecified")

    def expect(self, key, default=None):
        return self._map.get(key, default)

    def diagram(self):
        return parse_gauss_code(self.code)


def _parse_value(key, raw, lineno):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise CatalogError("line %d: %s expects an integer, got %r" % (lineno, key, raw))
    if key in _BOOL_KEYS:
        if raw not in ("true", "false"):
            raise CatalogError("line %d: %s expects true/false, got %r" % (lineno, key, raw))
        return raw == "true"
    return raw


def loads_catalog(text):
    entries = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            parts.append("")
        if len(parts) != 3:
            raise CatalogError("line %d: expected name<TAB>code<TAB>key=value,..." % lineno)
        name, code, kv = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if name in seen:
            raise CatalogError("line %d: duplicate entry %r" % (lineno, name))
        seen.add(name)
        try:
            parse_gauss_code(code)
        except VknotError as exc:
            raise CatalogError("line %d: bad code for %r: %s" % (lineno, name, exc))
        expected = []
        if kv:
            for item in kv.split(","):
                if "=" not in item:
                    raise CatalogError("line %d: bad key=value %r" % (lineno, item))
                key, raw = item.split("=", 1)
                key = key.strip()
                if key not in _KNOWN_KEYS:
                    raise CatalogError("line %d: unknown field %r" % (lineno, key))
                expected.append((key, _parse_value(key, raw.strip(), lineno)))
        entries.append(CatalogEntry(name, code, tuple(expected)))
    return entries


def load_catalog(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError("cannot read catalog %s: %s" % (path, exc)) from None
    try:
        return loads_catalog(text)
    except CatalogError as exc:
        raise CatalogError("%s: %s" % (path, exc)) from None


@functools.cache
def _builtin_entries():
    text = resources.files("vknot.data").joinpath("catalog.txt").read_text("utf-8")
    return tuple(loads_catalog(text))


def builtin_catalog():
    """The shipped catalog, read and validated once per process; each call returns a new list."""
    return list(_builtin_entries())


def find_entry(name, entries=None):
    for entry in entries if entries is not None else _builtin_entries():
        if entry.name == name:
            return entry
    return None


def invariant_record(diagram, moduli=(2,), degree=None):
    """The record ``vknot invariants --json`` prints of ``diagram``, all but ``name``.

    Every code gets its mod ``p`` colorability for each of ``moduli`` and its determinant,
    ``None`` when refused with the reason in ``refusals``. A knot also gets its indices,
    warping degree, polynomials up to z^``degree`` (default: every chord), c2, v2 and mod 8 class.
    """
    colorable = {str(p): is_mod_p_numberable(diagram, p) for p in moduli}
    record = {
        "code": serialize_gauss_code(diagram),
        "circles": diagram.num_circles,
        "chords": diagram.num_chords,
        "colorable": colorable,
        "refusals": [],
    }
    try:
        record["determinant"] = determinant(diagram)
    except PreconditionError as exc:
        record["determinant"] = None
        record["refusals"].append(_DET_REFUSED + str(exc))
    if diagram.num_circles != 1:
        return record
    record["indices"] = {str(c): value for c, value in indices(diagram).items()}
    record["warping_degree"] = warping_degree(diagram)
    degree = diagram.num_chords if degree is None else degree
    table = conway_pairing_table(diagram, max_degree=max(degree, 2))
    ascending, descending = table_polynomials(table, degree)
    record["ascending"], record["descending"] = ascending.coeffs, descending.coeffs
    c2 = record["c2"] = table.get(2, (0, 0))[0]
    record["v2"] = {str(p): (c2 % p if p else c2) if colorable[str(p)] else None for p in moduli}
    if record["determinant"] is not None:
        residues = _mod8_residues(c2)
        record["mod8_class"] = "+-%d mod 8" % min(residues)
        record["mod8_consistent"] = record["determinant"] % 8 in residues
    return record


def verify_entry(entry):
    """Re-derive an entry's expected values from its :func:`invariant_record`; returns
    mismatch messages, and one for each value that cannot be re-derived (a refused
    determinant, a knot invariant expected of a link)."""
    record = invariant_record(entry.diagram(), (0, 2, 3), degree=2)
    problems = []

    def check(key, actual):
        want = entry.expect(key)
        if want is not None and want != actual:
            problems.append(
                "%s: %s expected %r got %r (source: %s)"
                % (entry.name, key, want, actual, entry.provenance)
            )

    def refuse(key, reason):
        problems.append(
            "%s: %s expected %r but %s (source: %s)"
            % (entry.name, key, entry.expect(key), reason, entry.provenance)
        )

    for p in (0, 2, 3):
        check("colorable_p%d" % p, record["colorable"][str(p)])
    if record["circles"] == 1:
        check("c2", record["c2"])
        check("v2_mod2", record["c2"] % 2)
        check("warp", record["warping_degree"])
    else:
        for key in ("c2", "v2_mod2", "warp"):
            if entry.expect(key) is not None:
                refuse(key, "it is defined for one-circle codes only")
    if entry.expect("det") is not None:
        if record["determinant"] is not None:
            check("det", record["determinant"])
        elif not record["colorable"]["2"]:
            refuse("det", "diagram is not colorable")
        else:
            refuse("det", "the determinant is refused: %s" % record["refusals"][0].removeprefix(_DET_REFUSED))
    return problems
