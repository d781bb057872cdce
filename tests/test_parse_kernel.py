"""Differential tests of the one-scan ``diagram.parse_gauss_code``.

The reference is the token-at-a-time parser it replaced (``parseref``):
both must give the same diagram, or raise ``GaussCodeError`` with the same
message.
"""

import random
import runpy
from pathlib import Path

import parseref

from vknot.catalog import builtin_catalog
from vknot.diagram import parse_gauss_code, serialize_gauss_code
from vknot.enumeration import random_knot_diagram, random_link_diagram
from vknot.errors import GaussCodeError

# run as a script, not imported, so that no bytecode is written under bench/
BENCH_INPUTS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "inputs.py"))

MALFORMED = [
    "O1+xU1+",            # junk character mid-chunk
    "O1+U1+x",            # junk at the end
    "xO1+U1+",            # junk at the start
    "O1+*",               # trailing star, the default gap
    "*",                  # a lone star
    "O1+*U1+",            # star mid-chunk, before a token
    "O1+**U1+",           # two stars mid-chunk
    "O1+U1+**",           # two trailing stars
    "**O1+U1+",           # two leading stars
    "*O1+*U1+",           # two basepoint stars
    "*O1+U1+*",           # trailing star after a star
    "O1+*U1+*",           # trailing star after a mid-chunk star
    "O1+*x",              # star then junk
    "O1+O1+U1+",          # duplicate token
    "O1+U1+U1+",          # duplicate head
    "O1+U1-",             # sign mismatch
    "O1+U2+",             # missing partners
    "O1+",                # missing partner
    "O1+U1",              # missing sign
    "Q1+U1+",             # bad letter
    "O+U1+",              # missing label
    " O1+ U2-\tO2-\nU1+ ",  # whitespace inside and around tokens
    "O1 +U1+",            # whitespace inside a token
    "O1+;U1+",            # a chord across two circles
    ";",                  # two empty circles
    "",                   # no circle
    "O1+U1+;*",           # a star on an empty circle
    "O1+;U1+*;O2-U2-",    # trailing star on a middle circle
    "O1+;U1-",            # sign mismatch across circles
    "O1+U1+;O1+U1+",      # duplicate tokens across circles
    "O001+U1+",           # leading zeros
    "O1+U1+O2+U2+O3",     # truncated last token
]


def _outcome(parse, text):
    """The parsed diagram, or the message of the ``GaussCodeError`` raised."""
    try:
        return parse(text)
    except GaussCodeError as exc:
        return "GaussCodeError: %s" % exc


def _assert_same(text):
    want = _outcome(parseref.parse_gauss_code, text)
    assert _outcome(parse_gauss_code, text) == want, text
    return want


def test_malformed_corpus_matches_reference():
    outcomes = [_assert_same(text) for text in MALFORMED]
    errors = {o for o in outcomes if isinstance(o, str)}
    assert len(errors) >= 10 and len(outcomes) - len(errors) >= 5


def test_star_placements_match_reference():
    # a star in every gap of a chunk, alone or with a second star, and junk in every gap
    rng = random.Random(13)
    code = serialize_gauss_code(random_knot_diagram(5, rng))
    cuts = range(len(code) + 1)
    for a in cuts:
        _assert_same(code[:a] + "*" + code[a:])
        _assert_same(code[:a] + "#" + code[a:])
        for b in cuts:
            if a <= b:
                _assert_same(code[:a] + "*" + code[a:b] + "*" + code[b:])


def test_catalog_and_workload_codes_match_reference():
    codes = [entry.code for entry in builtin_catalog()]
    for seed in (1, 2, 3):
        codes += BENCH_INPUTS["large_inputs"](seed)
        braids, virtuals = BENCH_INPUTS["table_inputs"](seed)
        codes += braids + virtuals
    for code in codes:
        assert not isinstance(_assert_same(code), str), code


def test_seeded_codes_match_reference():
    rng = random.Random(31)
    for k in range(1, 13):
        for _ in range(10):
            G = random_knot_diagram(k, rng) if rng.random() < 0.5 else random_link_diagram(k, rng)
            text = serialize_gauss_code(G)
            assert _assert_same(text) == G
            tokens = text.replace(";", " ; ").replace("+", "+ ").replace("-", "- ").split()
            # a star before a random token moves the basepoint there
            tokens.insert(rng.randrange(len(tokens) + 1), "*")
            _assert_same(" ".join(tokens))
            # one token dropped, so its partner is missing
            del tokens[rng.randrange(len(tokens))]
            _assert_same("".join(tokens))

