"""The signed Gauss code parser that came before the one-scan parser in
``vknot.diagram``.

It matches one token at a time with ``_TOKEN.match`` and treats a ``*`` in
the last position of a circle as the trailing basepoint.  It is kept here,
unchanged, as the reference that ``parse_gauss_code`` must agree with: the
same diagrams, and the same ``GaussCodeError`` messages.
"""

from vknot.diagram import _TOKEN, make_diagram
from vknot.errors import GaussCodeError


def parse_gauss_code(text):
    """Parse a signed Gauss code such as ``"O1+U2+O3+U1+O2+U3+"``.

    Circles are separated by ``;``.  A ``*`` before a token moves that
    circle's basepoint to the gap preceding the token (default: before the
    first token).  Whitespace is ignored.
    """
    circles = []
    chord_sign = {}
    seen = set()
    for chunk in text.split(";"):
        chunk = "".join(chunk.split())
        word = []
        star_at = None
        pos = 0
        while pos < len(chunk):
            if chunk[pos] == "*" and pos == len(chunk) - 1:
                # trailing star: gap after the last token, i.e. the default gap
                if star_at is not None:
                    raise GaussCodeError("circle has more than one basepoint marker")
                star_at = 0
                pos += 1
                continue
            m = _TOKEN.match(chunk, pos)
            if not m:
                raise GaussCodeError("bad token at %r" % chunk[pos : pos + 8])
            star, ou, label, sgn = m.groups()
            if star:
                if star_at is not None:
                    raise GaussCodeError("circle has more than one basepoint marker")
                star_at = len(word)
            chord = int(label)
            is_head = ou == "U"
            sign = 1 if sgn == "+" else -1
            if (chord, is_head) in seen:
                raise GaussCodeError("duplicate %s token for label %d" % (ou, chord))
            seen.add((chord, is_head))
            if chord in chord_sign and chord_sign[chord] != sign:
                raise GaussCodeError("sign mismatch between O and U tokens of label %d" % chord)
            chord_sign[chord] = sign
            word.append((chord, is_head))
            pos = m.end()
        if star_at:
            word = word[star_at:] + word[:star_at]
        circles.append(tuple(word))
    for chord in chord_sign:
        if (chord, False) not in seen or (chord, True) not in seen:
            raise GaussCodeError("label %d is missing its partner token" % chord)
    return make_diagram(circles, chord_sign)
