"""Reference VPD reader: the recursive-descent parser that
:func:`vhx.vpd.parse_vpd` used before it read its tokens in one loop over a
grammar table.  It is kept to check that loop: on any text both return the
same vertex tuples, or raise a :class:`~vhx.vpd.VPDError` with the same
message (a label too long for ``int`` is the one input it lets through as a
bare ``ValueError``).
"""

from __future__ import annotations

import re

from vhx.vpd import RotationSystem, VPDError, validate

_TOKEN = re.compile(r"\s*(G\s*\[|V\s*\[|\]|,|-?\s*\d+)")


def reference_parse_vpd(text: str, any_valence: bool = False) -> RotationSystem:
    """Parse VPD text ``G[V[...],...]`` into a validated RotationSystem."""
    def fail(msg: str, at: int) -> None:
        line = text.count("\n", 0, at) + 1
        col = at - (text.rfind("\n", 0, at) + 1) + 1
        raise VPDError(f"{msg} at line {line}, column {col}")

    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            at = len(text) - len(text[pos:].lstrip())
            if at == len(text):
                break
            fail(f"unexpected character {text[at]!r}", at)
        tokens.append((re.sub(r"\s+", "", m.group(1)), m.start(1)))
        pos = m.end()

    i = 0

    def expect(tok: str) -> None:
        nonlocal i
        if i >= len(tokens) or tokens[i][0] != tok:
            fail(f"expected {tok!r}", tokens[i][1] if i < len(tokens) else len(text))
        i += 1

    expect("G[")
    verts: list[tuple[int, ...]] = []
    while True:
        expect("V[")
        tup: list[int] = []
        while True:
            if i >= len(tokens):
                fail("unterminated V-tuple", len(text))
            tok, at = tokens[i]
            if not re.fullmatch(r"-?\d+", tok):
                fail("expected integer", at)
            val = int(tok)
            if val == 0:
                fail("half-edge labels must be nonzero", at)
            tup.append(val)
            i += 1
            if i < len(tokens) and tokens[i][0] == ",":
                i += 1
                continue
            expect("]")
            break
        verts.append(tuple(tup))
        if i < len(tokens) and tokens[i][0] == ",":
            i += 1
            continue
        expect("]")
        break
    if i != len(tokens):
        fail("trailing input after closing bracket", tokens[i][1])

    rs = RotationSystem(tuple(verts))
    validate(rs, any_valence=any_valence)
    return rs
