"""The parser's compiled scanner patterns against the per-character
reference predicates in :mod:`repro.xmlparse.chars`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlparse import chars
from repro.xmlparse.chars import ILLEGAL_CHAR, NAME, SPACE

MAX_CODE = 0x10FFFF

#: Every end of every range table, and its neighbours on both sides.
BOUNDARIES = sorted(
    {
        end + delta
        for table in (
            chars._NAME_START_RANGES,
            chars._NAME_EXTRA_RANGES,
            chars._XML_CHAR_RANGES,
        )
        for low, high in table
        for end in (low, high)
        for delta in (-1, 0, 1)
        if 0 <= end + delta <= MAX_CODE
    }
    | {0, MAX_CODE}
)


def pattern_verdicts(ch: str) -> tuple[bool, bool, bool, bool]:
    return (
        NAME.fullmatch(ch) is not None,
        NAME.fullmatch("a" + ch) is not None,
        ILLEGAL_CHAR.fullmatch(ch) is None,
        SPACE.fullmatch(ch) is not None,
    )


def oracle_verdicts(ch: str) -> tuple[bool, bool, bool, bool]:
    return (
        chars.is_name_start(ch),
        chars.is_name_char(ch),
        chars.is_xml_char(ch),
        ch in chars.WHITESPACE,
    )


def oracle_name_end(text: str, pos: int) -> int | None:
    """Where a Name starting at ``pos`` ends, scanning one character at a
    time, or None if no Name starts there."""
    if pos >= len(text) or not chars.is_name_start(text[pos]):
        return None
    end = pos + 1
    while end < len(text) and chars.is_name_char(text[end]):
        end += 1
    return end


def test_patterns_agree_on_every_range_boundary():
    for code in BOUNDARIES:
        ch = chr(code)
        assert pattern_verdicts(ch) == oracle_verdicts(ch), hex(code)


@settings(max_examples=500, deadline=None)
@given(code=st.one_of(st.integers(0, 0xFFFF), st.integers(0x10000, MAX_CODE)))
def test_patterns_agree_on_random_code_points(code):
    ch = chr(code)
    assert pattern_verdicts(ch) == oracle_verdicts(ch)


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(
        st.one_of(
            st.sampled_from([chr(code) for code in BOUNDARIES]),
            st.characters(),
        ),
        max_size=12,
    ),
    pos=st.integers(0, 12),
)
def test_name_scan_matches_character_walk(text, pos):
    match = NAME.match(text, pos)
    assert (None if match is None else match.end()) == oracle_name_end(text, pos)
