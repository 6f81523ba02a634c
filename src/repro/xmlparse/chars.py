"""Character classes from the XML 1.0 specification.

Only the classification the parser actually needs is implemented: name
start characters, name characters, whitespace, and the set of characters
legal in XML content.  The Unicode ranges follow the Fifth Edition
productions [4], [4a] and [2].

The parser scans with patterns compiled from the range tables below
(:data:`NAME`, :data:`SPACE`, :data:`ILLEGAL_CHAR`).  The per-character
predicates are the reference the tests hold those patterns to;
``is_xml_char`` restates production [2] independently of its table and
also vets field text in the text-XML wire codec.
"""

from __future__ import annotations

import re

#: XML whitespace (production [3] S).
WHITESPACE = " \t\r\n"

_NAME_START_RANGES = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

_NAME_EXTRA_RANGES = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)

_XML_CHAR_RANGES = (
    (0x9, 0xA),
    (0xD, 0xD),
    (0x20, 0xD7FF),
    (0xE000, 0xFFFD),
    (0x10000, 0x10FFFF),
)


def _class_body(ranges: tuple[tuple[int, int], ...]) -> str:
    """The inside of a regex character class matching ``ranges``."""
    return "".join(f"\\U{low:08x}-\\U{high:08x}" for low, high in ranges)


#: One XML Name (productions [4]-[5]); ``match`` it at a position.
NAME = re.compile(
    f"[{_class_body(_NAME_START_RANGES)}]"
    f"[{_class_body(_NAME_START_RANGES + _NAME_EXTRA_RANGES)}]*"
)

#: A possibly empty run of whitespace; ``match`` always succeeds.
SPACE = re.compile(f"[{re.escape(WHITESPACE)}]*")

#: Any character outside production [2]; ``search`` finds the first.
ILLEGAL_CHAR = re.compile(f"[^{_class_body(_XML_CHAR_RANGES)}]")


def _in_ranges(code: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    return any(low <= code <= high for low, high in ranges)


def is_name_start(ch: str) -> bool:
    """True if ``ch`` may start an XML Name (production [4])."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """True if ``ch`` may continue an XML Name (production [4a])."""
    code = ord(ch)
    return _in_ranges(code, _NAME_START_RANGES) or _in_ranges(code, _NAME_EXTRA_RANGES)


def is_xml_char(ch: str) -> bool:
    """True if ``ch`` is legal anywhere in an XML document (production [2])."""
    code = ord(ch)
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )
