"""A streaming pull parser for XML 1.0.

:class:`PullParser` consumes a complete document string and yields
:mod:`~repro.xmlparse.events` in document order.  It enforces
well-formedness (matching tags, single root, unique attribute names, legal
name characters, legal characters everywhere) and resolves the predefined
entities and numeric character references.  A DOCTYPE declaration, if
present, is tolerated and skipped — external and internal DTD subsets are
explicitly out of scope (the paper itself dismisses DTDs as insufficient
for typed metadata and moves to XML Schema).

Line endings are normalized (``\\r\\n`` and ``\\r`` become ``\\n``) before
parsing, as required by the XML specification, so reported line numbers
and attribute values are identical regardless of the producing platform.

Names and whitespace are scanned with the patterns compiled in
:mod:`~repro.xmlparse.chars`; production [2] (legal characters) is checked
once over the whole document.  The cursor is one offset, turned into
``(line, column)`` only where an event or an error is emitted.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmlparse.chars import ILLEGAL_CHAR, NAME, SPACE
from repro.xmlparse.events import (
    CDataEvent,
    CharactersEvent,
    CommentEvent,
    EndElementEvent,
    Event,
    ProcessingInstructionEvent,
    StartElementEvent,
    XMLDeclEvent,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


class PullParser:
    """Parse one XML document, yielding events via :meth:`events`.

    The parser is single-use: construct one instance per document.

    Parameters
    ----------
    source:
        The complete document text.  Callers reading from files or
        sockets should decode to ``str`` first (UTF-8 is assumed by all
        repro components).
    """

    def __init__(self, source: str) -> None:
        self._text = source.replace("\r\n", "\n").replace("\r", "\n")
        self._pos = 0
        # _line is the line of offset _line_pos; _location counts on from it.
        self._line_pos = 0
        self._line = 1
        self._open_elements: list[str] = []
        self._exhausted = False

    # -- public API -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        """Yield every event in the document, checking well-formedness.

        Raises :class:`~repro.errors.XMLSyntaxError` on the first
        violation.
        """
        if self._exhausted:
            raise XMLSyntaxError("PullParser instances are single-use")
        self._exhausted = True
        illegal = ILLEGAL_CHAR.search(self._text)
        if illegal is not None:
            self._error(f"illegal character U+{ord(illegal[0]):04X}", illegal.start())

        decl = self._parse_xml_decl()
        if decl is not None:
            yield decl
        yield from self._parse_misc()
        self._skip_doctype()
        yield from self._parse_misc()
        if self._pos >= len(self._text):
            self._error("document has no root element")
        yield from self._parse_element()
        yield from self._parse_misc()
        if self._pos < len(self._text):
            self._error("content after document root element")

    # -- low-level cursor -------------------------------------------------

    def _location(self, pos: int) -> tuple[int, int]:
        """1-based ``(line, column)`` of offset ``pos``.

        Events and errors are located in document order, so ``pos`` never
        precedes the last offset located and newlines are counted once.
        """
        text = self._text
        self._line += text.count("\n", self._line_pos, pos)
        self._line_pos = pos
        return self._line, pos - text.rfind("\n", 0, pos)

    def _error(self, message: str, pos: int | None = None) -> None:
        line, column = self._location(self._pos if pos is None else pos)
        raise XMLSyntaxError(message, line, column)

    def _expect(self, literal: str) -> None:
        if not self._text.startswith(literal, self._pos):
            self._error(f"expected {literal!r}")
        self._pos += len(literal)

    def _skip_whitespace(self, required: bool = False) -> None:
        end = SPACE.match(self._text, self._pos).end()
        if required and end == self._pos:
            self._error("expected whitespace")
        self._pos = end

    def _scan_until(self, terminator: str, context: str) -> str:
        """Consume and return text up to (not including) ``terminator``."""
        index = self._text.find(terminator, self._pos)
        if index < 0:
            self._error(f"unterminated {context}: missing {terminator!r}")
        chunk = self._text[self._pos : index]
        self._pos = index
        return chunk

    def _parse_name(self) -> str:
        match = NAME.match(self._text, self._pos)
        if match is None:
            self._error("expected an XML name")
        self._pos = match.end()
        return match.group()

    # -- prolog -----------------------------------------------------------

    def _parse_xml_decl(self) -> XMLDeclEvent | None:
        start = self._pos
        # The declaration is the PI whose target is exactly "xml"; a target
        # merely starting with "xml" is a PI (illegal anyway, but give the
        # right error later).
        if not self._text.startswith("<?xml", start):
            return None
        target = NAME.match(self._text, start + 2)
        if target.end() != start + 5:
            return None
        line, column = self._location(start)
        self._pos += 5
        params: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._text.startswith("?>", self._pos):
                self._pos += 2
                break
            name = self._parse_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            params[name] = self._parse_quoted()
        version = params.get("version")
        if version is None:
            self._error("XML declaration missing version")
        return XMLDeclEvent(
            line=line,
            column=column,
            version=version,
            encoding=params.get("encoding"),
            standalone=params.get("standalone"),
        )

    def _skip_doctype(self) -> None:
        if not self._text.startswith("<!DOCTYPE", self._pos):
            return
        depth = 0
        # Find the ">" that closes the declaration, outside its [ ] subset.
        for mark in re.finditer(r"[\[\]>]", self._text[self._pos :]):
            ch = mark.group()
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif depth == 0:
                self._pos += mark.end()
                return
        self._pos = len(self._text)
        self._error("unterminated DOCTYPE declaration")

    def _parse_misc(self) -> Iterator[Event]:
        """Comments, PIs and whitespace outside the root element."""
        while True:
            self._skip_whitespace()
            if self._text.startswith("<!--", self._pos):
                yield self._parse_comment()
            elif self._text.startswith("<?", self._pos):
                yield self._parse_pi()
            else:
                return

    # -- markup -----------------------------------------------------------

    def _parse_comment(self) -> CommentEvent:
        line, column = self._location(self._pos)
        self._pos += 4  # "<!--"
        body = self._scan_until("--", "comment")
        self._pos += 2
        if not self._text.startswith(">", self._pos):
            self._error("'--' is not allowed inside comments")
        self._pos += 1
        return CommentEvent(line=line, column=column, text=body)

    def _parse_pi(self) -> ProcessingInstructionEvent:
        line, column = self._location(self._pos)
        self._pos += 2  # "<?"
        target = self._parse_name()
        if target.lower() == "xml":
            self._error("processing instruction target may not be 'xml'")
        data = ""
        if not self._text.startswith("?", self._pos):
            self._skip_whitespace(required=True)
            data = self._scan_until("?>", "processing instruction")
        self._expect("?>")
        return ProcessingInstructionEvent(line=line, column=column, target=target, data=data)

    def _parse_quoted(self) -> str:
        quote = self._text[self._pos : self._pos + 1]
        if quote not in ("'", '"'):
            self._error("expected a quoted value")
        self._pos += 1
        raw = self._scan_until(quote, "quoted value")
        self._pos += 1
        if "<" in raw:
            self._error("'<' is not allowed in attribute values")
        # Attribute-value normalization: whitespace chars become spaces.
        normalized = raw.replace("\t", " ").replace("\n", " ")
        return self._resolve_entities(normalized)

    def _resolve_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        parts: list[str] = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp < 0:
                parts.append(raw[index:])
                break
            parts.append(raw[index:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0:
                self._error("unterminated entity reference")
            entity = raw[amp + 1 : semi]
            parts.append(self._expand_entity(entity))
            index = semi + 1
        return "".join(parts)

    def _expand_entity(self, entity: str) -> str:
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            body, base = entity[2:], 16
        elif entity.startswith("#"):
            body, base = entity[1:], 10
        else:
            self._error(f"undefined entity &{entity};")
        try:
            code = int(body, base)
            ch = chr(code)
        except (ValueError, OverflowError):
            self._error(f"invalid character reference &{entity};")
        if ILLEGAL_CHAR.match(ch):
            self._error(f"character reference &{entity}; is not a legal XML character")
        return ch

    # -- element content ---------------------------------------------------

    def _parse_element(self) -> Iterator[Event]:
        """Parse one element (the root); iterative to handle deep trees."""
        first = self._parse_start_tag()
        yield first
        if first.empty:
            yield EndElementEvent(line=first.line, column=first.column, name=first.name)
            return
        self._open_elements.append(first.name)
        text = self._text
        while self._open_elements:
            pos = self._pos
            if pos >= len(text):
                self._error(f"unexpected end of document inside <{self._open_elements[-1]}>")
            if text[pos] != "<":
                event = self._parse_characters()
                if event is not None:
                    yield event
            elif text.startswith("</", pos):
                yield self._parse_end_tag()
            elif text.startswith("<!--", pos):
                yield self._parse_comment()
            elif text.startswith("<![CDATA[", pos):
                yield self._parse_cdata()
            elif text.startswith("<?", pos):
                yield self._parse_pi()
            elif text.startswith("<!", pos):
                self._error("unexpected markup declaration in content")
            else:
                start = self._parse_start_tag()
                yield start
                if start.empty:
                    yield EndElementEvent(
                        line=start.line, column=start.column, name=start.name
                    )
                else:
                    self._open_elements.append(start.name)

    def _parse_start_tag(self) -> StartElementEvent:
        line, column = self._location(self._pos)
        self._expect("<")
        name = self._parse_name()
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        text = self._text
        while True:
            before = self._pos
            self._skip_whitespace()
            empty = text.startswith("/>", self._pos)
            if empty or text.startswith(">", self._pos):
                self._pos += 2 if empty else 1
                return StartElementEvent(
                    line=line, column=column, name=name,
                    attributes=tuple(attributes), empty=empty,
                )
            if self._pos == before:
                self._error(f"expected whitespace before attribute in <{name}>")
            attr_name = self._parse_name()
            if attr_name in seen:
                self._error(f"duplicate attribute {attr_name!r} in <{name}>")
            seen.add(attr_name)
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            attributes.append((attr_name, self._parse_quoted()))

    def _parse_end_tag(self) -> EndElementEvent:
        line, column = self._location(self._pos)
        self._pos += 2  # "</"
        name = self._parse_name()
        self._skip_whitespace()
        self._expect(">")
        if not self._open_elements:
            self._error(f"unmatched end tag </{name}>")
        expected = self._open_elements.pop()
        if name != expected:
            self._error(f"mismatched end tag: expected </{expected}>, found </{name}>")
        return EndElementEvent(line=line, column=column, name=name)

    def _parse_cdata(self) -> CDataEvent:
        line, column = self._location(self._pos)
        self._pos += 9  # "<![CDATA["
        body = self._scan_until("]]>", "CDATA section")
        self._pos += 3
        return CDataEvent(line=line, column=column, text=body)

    def _parse_characters(self) -> CharactersEvent | None:
        start = self._pos
        index = self._text.find("<", start)
        if index < 0:
            index = len(self._text)
        raw = self._text[start:index]
        self._pos = index
        if "]]>" in raw:
            self._error("']]>' is not allowed in character data")
        text = self._resolve_entities(raw)
        if not text:
            return None
        line, column = self._location(start)
        return CharactersEvent(line=line, column=column, text=text)


def parse_events(source: str) -> list[Event]:
    """Parse ``source`` eagerly and return the full event list."""
    return list(PullParser(source).events())
