"""Cross-validation: our XML parser against the stdlib as an oracle.

``xml.etree.ElementTree`` (expat underneath — the parser the original
xml2wire actually used) serves as the reference implementation: for any
document our writer can produce, both parsers must extract the same
structure, attributes and text.  The oracle is a *test* dependency only;
the library itself never imports it.
"""

import xml.etree.ElementTree as StdlibET

import pytest
from hypothesis import given, settings

from repro.errors import XMLSyntaxError
from repro.xmlparse import parse_document, write_document

from tests.property.test_xml_properties import elements

QUICK = settings(max_examples=100, deadline=None)


def our_shape(element):
    return (
        element.tag,
        tuple(sorted(element.attributes.items())),
        element.text if not element.children else "",
        tuple(our_shape(child) for child in element.children),
    )


def stdlib_shape(element):
    return (
        element.tag,
        tuple(sorted(element.attrib.items())),
        (element.text or "") if len(element) == 0 else "",
        tuple(stdlib_shape(child) for child in element),
    )


class TestAgainstStdlib:
    @QUICK
    @given(root=elements())
    def test_both_parsers_agree_on_generated_documents(self, root):
        document = write_document(root)
        ours = parse_document(document)
        theirs = StdlibET.fromstring(document)
        assert our_shape(ours) == stdlib_shape(theirs)

    @QUICK
    @given(root=elements())
    def test_stdlib_accepts_our_output(self, root):
        """Well-formedness: everything we emit, expat parses."""
        StdlibET.fromstring(write_document(root))

    def test_agreement_on_paper_schema_documents(self):
        from tests.schema.conftest import FIGURE_6, FIGURE_9, FIGURE_12

        for source in (FIGURE_6, FIGURE_9, FIGURE_12):
            ours = parse_document(source)
            theirs = StdlibET.fromstring(source)
            # Stdlib resolves namespaces into {uri}local tags; compare
            # structure counts and attribute payloads instead.
            our_elements = list(ours.iter())
            stdlib_elements = list(theirs.iter())
            assert len(our_elements) == len(stdlib_elements)
            for mine, std in zip(our_elements, stdlib_elements):
                std_attrs = {
                    k.split("}")[-1]: v for k, v in std.attrib.items()
                }
                our_attrs = {
                    k.split(":")[-1]: v
                    for k, v in mine.attributes.items()
                    if not k.startswith("xmlns")
                }
                assert our_attrs == std_attrs

    def test_agreement_on_entity_heavy_content(self):
        source = '<a x="&lt;&amp;&quot;&#65;">text &amp; &#x2603; more</a>'
        ours = parse_document(source)
        theirs = StdlibET.fromstring(source)
        assert ours.text == theirs.text
        assert ours.get("x") == theirs.get("x")


#: One well-formed document per place an illegal character can hide;
#: ``{c}`` marks where it goes.
ILLEGAL_CHAR_SITES = {
    "name": '<r><fi{c}eld x="1">t</fi{c}eld></r>',
    "attribute value": '<r><e x="a{c}b">t</e></r>',
    "text": '<r><e x="1">te{c}xt</e></r>',
    "comment": "<r><!-- a{c}b --><e/></r>",
    "cdata": "<r><![CDATA[a{c}b]]></r>",
}


class TestIllegalCharactersAgainstStdlib:
    @pytest.mark.parametrize("site", sorted(ILLEGAL_CHAR_SITES))
    @pytest.mark.parametrize("char", ["\x01", "\x08", "\ufffe"])
    def test_both_parsers_reject(self, site, char):
        template = ILLEGAL_CHAR_SITES[site]
        clean = template.format(c="")
        parse_document(clean)
        StdlibET.fromstring(clean)
        broken = template.format(c=char)
        with pytest.raises(XMLSyntaxError):
            parse_document(broken)
        with pytest.raises(StdlibET.ParseError):
            StdlibET.fromstring(broken)
