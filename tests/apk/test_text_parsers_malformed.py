"""Malformed text artifacts: every APK text parser succeeds or raises a
typed ReproError.

Static analysis parses ``public.xml``, layout XML, the manifest and
smali.  A bare ``KeyError`` or ``ValueError`` escaping one of them
would bypass the typed-error handling of every caller (``repro batch``,
the sweep's fault classifier), so each parser is fuzzed here with
mutated Table-I artifacts and with random text.  The unmutated
artifacts must parse back to the text they came from.

The decoder parses lazily (a class body, the manifest, layouts and the
resource table on first read), so the smali entry and the decode-level
case read every lazy field: a malformed artifact must raise its typed
error there, not escape as another exception.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import build_apk
from repro.apk.layout import Layout
from repro.apk.manifest import Manifest
from repro.apk.resources import ResourceTable
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import build_app
from repro.errors import ReproError
from repro.smali.apktool import Apktool
from repro.smali.assemble import parse_class_header, print_class

APKS = [build_apk(build_app(plan)) for plan in TABLE1_PLANS]


def _parse_smali(text):
    """The decoder's class parse, with its lazy body read."""
    cls = parse_class_header(text)
    cls.methods, cls.fields, cls.interfaces
    return cls


#: (parser, its valid inputs, the printer that must give them back).
PARSERS = {
    "public.xml": (
        lambda text: ResourceTable.from_public_xml("com.fuzz", text),
        [apk.public_xml for apk in APKS],
        lambda table: table.to_public_xml(),
    ),
    "layout": (
        lambda text: Layout.from_xml("fuzz", text),
        [text for apk in APKS for text in apk.layout_files.values()],
        lambda layout: layout.to_xml(),
    ),
    "manifest": (
        Manifest.from_xml,
        [apk.manifest_xml for apk in APKS],
        lambda manifest: manifest.to_xml(),
    ),
    "smali": (
        _parse_smali,
        [text for apk in APKS[:3] for text in apk.smali_files.values()],
        print_class,
    ),
}

#: Characters the artifact grammars hinge on, plus a few that are
#: simply unexpected.
_CHARS = list('<>/="\'()[];:.,{}-@+#Lx0 \n\t') + ["\x00", "é"]

FUZZ = settings(max_examples=150, deadline=None)


def _parse_or_typed_error(kind: str, text: str) -> None:
    parse = PARSERS[kind][0]
    try:
        parse(text)
    except ReproError:
        pass


def _mutate(text: str, edits) -> str:
    chars = list(text)
    for where, action, char in edits:
        at = int(where * len(chars)) if chars else 0
        if action == 0 and chars:
            chars[min(at, len(chars) - 1)] = char
        elif action == 1:
            chars.insert(at, char)
        elif chars:
            del chars[min(at, len(chars) - 1)]
    return "".join(chars)


_EDITS = st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                            st.integers(0, 2), st.sampled_from(_CHARS)),
                  min_size=1, max_size=6)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_artifacts_parse_unchanged(kind):
    parse, texts, render = PARSERS[kind]
    for text in texts:
        assert render(parse(text)) == text


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(which=st.integers(0, 10**6), edits=_EDITS)
def test_mutated_artifact_parses_or_raises_repro_error(kind, which, edits):
    texts = PARSERS[kind][1]
    _parse_or_typed_error(kind, _mutate(texts[which % len(texts)], edits))


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(which=st.integers(0, 10**6), line=st.integers(0, 10**6),
       junk=st.text(alphabet=st.sampled_from(_CHARS + list("abc=\"")),
                    max_size=40))
def test_replaced_line_parses_or_raises_repro_error(kind, which, line,
                                                    junk):
    texts = PARSERS[kind][1]
    lines = texts[which % len(texts)].splitlines()
    index = line % len(lines)
    # Keep the line's leading token, so the parser takes the same branch
    # and then meets the junk.
    head = lines[index].strip().split(" ", 1)[0]
    lines[index] = f"{head} {junk}"
    _parse_or_typed_error(kind, "\n".join(lines))


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(text=st.text(max_size=200))
def test_random_text_parses_or_raises_repro_error(kind, text):
    _parse_or_typed_error(kind, text)


@pytest.mark.parametrize("kind, text", [
    ("public.xml", '<public name="x" id="0x7f010001" />'),
    ("public.xml", '<public type="id" name="x" id="nothex" />'),
    ("layout", '<Button android:id="@+id/b" repro:kind="BOGUS" />'),
    ("smali", ".class public Lcom/x/A;\n.method public noParens\n"
              ".end method"),
])
def test_each_known_defect_raises_a_typed_error(kind, text):
    with pytest.raises(ReproError):
        PARSERS[kind][0](text)


#: The artifacts of one package a mutation may hit.
_ARTIFACTS = ("manifest", "public.xml", "layout", "smali")


def _mutated_apk(apk, artifact, pick, edits):
    if artifact == "manifest":
        return replace(apk, manifest_xml=_mutate(apk.manifest_xml, edits))
    if artifact == "public.xml":
        return replace(apk, public_xml=_mutate(apk.public_xml, edits))
    files = apk.layout_files if artifact == "layout" else apk.smali_files
    path = sorted(files)[pick % len(files)]
    mutated = {**files, path: _mutate(files[path], edits)}
    if artifact == "layout":
        return replace(apk, layout_files=mutated)
    return replace(apk, smali_files=mutated)


def read_every_lazy_field(decoded):
    """Force every field the decoder parses on first read."""
    decoded.manifest, decoded.layouts, decoded.resources
    for cls in decoded.classes:
        cls.methods, cls.fields, cls.interfaces


@pytest.mark.parametrize("artifact", _ARTIFACTS)
@FUZZ
@given(which=st.integers(0, 10**6), pick=st.integers(0, 10**6),
       edits=_EDITS)
def test_mutated_apk_decodes_or_raises_repro_error(artifact, which, pick,
                                                   edits):
    apk = _mutated_apk(APKS[which % len(APKS)], artifact, pick, edits)
    try:
        read_every_lazy_field(Apktool().decode(apk))
    except ReproError:
        pass
