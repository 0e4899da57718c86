"""Lazy decoding: what parses when, and that it parses the same.

``Apktool.decode`` parses each class header and leaves the method
bodies, the manifest, the layouts and the resource table to their first
read (``repro.smali.model.ParseOnRead``).  These tests pin that:

* once every lazy field is read, a lazy class equals ``parse_class`` of
  its text and a lazy decode equals the eager decode kept below, on
  printed classes and on mutated Table-I corpora — or both raise a typed
  error;
* the Section VII-A usage-study classifier parses no method body,
  layout, resource table or manifest;
* threads racing the first read of one fresh decode all get one object;
* a malformed method body raises at its first read, not at decode.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk.layout import Layout
from repro.apk.manifest import Manifest
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.bench.runner import _classify_market_app
from repro.corpus.market import generate_market
from repro.errors import PackedApkError, ReproError, SmaliError
from repro.smali import assemble
from repro.smali.apktool import Apktool, DecodedApk
from repro.smali.assemble import parse_class, parse_class_header, print_class
from repro.static.extractor import extract_static_info

from tests.apk.test_text_parsers_malformed import (
    APKS,
    _ARTIFACTS,
    _EDITS,
    _mutate,
    _mutated_apk,
    read_every_lazy_field,
)
from tests.smali.test_assemble import assert_classes_equal, smali_classes


def eager_decode(apk: ApkPackage) -> DecodedApk:
    """The decoder before it parsed lazily, kept verbatim in logic."""
    if apk.packed:
        raise PackedApkError(
            f"{apk.package}: DEX is packed/encrypted; cannot decode"
        )
    manifest = Manifest.from_xml(apk.manifest_xml)
    classes = [parse_class(text) for _, text in sorted(apk.smali_files.items())]
    layouts = {}
    for path, text in sorted(apk.layout_files.items()):
        name = path.rsplit("/", 1)[-1].removesuffix(".xml")
        layouts[name] = Layout.from_xml(name, text)
    resources = ResourceTable.from_public_xml(apk.package, apk.public_xml)
    return DecodedApk(
        package=apk.package,
        manifest=manifest,
        classes=classes,
        layouts=layouts,
        resources=resources,
        source=replace(apk, _spec=None),
    )


_TYPED_ERROR = "typed error"


def lazy_class(text):
    cls = parse_class_header(text)
    cls.methods, cls.fields, cls.interfaces
    return cls


def lazy_decode(apk):
    decoded = Apktool().decode(apk)
    read_every_lazy_field(decoded)
    return decoded


def outcome(parse, argument):
    """``parse(argument)``, or a marker when it raises a typed error."""
    try:
        return parse(argument)
    except ReproError:
        return _TYPED_ERROR


# -- lazy against eager --------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(smali_classes())
def test_a_lazy_class_equals_its_eager_parse(cls):
    text = print_class(cls)
    lazy = parse_class_header(text)
    assert ("methods" in vars(lazy)) == (not cls.methods)
    assert lazy == parse_class(text)
    assert_classes_equal(lazy, cls)


SMALI_TEXTS = [text for apk in APKS for _, text in
               sorted(apk.smali_files.items())]


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 10**6), edits=_EDITS)
def test_lazy_and_eager_class_parses_agree_on_mutated_smali(which, edits):
    text = _mutate(SMALI_TEXTS[which % len(SMALI_TEXTS)], edits)
    assert outcome(lazy_class, text) == outcome(parse_class, text)


def test_every_table1_app_decodes_lazily_to_its_eager_decode():
    for apk in APKS:
        assert lazy_decode(apk) == eager_decode(apk)


@pytest.mark.parametrize("artifact", _ARTIFACTS)
@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 10**6), pick=st.integers(0, 10**6),
       edits=_EDITS)
def test_lazy_and_eager_decodes_agree_on_mutated_apks(artifact, which, pick,
                                                      edits):
    apk = _mutated_apk(APKS[which % len(APKS)], artifact, pick, edits)
    assert outcome(lazy_decode, apk) == outcome(eager_decode, apk)


def test_a_header_directive_after_the_first_method_is_malformed():
    text = (".class public Lcom/app/Late;\n"
            ".super Ljava/lang/Object;\n"
            ".method public run()V\n"
            "    .registers 1\n"
            "    return-void\n"
            ".end method\n"
            ".field public late:I\n")
    with pytest.raises(SmaliError, match="after the first .method"):
        parse_class(text)
    cls = parse_class_header(text)
    assert cls.fields == []
    with pytest.raises(SmaliError, match="after the first .method"):
        cls.methods


# -- what the usage study parses -----------------------------------------------

def test_the_usage_study_classifier_parses_only_class_headers(monkeypatch):
    calls = Counter()

    def counting(name, parse):
        def counted(*args, **kwargs):
            calls[name] += 1
            return parse(*args, **kwargs)
        return counted

    # An empty instruction cache: a body lexed now would have to parse
    # its instruction lines.
    monkeypatch.setattr(assemble, "_INSTRUCTION_CACHE", {})
    for module, name in ((assemble, "_parse_body"),
                         (assemble, "_parse_instruction"),
                         (Layout, "from_xml"),
                         (ResourceTable, "from_public_xml"),
                         (Manifest, "from_xml")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    statuses = Counter(_classify_market_app(app)
                       for app in generate_market(count=217, seed=2018))
    assert statuses["fragments"] and statuses["plain"] and statuses["packed"]
    assert calls == Counter()


# -- racing first reads --------------------------------------------------------

def test_threads_racing_the_first_reads_share_one_parse():
    apk = APKS[0]
    decoded = Apktool().decode(apk)
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    seen = [None] * threads_count
    errors = []

    def read(index):
        try:
            barrier.wait(timeout=30)
            seen[index] = (decoded.manifest, decoded.layouts,
                           decoded.resources,
                           [cls.methods for cls in decoded.classes])
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(index,))
               for index in range(threads_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    first = seen[0]
    for other in seen[1:]:
        assert all(mine is theirs for mine, theirs in zip(other[:3],
                                                          first[:3]))
        assert all(mine is theirs for mine, theirs in zip(other[3],
                                                          first[3]))
    eager = eager_decode(apk)
    assert first[:3] == (eager.manifest, eager.layouts, eager.resources)
    assert first[3] == [cls.methods for cls in eager.classes]


# -- a malformed body ----------------------------------------------------------

class _Prebuilt:
    """A market-app stand-in whose ``build`` returns a given package."""

    def __init__(self, apk):
        self.apk = apk

    def build(self):
        return self.apk


def _with_corrupt_body(apk):
    """``apk`` with one instruction line of one class replaced by junk;
    every class header stays intact."""
    path = next(path for path, text in sorted(apk.smali_files.items())
                if "    return-void" in text)
    text = apk.smali_files[path].replace("    return-void",
                                         "    frobnicate v0", 1)
    return replace(apk, smali_files={**apk.smali_files, path: text}), path


def test_a_malformed_body_raises_at_first_read_not_at_decode():
    apk, path = _with_corrupt_body(APKS[0])
    decoded = Apktool().decode(apk)  # headers only: no error yet
    corrupt = next(cls for cls in decoded.classes
                   if cls.file_name == path)
    with pytest.raises(SmaliError, match="frobnicate"):
        corrupt.methods
    with pytest.raises(SmaliError, match="frobnicate"):
        corrupt.methods  # nothing was stored: every read raises
    with pytest.raises(SmaliError):
        extract_static_info(apk)


def test_the_usage_study_classifies_an_app_with_a_malformed_body():
    healthy = _classify_market_app(_Prebuilt(APKS[0]))
    apk, _ = _with_corrupt_body(APKS[0])
    assert healthy == "fragments"
    assert _classify_market_app(_Prebuilt(apk)) == healthy
