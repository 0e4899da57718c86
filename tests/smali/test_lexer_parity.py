"""The dispatch-table lexer against the frozen pre-rewrite parser.

The single-pass lexer replaced a per-line ``startswith`` chain; a
verbatim copy of the old parser lives in ``benchmarks/_legacy_smali.py``
as the benchmark's reference arm.  These tests pin *semantic* parity:
identical parse results on generated classes and on an edge-case corpus
(unknown directives, annotation-style lines, nested inner classes), and
identical errors on malformed input.  The one intended departure: a
token that merely starts like a directive (``.classx``) is an unknown
directive, not the directive it prefixes.
"""

import importlib.util
import pathlib

import pytest
from hypothesis import given, settings

from repro.errors import SmaliError
from repro.smali.assemble import parse_class, print_class

from tests.smali.test_assemble import (  # reuse the round-trip strategy
    assert_classes_equal,
    smali_classes,
)

_LEGACY_PATH = (pathlib.Path(__file__).resolve().parents[2]
                / "benchmarks" / "_legacy_smali.py")


def _load_legacy():
    spec = importlib.util.spec_from_file_location("_legacy_smali",
                                                  _LEGACY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


legacy = _load_legacy()


@settings(max_examples=60, deadline=None)
@given(smali_classes())
def test_parsers_agree_on_generated_classes(cls):
    text = print_class(cls)
    assert_classes_equal(legacy.parse_class(text), parse_class(text))


EDGE_CASES = [
    # Annotation-style and other unknown directives are ignored outside
    # method bodies, exactly as the startswith chain ignored them.
    (".class public Lcom/app/Main;\n"
     ".super Landroid/app/Activity;\n"
     ".annotation runtime Ljava/lang/Deprecated;\n"
     ".end annotation\n"),
    # Nested inner classes (listener in a fragment in an activity).
    (".class public Lcom/app/Main$TabFragment$1;\n"
     ".super Ljava/lang/Object;\n"
     ".implements Landroid/view/View$OnClickListener;\n"
     ".method public onClick(Landroid/view/View;)V\n"
     "    .registers 3\n"
     "    new-instance v0, Lcom/app/Main$Other;\n"
     "    return-void\n"
     ".end method\n"),
    # Comments and blank lines everywhere, label/branch instructions.
    ("# leading comment\n"
     ".class public Lcom/app/Loop;\n"
     "\n"
     ".super Ljava/lang/Object;\n"
     ".method public run()V\n"
     "    .registers 2\n"
     "    # body comment\n"
     "    :start\n"
     "    if-eqz v0, :done\n"
     "    goto :start\n"
     "    :done\n"
     "    return-void\n"
     ".end method\n"),
    # ".end method" reached through the generic ".end" token.
    (".class public Lcom/app/Fields;\n"
     ".super Ljava/lang/Object;\n"
     ".source \"Fields.java\"\n"
     ".field public static TAG:Ljava/lang/String;\n"
     ".field public count:I\n"
     ".method public static get()Ljava/lang/String;\n"
     "    .registers 1\n"
     "    const-string v0, \"with \\\"escapes\\\" and \\\\ slash\"\n"
     "    return-object v0\n"
     ".end method\n"),
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_case_corpus_parity(text):
    assert_classes_equal(legacy.parse_class(text), parse_class(text))


def test_directive_prefix_is_not_the_directive():
    # ".classx" starts like ".class" but is an unknown directive, which
    # is ignored outside a method: the class has no .class directive.
    with pytest.raises(SmaliError, match="no .class directive found"):
        parse_class(".classx Lcom/app/Weird;\n"
                    ".super Ljava/lang/Object;\n")


MALFORMED = [
    # No .class directive at all.
    ".super Ljava/lang/Object;\n",
    # Unknown opcode inside a method.
    (".class public Lcom/app/Bad;\n"
     ".super Ljava/lang/Object;\n"
     ".method public run()V\n"
     "    .registers 1\n"
     "    frobnicate v0\n"
     ".end method\n"),
    # Wrong operand count.
    (".class public Lcom/app/Bad;\n"
     ".super Ljava/lang/Object;\n"
     ".method public run()V\n"
     "    .registers 1\n"
     "    instance-of v0, v1\n"
     ".end method\n"),
    # Unknown invoke flavour still reports a bad reference first when
    # the reference itself is broken (error ordering parity).
    (".class public Lcom/app/Bad;\n"
     ".super Ljava/lang/Object;\n"
     ".method public run()V\n"
     "    .registers 1\n"
     "    invoke-sideways {v0}, garbage\n"
     ".end method\n"),
    # Annotation-style directive *inside* a method body falls through to
    # the instruction parser, as the chain always did.
    (".class public Lcom/app/Bad;\n"
     ".super Ljava/lang/Object;\n"
     ".method public run()V\n"
     "    .registers 1\n"
     "    .annotation runtime Ljava/lang/Deprecated;\n"
     ".end method\n"),
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_lines_raise_the_same_errors(text):
    with pytest.raises(SmaliError) as new_error:
        parse_class(text)
    with pytest.raises(SmaliError) as legacy_error:
        legacy.parse_class(text)
    assert str(new_error.value) == str(legacy_error.value)
