"""Decompiler robustness: jd-core equivalents must not crash on any
class the assembler round-trips."""

from hypothesis import given, settings, strategies as st

from repro.smali.javagen import NEEDLES, JavaDecompiler, has_needle
from repro.smali.javagen import _member_needle
from repro.smali.model import Instruction, MethodRef, SmaliClass, SmaliMethod

_identifiers = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
# Names and literals holding the greppable substrings ("new", ".set",
# "instanceof") exercise the decompiler's needle flags.
_needle_words = st.sampled_from(["news", "renew", "instanceofx", "newx"])
_outer_names = st.one_of(
    st.builds(lambda a, b: f"com.{a}.{b.capitalize()}",
              _identifiers, _identifiers),
    st.builds(lambda a, b: f"com.{a}.{b}",
              _needle_words, _identifiers.map(str.capitalize)),
)
_class_names = st.one_of(
    _outer_names,
    st.builds(lambda a, b: f"com.{a}.Main$1{b}",
              _identifiers, st.sampled_from(["", "Renew"])),
)
needle_literals = st.sampled_from(["new", "x.setY", "instanceof",
                                   'say "new"', "com.a.F1"])
any_literals = st.one_of(st.text(max_size=12), needle_literals)
_registers = st.from_regex(r"[vp][0-9]", fullmatch=True)
_types = st.sampled_from(
    ["void", "int", "boolean", "java.lang.String", "android.view.View",
     "android.content.Intent", "com.news.Item"]
)


@st.composite
def any_instruction(draw, literals=any_literals):
    choice = draw(st.integers(0, 12))
    if choice == 0:
        return Instruction("nop")
    if choice == 1:
        return Instruction("const-string",
                           (draw(_registers), draw(literals)))
    if choice == 2:
        return Instruction("const-class",
                           (draw(_registers), draw(_class_names)))
    if choice == 3:
        return Instruction("const",
                           (draw(_registers), draw(st.integers(0, 2**31 - 1))))
    if choice == 4:
        return Instruction("new-instance",
                           (draw(_registers), draw(_class_names)))
    if choice == 5:
        return Instruction("move-result-object", (draw(_registers),))
    if choice == 6:
        return Instruction("check-cast",
                           (draw(_registers), draw(_class_names)))
    if choice == 7:
        return Instruction("if-eqz", (draw(_registers), "cond_fail_1"))
    if choice == 8:
        return Instruction("goto", ("cond_end_1",))
    if choice == 9:
        return Instruction("label",
                           (draw(st.sampled_from(
                               ["cond_fail_1", "cond_end_1", "other"])),))
    if choice == 10:
        return Instruction(
            "iget-object",
            (draw(_registers), "p0", "com.x.Y->this$0:Lcom/x/Z;"),
        )
    if choice == 11:
        return Instruction("instance-of", (draw(_registers),
                                           draw(_registers),
                                           draw(_class_names)))
    ref = MethodRef(
        draw(_class_names),
        draw(st.sampled_from(
            ["<init>", "startActivity", "newInstance", "beginTransaction",
             "replace", "commit", "getFragmentManager", "setContentView",
             "setAction", "setClass", "setOnClickListener", "findViewById",
             "renewal", "randomMethod"]
        )),
        tuple(draw(st.lists(_types.filter(lambda t: t != "void"),
                            max_size=3))),
        draw(_types),
    )
    opcode = draw(st.sampled_from(
        ["invoke-virtual", "invoke-static", "invoke-direct", "invoke-super",
         "invoke-interface"]
    ))
    regs = tuple(draw(st.lists(_registers, max_size=3, unique=True)))
    return Instruction(opcode, regs + (ref,))


@st.composite
def arbitrary_classes(draw, literals=any_literals):
    """A class of 1-3 methods; ``literals`` draws const-string text."""
    cls = SmaliClass(name=draw(_outer_names), super_name=draw(_class_names))
    for index in range(draw(st.integers(1, 3))):
        method = SmaliMethod(
            name=draw(st.sampled_from(["m", "onNewIntent", "newsFeed",
                                       "setUp"])) + str(index),
            params=draw(st.lists(_types.filter(lambda t: t != "void"),
                                 max_size=2)),
            ret=draw(_types))
        method.instructions = draw(st.lists(any_instruction(literals),
                                           max_size=12))
        method.instructions.append(Instruction("return-void"))
        cls.methods.append(method)
    return cls


@settings(max_examples=100, deadline=None)
@given(arbitrary_classes())
def test_decompiler_total_on_arbitrary_instruction_streams(cls):
    java = JavaDecompiler().decompile_class(cls)
    assert java.startswith("package com.")
    assert java.rstrip().endswith("}")


@settings(max_examples=50, deadline=None)
@given(arbitrary_classes())
def test_decompile_unit_with_self_as_inner(cls):
    inner = SmaliClass(name=f"{cls.name}$1", super_name="java.lang.Object")
    inner.methods.append(SmaliMethod(name="onClick"))
    inner.methods[0].instructions.append(Instruction("return-void"))
    unit = JavaDecompiler().decompile_unit(cls, [inner])
    assert "class" in unit


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_literals, _needle_words, _identifiers,
                 st.sampled_from(["setClass", "set", ".se", "newInstance"])))
def test_needle_flags_agree_with_needles(text):
    assert has_needle(text) == any(needle in text for needle in NEEDLES)
    assert _member_needle(text) == has_needle("." + text)
