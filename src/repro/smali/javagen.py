"""jd-core equivalent: pattern-directed smali → Java decompilation.

Section IV-B.1: "we further convert the smali code to the corresponding
Java code through jd-core for the last step — transition edge
calculation."  Algorithm 1 then greps the Java source for idioms like
``new Intent(A0, A1.class)`` and ``new F1()``.

This decompiler performs a linear register-tracking pass over each method
body and emits one Java-like statement per interesting invoke.  Like a
real decompiler it is faithful to what the bytecode *contains*: a target
loaded via ``Class.forName(decode(...))`` decompiles to
``new Intent(this, FragmentRouter.resolveTarget())`` — a line no regex
can resolve to a class name, which is exactly how runtime-computed
navigation escapes static analysis.

Every line Algorithm 1 or the trigger pass can match holds one of
:data:`NEEDLES`, so :meth:`JavaDecompiler.greppable_unit` keeps only
those lines (plus each class header), byte-identical and in the order
the full render has them.  It still tracks every register, but a value
or statement is text built on first read: each one carries a flag
saying whether its text holds a needle, set from its parts without
joining them, so a statement without a needle is never rendered.  The
flag is exact because no needle can straddle a value and the text
around it: every value is bounded by characters no needle contains
(``(``, ``)``, ``,``, ``!``, space, quote) or followed by ``.``, which
only begins a needle.  Each statement is one line: a decoded string
literal holds no line break, because the smali lexer splits its text on
the same characters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.smali.model import (
    INVOKE_OPCODES,
    MethodRef,
    SmaliClass,
    SmaliMethod,
)

#: The substrings every Algorithm 1 and trigger pattern contains:
#: ``new Intent``, ``new F1()``, ``.newInstance`` hold "new",
#: ``.setClass``/``.setAction``/``.setOnClickListener`` hold ".set".
NEEDLES = ("new", ".set", "instanceof")

_INDENT = "        "


def has_needle(text: str) -> bool:
    """Does ``text`` hold one of :data:`NEEDLES`?"""
    return "new" in text or ".set" in text or "instanceof" in text


def _member_needle(name: str) -> bool:
    """Does ``.name`` hold a needle?"""
    return name.startswith("set") or has_needle(name)


# A value or a statement is a list ``[parts, needle, created]``, the
# cheapest object CPython builds:
# * ``parts`` is its Java text, or a tuple of strings, values and
#   argument tuples (joined with ", ") that :func:`_text` joins into that
#   text on first read;
# * ``needle`` says whether the text holds one of NEEDLES, set from the
#   parts without joining them;
# * ``created`` is the class a register's pending ``new-instance``
#   creates, else None.
_Value = list


def _text(value: _Value) -> str:
    parts = value[0]
    if parts.__class__ is not str:
        parts = value[0] = "".join([
            part if part.__class__ is str
            else _text(part) if part.__class__ is list
            else ", ".join(map(_text, part))
            for part in parts])
    return parts


def _const(text: str) -> _Value:
    return [text, has_needle(text), None]


def _any_needle(values: Tuple[_Value, ...]) -> bool:
    for value in values:
        if value[1]:
            return True
    return False


_THIS = _const("this")
_RESULT = _const("result")
_THIS0 = _const("this$0")
_LOCAL = _const("local")
_LOCAL_INTENT = _const("localIntent")
_LOCAL_TRANSACTION = _const("localTransaction")
_ELSE = _const("} else {")
_END = _const("}")
_COMMIT = _const("localTransaction.commit();")
_BEGIN = _const("FragmentTransaction localTransaction = "
                "localManager.beginTransaction();")
_MANAGER_CALLS = {name: (_const(f"{name}()"),
                         _const(f"FragmentManager localManager = {name}();"))
                  for name in ("getFragmentManager",
                               "getSupportFragmentManager")}


class JavaDecompiler:
    """Decompile smali classes to Java-like source text."""

    def decompile_class(self, cls: SmaliClass) -> str:
        """Render one class (inner classes are rendered separately; use
        :meth:`decompile_unit` to merge them as jd-core does)."""
        return "\n".join(self._class_lines(cls, greppable=False)) + "\n"

    def decompile_unit(self, outer: SmaliClass,
                       inners: List[SmaliClass]) -> str:
        """One ``.java`` file: the outer class with its inner classes —
        the unit Algorithm 1 scans as ``A0.java`` / ``F0.java``."""
        parts = [self.decompile_class(outer)]
        for inner in sorted(inners, key=lambda c: c.name):
            parts.append(self.decompile_class(inner))
        return "\n".join(parts)

    def greppable_unit(self, outer: SmaliClass,
                       inners: List[SmaliClass]) -> str:
        """The lines of :meth:`decompile_unit` that hold a needle, plus
        each ``public class`` header, in the same order."""
        lines = self._class_lines(outer, greppable=True)
        for inner in sorted(inners, key=lambda c: c.name):
            lines.extend(self._class_lines(inner, greppable=True))
        return "\n".join(lines) + "\n"

    # -- statement generation -------------------------------------------------

    def _class_lines(self, cls: SmaliClass, greppable: bool) -> List[str]:
        lines: List[str] = []
        package, _, simple = cls.name.rpartition(".")
        if package and not cls.is_inner:
            line = f"package {package};"
            if not greppable:
                lines += [line, ""]
            elif has_needle(line):
                lines.append(line)
        implements = (
            " implements " + ", ".join(cls.interfaces) if cls.interfaces else ""
        )
        lines.append(
            f"public class {simple.replace('$', '_')} "
            f"extends {cls.super_name}{implements} {{"
        )
        for method in cls.methods:
            header = f"    {_method_header(method)}"
            if not greppable or has_needle(header):
                lines.append(header)
            state = _RegisterState()
            for instruction in method.instructions:
                statement = _step(state, instruction.opcode, instruction.args)
                if statement is not None and (statement[1] or not greppable):
                    lines.append(_INDENT + _text(statement))
            if not greppable:
                lines.append("    }")
        if not greppable:
            lines.append("}")
        return lines


def _step(state: "_RegisterState", op: str,
          args: tuple) -> Optional[_Value]:
    """Update the registers for one instruction; return its statement."""
    regs = state.regs
    if op in INVOKE_OPCODES:
        return _invoke(state, op, args)
    if op == "move-result-object" or op == "move-result":
        regs[args[0]] = state.pending or _RESULT
        state.pending = None
    elif op == "const-string":
        escaped = str(args[1]).replace('"', '\\"')
        regs[args[0]] = _const(f'"{escaped}"')
    elif op == "const-class":
        regs[args[0]] = _const(f"{args[1]}.class")
    elif op in ("const", "const/4"):
        regs[args[0]] = [str(int(args[1])), False, None]
    elif op == "new-instance":
        regs[args[0]] = [("new ", args[1], "()"), True, str(args[1])]
    elif op == "check-cast":
        regs[args[0]] = _const(f"(({args[1]})local)")
    elif op == "instance-of":
        dest, src, cls_name = args
        value = state.value(str(src))
        regs[dest] = _LOCAL
        return [("boolean local = ", value, " instanceof ", cls_name, ";"),
                True, None]
    elif op == "iget-object":
        regs[args[0]] = _THIS0
    elif op in ("if-eqz", "if-nez"):
        # The branch jumps to the else-label, so the fall-through is the
        # taken 'if' body: if-eqz guards the truthy path.
        value = state.value(str(args[0]))
        head = "if (" if op == "if-eqz" else "if (!"
        return [(head, value, ") {"), value[1], None]
    elif op == "label":
        name = str(args[0])
        if name.startswith("cond_fail"):
            return _ELSE
        if name.startswith("cond_end"):
            return _END
    return None  # goto is structural, rendered via the labels


def _invoke(state: "_RegisterState", op: str,
            args: tuple) -> Optional[_Value]:
    ref: MethodRef = args[-1]
    regs: Tuple[str, ...] = args[:-1]
    name = ref.name

    # Constructor calls merge with the pending new-instance.
    if name == "<init>":
        receiver = regs[0] if regs else None
        value = state.regs.get(receiver)
        created = value[2] if value is not None else None
        if created is None:
            return None
        expression = [("new ", created, "(", state.values(regs[1:]), ")"),
                      True, None]
        if created == "android.content.Intent":
            state.regs[receiver] = _LOCAL_INTENT
            return [("Intent localIntent = ", expression, ";"), True, None]
        state.regs[receiver] = expression
        return [(created, " local = ", expression, ";"), True, None]

    if name in _MANAGER_CALLS:
        state.pending, statement = _MANAGER_CALLS[name]
        return statement
    if name == "beginTransaction":
        state.pending = _LOCAL_TRANSACTION
        return _BEGIN
    cls = ref.cls
    values = state.values(regs[1:])
    if "FragmentTransaction" in cls:
        if name in ("replace", "add"):
            return [("localTransaction.", name, "(", values, ");"),
                    _any_needle(values), None]
        if name == "commit":
            return _COMMIT
    if name == "newInstance":
        state.pending = [(cls, ".newInstance(", values, ")"), True, None]
        # Static factory: all registers are arguments.
        return [(cls, " localFragment = ", cls, ".newInstance(",
                 state.values(regs), ");"), True, None]
    if name in ("startActivity", "setContentView"):
        return [(name, "(", values, ");"), _any_needle(values), None]
    if name in ("setClass", "setAction"):
        return [("localIntent.", name, "(", values, ");"), True, None]
    if op == "invoke-static":
        values = state.values(regs)
        needle = (has_needle(cls) or _member_needle(name)
                  or _any_needle(values))
        call = state.pending = [(cls, ".", name, "(", values, ")"), needle,
                                None]
        return [(call, ";"), needle, None]
    if op == "invoke-super":
        return [("super.", name, "(", values, ");"),
                _member_needle(name) or _any_needle(values), None]

    receiver = state.value(regs[0]) if regs else _const(cls)
    needle = receiver[1] or _member_needle(name) or _any_needle(values)
    call = state.pending = [(receiver, ".", name, "(", values, ")"), needle,
                            None]
    return [(call, ";"), needle, None]


def _method_header(method: SmaliMethod) -> str:
    params = ", ".join(
        f"{ptype} p{index + 1}" for index, ptype in enumerate(method.params)
    )
    flags = "public static" if method.static else "public"
    name = "ctor" if method.name == "<init>" else method.name
    return f"{flags} {method.ret} {name}({params}) {{"


class _RegisterState:
    """The registers of one method body, and the value the last call
    left for a ``move-result``."""

    __slots__ = ("regs", "pending")

    def __init__(self) -> None:
        self.regs: Dict[object, _Value] = {}
        self.pending: Optional[_Value] = None

    def value(self, reg: str) -> _Value:
        return self.regs.get(reg) or _unset(reg)

    def values(self, regs: Tuple[str, ...]) -> Tuple[_Value, ...]:
        get = self.regs.get
        return tuple([get(reg) or _unset(reg) for reg in regs])


def _unset(reg: str) -> _Value:
    """A register nothing wrote: a parameter renders as ``this``."""
    return _THIS if reg.startswith("p") else _const(reg)
