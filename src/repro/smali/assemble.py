"""Smali text assembler/disassembler.

``print_class`` renders a :class:`~repro.smali.model.SmaliClass` in the
baksmali text format; ``parse_class`` reads it back.  The static pipeline
operates on the *text* (as the paper's does on Apktool output), so the
round trip is load-bearing, and is covered by property-based tests.

Both directions are driven by dispatch tables keyed on the leading
directive/opcode token: the parser classifies each line once (directive,
comment, or instruction) and jumps straight to its handler instead of
probing a ``startswith`` chain per line.  Lines whose leading token is
not an exact directive fall back to the historical prefix-matching
chain, so edge-case semantics (and error messages) are byte-identical
to the pre-dispatch implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from repro.errors import SmaliError
from repro.smali.model import (
    Instruction,
    MethodRef,
    SmaliClass,
    SmaliField,
    SmaliMethod,
    java_name,
    jvm_type,
)

# ---------------------------------------------------------------------------
# Printing


def print_class(cls: SmaliClass) -> str:
    """Render a class to smali text."""
    lines: List[str] = [f".class public {jvm_type(cls.name)}"]
    lines.append(f".super {jvm_type(cls.super_name)}")
    if cls.source:
        lines.append(f'.source "{cls.source}"')
    for iface in cls.interfaces:
        lines.append(f".implements {jvm_type(iface)}")
    for fld in cls.fields:
        prefix = ".field public static" if fld.static else ".field public"
        lines.append(f"{prefix} {fld.name}:{jvm_type(fld.type)}")
    for method in cls.methods:
        lines.append("")
        lines.extend(_print_method(method))
    return "\n".join(lines) + "\n"


def _print_method(method: SmaliMethod) -> List[str]:
    params = "".join(jvm_type(p) for p in method.params)
    flags = "public static" if method.static else "public"
    lines = [
        f".method {flags} {method.name}({params}){jvm_type(method.ret)}",
        f"    .registers {method.registers}",
    ]
    append = lines.append
    for instruction in method.instructions:
        # Interned instructions are shared across methods and apps, so
        # the rendered text is memoized per instance.
        text = instruction.__dict__.get("_printed")
        if text is None:
            text = _print_instruction(instruction)
        append("    " + text)
    lines.append(".end method")
    return lines


def _print_instruction(instruction: Instruction) -> str:
    cached = instruction.__dict__.get("_printed")
    if cached is not None:
        return cached
    printer = _INSTRUCTION_PRINTERS.get(instruction.opcode)
    if printer is None:
        raise SmaliError(f"cannot print opcode {instruction.opcode!r}")
    text = printer(instruction.opcode, instruction.args)
    object.__setattr__(instruction, "_printed", text)
    return text


def _print_bare(op: str, args: Tuple[object, ...]) -> str:
    return op


def _print_label(op: str, args: Tuple[object, ...]) -> str:
    (name,) = args
    return f":{name}"


def _print_goto(op: str, args: Tuple[object, ...]) -> str:
    (name,) = args
    return f"goto :{name}"


def _print_branch(op: str, args: Tuple[object, ...]) -> str:
    reg, name = args
    return f"{op} {reg}, :{name}"


def _print_const_string(op: str, args: Tuple[object, ...]) -> str:
    reg, literal = args
    escaped = str(literal).replace("\\", "\\\\").replace('"', '\\"')
    return f'{op} {reg}, "{escaped}"'


def _print_reg_class(op: str, args: Tuple[object, ...]) -> str:
    reg, cls_name = args
    return f"{op} {reg}, {jvm_type(str(cls_name))}"


def _print_instance_of(op: str, args: Tuple[object, ...]) -> str:
    dest, src, cls_name = args
    return f"{op} {dest}, {src}, {jvm_type(str(cls_name))}"


def _print_const(op: str, args: Tuple[object, ...]) -> str:
    reg, value = args
    return f"{op} {reg}, {int(value):#x}"


def _print_unary(op: str, args: Tuple[object, ...]) -> str:
    (reg,) = args
    return f"{op} {reg}"


def _print_field_access(op: str, args: Tuple[object, ...]) -> str:
    reg, obj, ref = args
    return f"{op} {reg}, {obj}, {ref}"


def _print_invoke(op: str, args: Tuple[object, ...]) -> str:
    *regs, ref = args
    assert isinstance(ref, MethodRef)
    reg_list = ", ".join(str(r) for r in regs)
    return f"{op} {{{reg_list}}}, {ref.descriptor()}"


_INSTRUCTION_PRINTERS: Dict[str, Callable[[str, Tuple[object, ...]], str]] = {
    "return-void": _print_bare,
    "nop": _print_bare,
    "label": _print_label,
    "goto": _print_goto,
    "if-eqz": _print_branch,
    "if-nez": _print_branch,
    "const-string": _print_const_string,
    "const-class": _print_reg_class,
    "new-instance": _print_reg_class,
    "check-cast": _print_reg_class,
    "instance-of": _print_instance_of,
    "const": _print_const,
    "const/4": _print_const,
    "move-result-object": _print_unary,
    "move-result": _print_unary,
    "return-object": _print_unary,
    "iget-object": _print_field_access,
    "iput-object": _print_field_access,
    "invoke-direct": _print_invoke,
    "invoke-virtual": _print_invoke,
    "invoke-static": _print_invoke,
    "invoke-super": _print_invoke,
    "invoke-interface": _print_invoke,
}


# ---------------------------------------------------------------------------
# Parsing


class _ClassParser:
    """Mutable state for one :func:`parse_class` pass."""

    __slots__ = ("cls", "method", "in_method", "seen_class")

    def __init__(self) -> None:
        self.cls = SmaliClass(name="__pending__")
        self.method = SmaliMethod(name="__none__")
        self.in_method = False
        self.seen_class = False

    # Directive handlers.  Each receives the stripped line whose leading
    # token matched the dispatch key exactly.

    def _dir_class(self, line: str) -> None:
        self.cls.name = java_name(line.split()[-1])
        self.seen_class = True

    def _dir_super(self, line: str) -> None:
        self.cls.super_name = java_name(line.split()[-1])

    def _dir_source(self, line: str) -> None:
        self.cls.source = line.split('"')[1]

    def _dir_implements(self, line: str) -> None:
        self.cls.interfaces.append(java_name(line.split()[-1]))

    def _dir_field(self, line: str) -> None:
        static = " static " in line + " "
        decl = line.split()[-1]
        name, _, descriptor = decl.partition(":")
        self.cls.fields.append(
            SmaliField(name=name, type=java_name(descriptor), static=static)
        )

    def _dir_method(self, line: str) -> None:
        self.method = _parse_method_header(line)
        self.in_method = True

    def _dir_registers(self, line: str) -> None:
        self.method.registers = int(line.split()[-1])

    def _dir_end(self, line: str) -> None:
        if line.startswith(".end method"):
            self.cls.methods.append(self.method)
            self.in_method = False
        elif self.in_method:
            self.method.instructions.append(_parse_instruction(line))
        # Outside a method, unmatched ``.end …`` lines are ignored.

    def _dir_unknown(self, line: str) -> None:
        # Any other directive (``.annotation``, ``.line``, ``.classx``):
        # ignored outside a method, parsed as an instruction inside one.
        if self.in_method:
            self.method.instructions.append(_parse_instruction(line))


_DIRECTIVES: Dict[str, Callable[[_ClassParser, str], None]] = {
    ".class": _ClassParser._dir_class,
    ".super": _ClassParser._dir_super,
    ".source": _ClassParser._dir_source,
    ".implements": _ClassParser._dir_implements,
    ".field": _ClassParser._dir_field,
    ".method": _ClassParser._dir_method,
    ".registers": _ClassParser._dir_registers,
    ".end": _ClassParser._dir_end,
}


def parse_class(text: str) -> SmaliClass:
    """Parse smali text produced by :func:`print_class`.

    Single pass: each line is classified once by its first character —
    directive (``.``), comment (``#``), or instruction — and directives
    dispatch on their leading token.
    """
    parser = _ClassParser()
    directives_get = _DIRECTIVES.get
    unknown = _ClassParser._dir_unknown
    cache_get = _INSTRUCTION_CACHE.get
    for line in map(str.strip, text.splitlines()):
        if not line:
            continue
        head = line[0]
        if head == ".":
            directives_get(line.partition(" ")[0], unknown)(parser, line)
        elif head == "#":
            continue
        elif parser.in_method:
            instruction = cache_get(line)
            if instruction is None:
                instruction = _parse_instruction(line)
            parser.method.instructions.append(instruction)
    if not parser.seen_class:
        raise SmaliError("no .class directive found")
    return parser.cls


@lru_cache(maxsize=None)
def _method_header_parts(line: str) -> Tuple[str, Tuple[str, ...], str, bool]:
    # ".method public [static] name(params)ret"
    static = " static " in line
    signature = line.split()[-1]
    name, rest = signature.split("(", 1)
    params_str, ret = rest.split(")", 1)
    params = tuple(java_name(d) for d in _split_descriptors(params_str))
    return name, params, java_name(ret), static


def _parse_method_header(line: str) -> SmaliMethod:
    # Headers like ``.method public onCreate(...)V`` recur across every
    # class in a corpus; the immutable parts are cached, the mutable
    # SmaliMethod shell is always fresh.
    name, params, ret, static = _method_header_parts(line)
    return SmaliMethod(name=name, params=list(params), ret=ret, static=static)


def _split_descriptors(text: str) -> List[str]:
    out: List[str] = []
    index = 0
    while index < len(text):
        start = index
        while text[index] == "[":
            index += 1
        if text[index] == "L":
            index = text.index(";", index) + 1
        else:
            index += 1
        out.append(text[start:index])
    return out


def _parse_bare(opcode: str, rest: str) -> Instruction:
    return Instruction(opcode)


def _parse_goto(opcode: str, rest: str) -> Instruction:
    return Instruction(opcode, (rest.lstrip(":"),))


def _parse_branch(opcode: str, rest: str) -> Instruction:
    reg, label = _split_args(rest, 2)
    return Instruction(opcode, (reg, label.lstrip(":")))


def _parse_const_string(opcode: str, rest: str) -> Instruction:
    reg, literal = rest.split(", ", 1)
    value = literal.strip()[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return Instruction(opcode, (reg, value))


def _parse_reg_class(opcode: str, rest: str) -> Instruction:
    reg, descriptor = _split_args(rest, 2)
    return Instruction(opcode, (reg, java_name(descriptor)))


def _parse_instance_of(opcode: str, rest: str) -> Instruction:
    dest, src, descriptor = _split_args(rest, 3)
    return Instruction(opcode, (dest, src, java_name(descriptor)))


def _parse_const(opcode: str, rest: str) -> Instruction:
    reg, value = _split_args(rest, 2)
    return Instruction(opcode, (reg, int(value, 16)))


def _parse_unary(opcode: str, rest: str) -> Instruction:
    return Instruction(opcode, (rest,))


def _parse_field_access(opcode: str, rest: str) -> Instruction:
    reg, obj, ref = _split_args(rest, 3)
    return Instruction(opcode, (reg, obj, ref))


def _parse_invoke(opcode: str, rest: str) -> Instruction:
    regs_part, _, ref_part = rest.partition("}, ")
    regs_part = regs_part.lstrip("{")
    regs: Tuple[str, ...] = tuple(
        r.strip() for r in regs_part.split(",") if r.strip()
    )
    ref = MethodRef.parse(ref_part.strip())
    return Instruction(opcode, regs + (ref,))


_INSTRUCTION_PARSERS: Dict[str, Callable[[str, str], Instruction]] = {
    "return-void": _parse_bare,
    "nop": _parse_bare,
    "goto": _parse_goto,
    "if-eqz": _parse_branch,
    "if-nez": _parse_branch,
    "const-string": _parse_const_string,
    "const-class": _parse_reg_class,
    "new-instance": _parse_reg_class,
    "check-cast": _parse_reg_class,
    "instance-of": _parse_instance_of,
    "const": _parse_const,
    "const/4": _parse_const,
    "move-result-object": _parse_unary,
    "move-result": _parse_unary,
    "return-object": _parse_unary,
    "iget-object": _parse_field_access,
    "iput-object": _parse_field_access,
    "invoke-direct": _parse_invoke,
    "invoke-virtual": _parse_invoke,
    "invoke-static": _parse_invoke,
    "invoke-super": _parse_invoke,
    "invoke-interface": _parse_invoke,
}


# Interning cache for parsed instruction lines.  Instructions (and the
# MethodRefs inside them) are frozen, so the same textual line — think
# ``return-void`` or ``move-result-object v0``, repeated across every
# class in a 10k-app corpus — can share one parsed object.  Malformed
# lines raise before anything is stored, so errors are never cached.
_INSTRUCTION_CACHE: Dict[str, Instruction] = {}


def _parse_instruction(line: str) -> Instruction:
    cached = _INSTRUCTION_CACHE.get(line)
    if cached is not None:
        return cached
    if line.startswith(":"):
        instruction = Instruction("label", (line[1:],))
    else:
        opcode, _, rest = line.partition(" ")
        parser = _INSTRUCTION_PARSERS.get(opcode)
        if parser is not None:
            instruction = parser(opcode, rest.strip())
        elif opcode.startswith("invoke-"):
            # Unknown invoke flavours still parse the reference first,
            # then fail opcode validation inside Instruction — matching
            # the historical error order ("bad method reference" before
            # "unknown opcode").
            instruction = _parse_invoke(opcode, rest.strip())
        else:
            raise SmaliError(f"cannot parse instruction: {line!r}")
    _INSTRUCTION_CACHE[line] = instruction
    return instruction


def _split_args(rest: str, count: int) -> List[str]:
    parts = [p.strip() for p in rest.split(",")]
    if len(parts) != count:
        raise SmaliError(f"expected {count} operands in {rest!r}")
    return parts
