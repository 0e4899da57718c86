"""Smali text assembler/disassembler.

``print_class`` renders a :class:`~repro.smali.model.SmaliClass` in the
baksmali text format; ``parse_class`` reads it back.  The static pipeline
operates on the *text* (as the paper's does on Apktool output), so the
round trip is load-bearing, and is covered by property-based tests.
Both ``print_class`` and the APK builder write lines through this
module's line formatters, so only this module knows the line format.

A class is read in two parts by one parser: the header (the lines
before the first ``.method``) and the body.  ``parse_class`` reads both;
``parse_class_header``, which the decoder uses, reads the body when its
``methods`` are first read.

Both directions are driven by dispatch tables keyed on the leading
directive/opcode token: the parser classifies each line once (directive,
comment, or instruction) and jumps straight to its handler instead of
probing a ``startswith`` chain per line.  Lines whose leading token is
not an exact directive fall back to the historical prefix-matching
chain, so edge-case semantics (and error messages) are byte-identical
to the pre-dispatch implementation.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SmaliError
from repro.smali.model import (
    Instruction,
    MethodRef,
    SmaliClass,
    SmaliField,
    SmaliMethod,
    _split_descriptors,
    is_platform_type,
    jvm_type,
    names_no_app,
    new_name_table,
)

# A ``.method`` line read: name, params, return type, static.
_HeaderParts = Tuple[str, Tuple[str, ...], str, bool]

# ---------------------------------------------------------------------------
# Line formatters
#
# The one place that knows the smali line format.  Operands arrive
# already rendered: registers as text (an invoke's as one ", "-joined
# list), types and references as descriptors.  ``print_class`` renders a
# class through them, and ``repro.apk.builder`` writes its classes
# through them without making the model's objects.


def class_header(descriptor: str, super_descriptor: str,
                 source: Optional[str] = None,
                 interfaces: Iterable[str] = (),
                 fields: Iterable[Tuple[str, str, bool]] = ()) -> List[str]:
    """The lines before a class's first method; ``fields`` are
    ``(name, type descriptor, static)``."""
    lines = [f".class public {descriptor}", f".super {super_descriptor}"]
    if source:
        lines.append(f'.source "{source}"')
    lines.extend([f".implements {iface}" for iface in interfaces])
    lines.extend([
        f".field public static {name}:{type_}" if static
        else f".field public {name}:{type_}"
        for name, type_, static in fields])
    return lines


def method_open(name: str, params: str, ret: str, static: bool = False,
                registers: int = 8) -> Tuple[str, str, str]:
    """The blank separator line, the ``.method`` line and the
    ``.registers`` line that open a method; ``params`` is the
    concatenated parameter descriptors."""
    flags = "public static" if static else "public"
    return ("", f".method {flags} {name}({params}){ret}",
            f"    .registers {registers}")


METHOD_END = ".end method"


def class_text(lines: List[str]) -> str:
    """A class's ``.smali`` file from its lines."""
    return "\n".join(lines) + "\n"


def bare_line(op: str) -> str:
    return f"    {op}"


def label_line(name: str) -> str:
    return f"    :{name}"


def goto_line(name: str) -> str:
    return f"    goto :{name}"


def branch_line(op: str, reg: str, name: str) -> str:
    return f"    {op} {reg}, :{name}"


def const_string_line(reg: str, literal: str) -> str:
    escaped = literal.replace("\\", "\\\\").replace('"', '\\"')
    return f'    const-string {reg}, "{escaped}"'


def class_operand_line(op: str, reg: str, descriptor: str) -> str:
    """``const-class``, ``new-instance`` or ``check-cast``."""
    return f"    {op} {reg}, {descriptor}"


def instance_of_line(dest: str, src: str, descriptor: str) -> str:
    return f"    instance-of {dest}, {src}, {descriptor}"


def const_line(op: str, reg: str, value: int) -> str:
    return f"    {op} {reg}, {value:#x}"


def register_line(op: str, reg: str) -> str:
    """``move-result``, ``move-result-object`` or ``return-object``."""
    return f"    {op} {reg}"


def field_access_line(op: str, reg: str, obj: str, ref: str) -> str:
    return f"    {op} {reg}, {obj}, {ref}"


def invoke_line(op: str, regs: str, ref: str) -> str:
    return f"    {op} {{{regs}}}, {ref}"


# ---------------------------------------------------------------------------
# Printing


def print_class(cls: SmaliClass) -> str:
    """Render a class to smali text."""
    lines = class_header(
        jvm_type(cls.name), jvm_type(cls.super_name), cls.source,
        map(jvm_type, cls.interfaces),
        [(fld.name, jvm_type(fld.type), fld.static) for fld in cls.fields])
    for method in cls.methods:
        lines.extend(method_open(
            method.name, "".join(map(jvm_type, method.params)),
            jvm_type(method.ret), method.static, method.registers))
        lines.extend(map(_print_line, method.instructions))
        lines.append(METHOD_END)
    return class_text(lines)


def _print_line(instruction: Instruction) -> str:
    printer = _INSTRUCTION_PRINTERS.get(instruction.opcode)
    if printer is None:
        raise SmaliError(f"cannot print opcode {instruction.opcode!r}")
    return printer(instruction.opcode, instruction.args)


_Args = Tuple[object, ...]


def _print_bare(op: str, args: _Args) -> str:
    return bare_line(op)


def _print_label(op: str, args: _Args) -> str:
    (name,) = args
    return label_line(str(name))


def _print_goto(op: str, args: _Args) -> str:
    (name,) = args
    return goto_line(str(name))


def _print_branch(op: str, args: _Args) -> str:
    reg, name = args
    return branch_line(op, str(reg), str(name))


def _print_const_string(op: str, args: _Args) -> str:
    reg, literal = args
    return const_string_line(str(reg), str(literal))


def _print_reg_class(op: str, args: _Args) -> str:
    reg, cls_name = args
    return class_operand_line(op, str(reg), jvm_type(str(cls_name)))


def _print_instance_of(op: str, args: _Args) -> str:
    dest, src, cls_name = args
    return instance_of_line(str(dest), str(src), jvm_type(str(cls_name)))


def _print_const(op: str, args: _Args) -> str:
    reg, value = args
    return const_line(op, str(reg), int(value))  # type: ignore[call-overload]


def _print_unary(op: str, args: _Args) -> str:
    (reg,) = args
    return register_line(op, str(reg))


def _print_field_access(op: str, args: _Args) -> str:
    reg, obj, ref = args
    return field_access_line(op, str(reg), str(obj), str(ref))


def _print_invoke(op: str, args: _Args) -> str:
    *regs, ref = args
    assert isinstance(ref, MethodRef)
    return invoke_line(op, ", ".join(map(str, regs)), ref.descriptor())


_INSTRUCTION_PRINTERS: Dict[str, Callable[[str, _Args], str]] = {
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


class ParseTables:
    """The interning tables of one decode, shared by all its classes.

    ``lines`` holds the parsed instruction lines and ``headers`` the
    parsed ``.method`` lines that name the app, and ``names`` the type
    names the decode has converted; the process-wide tables keep only
    what names nothing of an app.  A class's unparsed body holds the
    tables, so they are freed with the decode.
    """

    __slots__ = ("lines", "headers", "names", "java")

    def __init__(self) -> None:
        self.lines: Dict[str, Instruction] = {}
        self.headers: Dict[str, _HeaderParts] = {}
        self.names = new_name_table()
        self.java = self.names.__getitem__  # descriptor → java name


class _ClassParser:
    """Mutable state for one pass over the lines of a class."""

    __slots__ = ("cls", "methods", "tables", "method", "append",
                 "seen_class")

    def __init__(self, cls: Optional[SmaliClass], methods: List[SmaliMethod],
                 tables: ParseTables) -> None:
        self.cls = cls
        self.methods = methods
        self.tables = tables
        self.method: Optional[SmaliMethod] = None  # the open or last one
        # The open method's ``instructions.append``; None outside one.
        self.append: Optional[Callable[[Instruction], None]] = None
        self.seen_class = False

    def _placeholder(self) -> SmaliMethod:
        # A stray ``.registers``/``.end method`` before any ``.method``
        # lands on a placeholder method.
        self.method = SmaliMethod(name="__none__")
        return self.method

    # Directive handlers.  Each receives the stripped line whose leading
    # token matched the dispatch key exactly.

    def _dir_class(self, line: str) -> None:
        self.cls.name = self.tables.names[line.split()[-1]]
        self.seen_class = True

    def _dir_super(self, line: str) -> None:
        self.cls.super_name = self.tables.names[line.split()[-1]]

    def _dir_source(self, line: str) -> None:
        self.cls.source = line.split('"')[1]

    def _dir_implements(self, line: str) -> None:
        self.cls.interfaces.append(self.tables.names[line.split()[-1]])

    def _dir_field(self, line: str) -> None:
        static = " static " in line + " "
        decl = line.split()[-1]
        name, _, descriptor = decl.partition(":")
        self.cls.fields.append(
            SmaliField(name=name, type=self.tables.names[descriptor],
                       static=static)
        )

    def _dir_method(self, line: str) -> None:
        # Headers like ``.method public onCreate(...)V`` recur across
        # every class in a corpus; the immutable parts are cached, the
        # mutable SmaliMethod shell is always fresh.
        name, params, ret, static = _method_header_parts(line, self.tables)
        self.method = method = SmaliMethod(name, list(params), ret, static)
        self.append = method.instructions.append

    def _dir_registers(self, line: str) -> None:
        (self.method or self._placeholder()).registers = int(line.split()[-1])

    def _dir_end(self, line: str) -> None:
        if line.startswith(".end method"):
            self.methods.append(self.method or self._placeholder())
            self.append = None
        elif self.append is not None:
            self.append(_parse_instruction(line, self.tables))
        # Outside a method, unmatched ``.end …`` lines are ignored.

    def _dir_unknown(self, line: str) -> None:
        # Any other directive (``.annotation``, ``.line``, ``.classx``):
        # ignored outside a method, parsed as an instruction inside one.
        if self.append is not None:
            self.append(_parse_instruction(line, self.tables))

    def _dir_late_header(self, line: str) -> None:
        raise SmaliError(
            f"{line.partition(' ')[0]} after the first .method: {line!r}")


_Directives = Dict[str, Callable[[_ClassParser, str], None]]

_HEADER_DIRECTIVES: _Directives = {
    ".class": _ClassParser._dir_class,
    ".super": _ClassParser._dir_super,
    ".source": _ClassParser._dir_source,
    ".implements": _ClassParser._dir_implements,
    ".field": _ClassParser._dir_field,
    ".method": _ClassParser._dir_method,
    ".registers": _ClassParser._dir_registers,
    ".end": _ClassParser._dir_end,
}

# Past the header, its directives are malformed: the body pass never
# touches the class, so two threads may parse one body at once.
_BODY_DIRECTIVES: _Directives = {
    **_HEADER_DIRECTIVES,
    **dict.fromkeys((".class", ".super", ".source", ".implements", ".field"),
                    _ClassParser._dir_late_header),
}


def parse_class(text: str) -> SmaliClass:
    """Parse smali text produced by :func:`print_class`, bodies included."""
    cls = parse_class_header(text)
    body = cls.__dict__.pop("_unparsed_body", None)
    if body is not None:
        cls.methods = body()
    return cls


def parse_class_header(text: str, tables: Optional[ParseTables] = None
                       ) -> SmaliClass:
    """Parse a class's header now and its method bodies on first read.

    The header — ``.class``, ``.super``, ``.source``, ``.implements``
    and ``.field``, the text before the first line that starts
    ``.method`` — is lexed here and its errors raise here.  ``methods``
    lexes the rest of the same text when first read
    (:class:`~repro.smali.model.ParseOnRead`) and raises a malformed
    body's :class:`SmaliError` then.  Once read, the class equals
    :func:`parse_class` of the same text.

    ``tables`` are the interning tables of the decode the class belongs
    to; without them the class gets its own.
    """
    if tables is None:
        tables = ParseTables()
    cls = SmaliClass(name="__pending__")
    body_at = text.find("\n.method")
    header = text if body_at < 0 else text[:body_at]
    parser = _ClassParser(cls, cls.methods, tables)
    _lex(parser, header, _HEADER_DIRECTIVES)
    if body_at >= 0 and (parser.append is not None or parser.methods):
        # The header met an indented ``.method``: lex the rest now.
        _lex(parser, text[body_at:], _BODY_DIRECTIVES)
        body_at = -1
    if not parser.seen_class:
        raise SmaliError("no .class directive found")
    if body_at >= 0:
        state = cls.__dict__
        del state["methods"]
        state["_unparsed_body"] = partial(_parse_body, text, body_at, tables)
    return cls


def _parse_body(text: str, body_at: int,
                tables: ParseTables) -> List[SmaliMethod]:
    """The methods of ``text[body_at:]``, resuming the header's pass in
    the state it ended in: past the header, outside any method."""
    parser = _ClassParser(None, [], tables)
    _lex(parser, text[body_at:], _BODY_DIRECTIVES)
    return parser.methods


def _lex(parser: _ClassParser, text: str, directives: _Directives) -> None:
    """Feed every line of ``text`` to ``parser``.

    Single pass: each line is classified once by its first character —
    directive (``.``), comment (``#``), or instruction — and directives
    dispatch on their leading token.
    """
    directives_get = directives.get
    unknown = _ClassParser._dir_unknown
    shared_get = _INSTRUCTION_CACHE.get
    tables = parser.tables
    lines_get = tables.lines.get
    # Only a directive opens or closes a method.
    append = parser.append
    try:
        for line in map(str.strip, text.splitlines()):
            if not line:
                continue
            head = line[0]
            if head == ".":
                directives_get(line.partition(" ")[0], unknown)(parser, line)
                append = parser.append
            elif head == "#":
                continue
            elif append is not None:
                append(shared_get(line) or lines_get(line)
                       or _parse_instruction(line, tables))
    except (ValueError, IndexError) as exc:
        # A malformed operand, descriptor or header (a missing "(", a
        # non-numeric register count, an unterminated "L...;").
        raise SmaliError(f"malformed smali: {exc}") from exc


# ``.method`` header line → its parts, for headers whose types are all
# platform types; a decode keeps the others in its own table.
_METHOD_HEADERS: Dict[str, _HeaderParts] = {}


def _method_header_parts(line: str, tables: ParseTables) -> _HeaderParts:
    # ".method public [static] name(params)ret"
    parts = _METHOD_HEADERS.get(line) or tables.headers.get(line)
    if parts is None:
        static = " static " in line
        signature = line.split()[-1]
        name, rest = signature.split("(", 1)
        params_str, ret = rest.split(")", 1)
        java = tables.java
        params = tuple(map(java, _split_descriptors(params_str)))
        parts = name, params, java(ret), static
        if is_platform_type(parts[2]) and all(map(is_platform_type, params)):
            _METHOD_HEADERS[line] = parts
        else:
            tables.headers[line] = parts
    return parts


def _parse_bare(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    return Instruction(opcode)


def _parse_goto(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    return Instruction(opcode, (rest.lstrip(":"),))


def _parse_branch(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    reg, label = _split_args(rest, 2)
    return Instruction(opcode, (reg, label.lstrip(":")))


def _parse_const_string(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    reg, literal = rest.split(", ", 1)
    value = literal.strip()[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return Instruction(opcode, (reg, value))


def _parse_reg_class(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    reg, descriptor = _split_args(rest, 2)
    return Instruction(opcode, (reg, tables.java(descriptor)))


def _parse_instance_of(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    dest, src, descriptor = _split_args(rest, 3)
    return Instruction(opcode, (dest, src, tables.java(descriptor)))


def _parse_const(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    reg, value = _split_args(rest, 2)
    return Instruction(opcode, (reg, int(value, 16)))


def _parse_unary(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    return Instruction(opcode, (rest,))


def _parse_field_access(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    reg, obj, ref = _split_args(rest, 3)
    return Instruction(opcode, (reg, obj, ref))


def _parse_invoke(opcode: str, rest: str, tables: ParseTables) -> Instruction:
    regs_part, _, ref_part = rest.partition("}, ")
    regs_part = regs_part.lstrip("{")
    regs: Tuple[str, ...] = tuple(
        filter(None, map(str.strip, regs_part.split(","))))
    ref = MethodRef.parse(ref_part.strip(), tables.java)
    return Instruction(opcode, regs + (ref,))


_INSTRUCTION_PARSERS: Dict[str, Callable[[str, str, ParseTables],
                                          Instruction]] = {
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
# class in a 10k-app corpus — can share one parsed object.  This table
# keeps the lines that name nothing of an app; a line naming an app
# class, field or string literal goes into the decode's own table.
# Malformed lines raise before anything is stored, so errors are never
# cached.
_INSTRUCTION_CACHE: Dict[str, Instruction] = {}


def _parse_instruction(line: str, tables: ParseTables) -> Instruction:
    """Parse a line neither table holds, and file it."""
    if line[0] == ":":
        instruction = Instruction("label", (line[1:],))
    else:
        opcode, _, rest = line.partition(" ")
        parser = _INSTRUCTION_PARSERS.get(opcode)
        if parser is not None:
            instruction = parser(opcode, rest.strip(), tables)
        elif opcode.startswith("invoke-"):
            # Unknown invoke flavours still parse the reference first,
            # then fail opcode validation inside Instruction — matching
            # the historical error order ("bad method reference" before
            # "unknown opcode").
            instruction = _parse_invoke(opcode, rest.strip(), tables)
        else:
            raise SmaliError(f"cannot parse instruction: {line!r}")
    if names_no_app(instruction.opcode, instruction.args):
        _INSTRUCTION_CACHE[line] = instruction
    else:
        tables.lines[line] = instruction
    return instruction


def _split_args(rest: str, count: int) -> List[str]:
    parts = [p.strip() for p in rest.split(",")]
    if len(parts) != count:
        raise SmaliError(f"expected {count} operands in {rest!r}")
    return parts
