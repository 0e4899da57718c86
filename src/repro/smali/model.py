"""Dalvik class model: the in-memory form of smali code.

A deliberately small but real subset of the dalvik instruction set — the
instructions our APK compiler emits and the static analyzer interprets:
constants, object construction, and the four ``invoke-*`` flavours.
Class names are stored in Java dotted form and converted to/from JVM
descriptors (``Lcom/foo/Bar;``) at the text boundary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SmaliError

# The opcodes the toolchain understands.
OPCODES = frozenset(
    {
        "const-string",
        "const-class",
        "const",
        "const/4",
        "new-instance",
        "invoke-direct",
        "invoke-virtual",
        "invoke-static",
        "invoke-super",
        "invoke-interface",
        "move-result-object",
        "move-result",
        "check-cast",
        "instance-of",
        "iget-object",
        "iput-object",
        "return-void",
        "return-object",
        "nop",
        # Control flow: conditional/unconditional branches and their
        # label pseudo-instruction (printed as ``:name``).
        "if-eqz",
        "if-nez",
        "goto",
        "label",
    }
)

INVOKE_OPCODES = frozenset(
    {"invoke-direct", "invoke-virtual", "invoke-static", "invoke-super",
     "invoke-interface"}
)

_PRIMITIVES = {
    "void": "V",
    "boolean": "Z",
    "byte": "B",
    "short": "S",
    "char": "C",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}
_PRIMITIVES_REV = {v: k for k, v in _PRIMITIVES.items()}


@lru_cache(maxsize=None)
def jvm_type(java: str) -> str:
    """``com.foo.Bar`` → ``Lcom/foo/Bar;`` (primitives map to letters)."""
    if java.endswith("[]"):
        return "[" + jvm_type(java[:-2])
    if java in _PRIMITIVES:
        return _PRIMITIVES[java]
    return "L" + java.replace(".", "/") + ";"


@lru_cache(maxsize=None)
def java_name(descriptor: str) -> str:
    """``Lcom/foo/Bar;`` → ``com.foo.Bar``.

    Cached: the same handful of type descriptors recur across every
    class in a corpus, and ``lru_cache`` never caches the SmaliError
    raised for malformed descriptors.
    """
    if descriptor.startswith("["):
        return java_name(descriptor[1:]) + "[]"
    if descriptor in _PRIMITIVES_REV:
        return _PRIMITIVES_REV[descriptor]
    if descriptor.startswith("L") and descriptor.endswith(";"):
        return sys.intern(descriptor[1:-1].replace("/", "."))
    raise SmaliError(f"bad type descriptor: {descriptor!r}")


@dataclass(frozen=True)
class MethodRef:
    """A method reference ``Lcls;->name(params)ret`` (java dotted names)."""

    cls: str
    name: str
    params: Tuple[str, ...] = ()
    ret: str = "void"

    def descriptor(self) -> str:
        # Memoized per instance: refs are frozen, so the rendered text can
        # never go stale, and the printer asks for it on every emit.
        cached = self.__dict__.get("_descriptor")
        if cached is None:
            params = "".join(jvm_type(p) for p in self.params)
            cached = f"{jvm_type(self.cls)}->{self.name}({params}){jvm_type(self.ret)}"
            object.__setattr__(self, "_descriptor", cached)
        return cached

    @classmethod
    def parse(cls, text: str) -> "MethodRef":
        # Interning table: the same textual ref appears across thousands of
        # classes in a corpus, so parse each spelling once and share the
        # frozen instance.  Errors are never cached — a malformed ref
        # raises the same SmaliError every time.
        if cls is MethodRef:
            cached = _PARSED_REFS.get(text)
            if cached is not None:
                return cached
        try:
            owner, rest = text.split("->", 1)
            name, rest = rest.split("(", 1)
            params_str, ret = rest.split(")", 1)
        except ValueError:
            raise SmaliError(f"bad method reference: {text!r}") from None
        ref = cls(
            cls=java_name(owner),
            name=sys.intern(name),
            params=tuple(java_name(d) for d in _split_descriptors(params_str)),
            ret=java_name(ret),
        )
        if cls is MethodRef:
            _PARSED_REFS[text] = ref
        return ref

    def __str__(self) -> str:
        return self.descriptor()


# MethodRef.parse interning table (text spelling → shared parsed ref).
_PARSED_REFS: Dict[str, "MethodRef"] = {}


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


@dataclass(frozen=True)
class Instruction:
    """One dalvik instruction.

    ``args`` holds operands in a normalized form:

    * registers as ``"v0"``/``"p1"`` strings,
    * string literals as-is (the printer adds quotes),
    * class operands as java dotted names,
    * integer literals as ``int``,
    * a single :class:`MethodRef` for invokes.
    """

    opcode: str
    args: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES:
            raise SmaliError(f"unknown opcode: {self.opcode!r}")

    @property
    def is_invoke(self) -> bool:
        return self.opcode in INVOKE_OPCODES

    @property
    def method(self) -> MethodRef:
        if not self.is_invoke:
            raise SmaliError(f"{self.opcode} has no method reference")
        ref = self.args[-1]
        assert isinstance(ref, MethodRef)
        return ref

    @property
    def registers(self) -> Tuple[str, ...]:
        """Register operands (for invokes: the argument register list)."""
        return tuple(a for a in self.args if isinstance(a, str) and _is_reg(a))


def _is_reg(token: str) -> bool:
    return (
        len(token) >= 2
        and token[0] in "vp"
        and token[1:].isdigit()
    )


@dataclass
class SmaliField:
    name: str
    type: str  # java dotted
    static: bool = False


@dataclass
class SmaliMethod:
    """A method body. ``params`` excludes the implicit ``this``."""

    name: str
    params: List[str] = field(default_factory=list)
    ret: str = "void"
    static: bool = False
    registers: int = 8
    instructions: List[Instruction] = field(default_factory=list)

    def emit(self, opcode: str, *args: object) -> Instruction:
        # Intern emitted instructions: the compiler emits the same
        # (opcode, operands) shapes across every app in a corpus, and
        # Instruction is frozen, so sharing one object is safe and lets
        # the printer memoize rendered text per instance.
        key = (opcode, args)
        try:
            instruction = _EMITTED.get(key)
        except TypeError:  # unhashable operand — build a one-off
            instruction = Instruction(opcode, args)
        else:
            if instruction is None:
                instruction = Instruction(opcode, args)
                _EMITTED[key] = instruction
        self.instructions.append(instruction)
        return instruction

    def invokes(self) -> List[MethodRef]:
        return [i.method for i in self.instructions if i.is_invoke]


# SmaliMethod.emit interning table ((opcode, args) → shared instruction).
_EMITTED: Dict[Tuple[str, Tuple[object, ...]], Instruction] = {}


@dataclass
class SmaliClass:
    """One class as decoded from (or compiled to) a ``.smali`` file."""

    name: str  # java dotted
    super_name: str = "java.lang.Object"
    interfaces: List[str] = field(default_factory=list)
    fields: List[SmaliField] = field(default_factory=list)
    methods: List[SmaliMethod] = field(default_factory=list)
    source: Optional[str] = None

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def file_name(self) -> str:
        """The path apktool would write, e.g. ``com/foo/Bar.smali``."""
        return self.name.replace(".", "/") + ".smali"

    @property
    def is_inner(self) -> bool:
        return "$" in self.simple_name

    @property
    def outer_name(self) -> Optional[str]:
        """The enclosing class for inner classes (``Foo$1`` → ``Foo``)."""
        if not self.is_inner:
            return None
        package, _, simple = self.name.rpartition(".")
        outer = simple.split("$", 1)[0]
        return f"{package}.{outer}" if package else outer

    def method(self, name: str) -> Optional[SmaliMethod]:
        for method in self.methods:
            if method.name == name:
                return method
        return None

    def add_method(self, method: SmaliMethod) -> SmaliMethod:
        self.methods.append(method)
        return method

    def referenced_classes(self) -> List[str]:
        """Every class this class mentions (supers, news, invoke targets,
        const-class operands, field types) — the ``getUsedClass`` of
        Algorithm 2."""
        seen: List[str] = []

        def _add(name: str) -> None:
            if name not in seen and name != self.name:
                seen.append(name)

        _add(self.super_name)
        for iface in self.interfaces:
            _add(iface)
        for fld in self.fields:
            _add(fld.type)
        for method in self.methods:
            for instruction in method.instructions:
                if instruction.opcode in ("new-instance", "const-class",
                                          "check-cast", "instance-of"):
                    operand = instruction.args[-1]
                    if isinstance(operand, str):
                        _add(operand)
                elif instruction.is_invoke:
                    _add(instruction.method.cls)
        return seen


class ParseOnRead:
    """A field that parses its value on first read.

    A non-data descriptor attached to a class after it is created, so
    the class's ``__init__`` and dataclass defaults are untouched: an
    instance that has the field in its ``__dict__`` — every object built
    eagerly, and a lazy one after its first read — never reaches it.

    The first read calls ``parse(obj)`` and stores the result with
    ``__dict__.setdefault``.  Two threads reading at once may both
    parse; the first to store wins and both get its object.  A parse
    that raises stores nothing, so every read raises the same error.
    """

    __slots__ = ("name", "parse")

    def __init__(self, name: str, parse: Callable[[object], object]) -> None:
        self.name = name
        self.parse = parse

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.parse(obj))


# A class decoded by ``repro.smali.assemble.parse_class_header`` holds
# its unparsed body as ``_unparsed_body``: a call that lexes the method
# bodies from the class text.
SmaliClass.methods = ParseOnRead(  # type: ignore[assignment]
    "methods", lambda cls: cls._unparsed_body())
