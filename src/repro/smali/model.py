"""Dalvik class model: the in-memory form of smali code.

A deliberately small but real subset of the dalvik instruction set — the
instructions our APK compiler emits and the static analyzer interprets:
constants, object construction, and the four ``invoke-*`` flavours.
Class names are stored in Java dotted form and converted to/from JVM
descriptors (``Lcom/foo/Bar;``) at the text boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, NamedTuple,
                    Optional, Tuple)

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


#: Package prefixes of the platform's classes.  A type under one of
#: them, a primitive or an array of either names nothing of a single
#: app; see :func:`names_no_app`.
PLATFORM_PACKAGES = ("android.", "java.", "javax.", "dalvik.")
_PLATFORM_DESCRIPTORS = tuple(
    "L" + package.replace(".", "/") for package in PLATFORM_PACKAGES)

# Interning tables shared by the whole process.  Each holds only entries
# that name nothing of a single app (:func:`names_no_app`), so its size
# is set by the platform's vocabulary, not by the apps a process has
# built or decoded.  An app's own entries live in tables owned by its
# decode and are freed with it; a build keeps none.
_JVM_TYPES: Dict[str, str] = dict(_PRIMITIVES)
_JAVA_NAMES: Dict[str, str] = dict(_PRIMITIVES_REV)


def is_platform_type(java: str) -> bool:
    """True for a primitive, a platform class, or an array of either."""
    return (java.startswith(PLATFORM_PACKAGES)
            or java.partition("[")[0] in _PRIMITIVES)


def jvm_type(java: str) -> str:
    """``com.foo.Bar`` → ``Lcom/foo/Bar;`` (primitives map to letters)."""
    descriptor = _JVM_TYPES.get(java)
    if descriptor is None:
        if java.endswith("[]"):
            return "[" + jvm_type(java[:-2])
        descriptor = "L" + java.replace(".", "/") + ";"
        if java.startswith(PLATFORM_PACKAGES):
            _JVM_TYPES[java] = descriptor
    return descriptor


def java_name(descriptor: str) -> str:
    """``Lcom/foo/Bar;`` → ``com.foo.Bar``.

    Platform descriptors are cached process-wide; an app's are left to
    its owner's :class:`TypeTable`, and are not ``sys.intern``-ed either,
    since the interpreter's interned-string table is process-wide too.
    A malformed descriptor raises :class:`SmaliError` every time and is
    never cached.
    """
    name = _JAVA_NAMES.get(descriptor)
    if name is None:
        if descriptor.startswith("["):
            return java_name(descriptor[1:]) + "[]"
        if not (descriptor.startswith("L") and descriptor.endswith(";")):
            raise SmaliError(f"bad type descriptor: {descriptor!r}")
        name = descriptor[1:-1].replace("/", ".")
        if descriptor.startswith(_PLATFORM_DESCRIPTORS):
            _JAVA_NAMES[descriptor] = name
    return name


class TypeTable(dict):
    """The type spellings one decoded APK has converted.

    It starts as a copy of a process-wide table, which holds platform
    types only, so a lookup is one probe; a miss converts with
    ``convert`` (:func:`java_name`, which files a platform type
    process-wide) and keeps the app's own types here until
    the owner is freed.  A malformed spelling raises and is never kept.
    """

    __slots__ = ("convert",)

    def __init__(self, shared: Dict[str, str],
                 convert: Callable[[str], str]) -> None:
        super().__init__(shared)
        self.convert = convert

    def __missing__(self, spelling: str) -> str:
        converted = self[spelling] = self.convert(spelling)
        return converted


def new_name_table() -> TypeTable:
    """An owner's ``descriptor → java name`` table."""
    return TypeTable(_JAVA_NAMES, java_name)


class _MethodRefFields(NamedTuple):
    cls: str
    name: str
    params: Tuple[str, ...] = ()
    ret: str = "void"


def method_descriptor(owner: str, name: str, params: str = "",
                      ret: str = "V") -> str:
    """``owner->name(params)ret`` from the owner's, the concatenated
    parameters' and the return type's descriptors."""
    return f"{owner}->{name}({params}){ret}"


class MethodRef(_MethodRefFields):
    """A method reference ``Lcls;->name(params)ret`` (java dotted names).

    A named tuple: decoding compares and hashes refs, and a tuple does
    both in C.
    """

    def descriptor(self) -> str:
        """``Lcls;->name(params)ret``."""
        # Memoized per instance: refs are immutable, so the rendered text
        # can never go stale.
        cached = self.__dict__.get("_descriptor")
        if cached is None:
            cached = method_descriptor(
                jvm_type(self.cls), self.name,
                "".join(map(jvm_type, self.params)), jvm_type(self.ret))
            self.__dict__["_descriptor"] = cached
        return cached

    @property
    def names_no_app(self) -> bool:
        """True when every type in the reference is a platform type."""
        return (self.cls.startswith(PLATFORM_PACKAGES)
                and is_platform_type(self.ret)
                and all(map(is_platform_type, self.params)))

    @classmethod
    def parse(cls, text: str,
              java: Callable[[str], str] = java_name) -> "MethodRef":
        """The ref ``text`` spells; ``java`` converts each descriptor."""
        # The same textual ref to a platform method appears across every
        # app, so parse each such spelling once and share the immutable
        # instance.  Errors are never cached — a malformed ref raises the
        # same SmaliError every time.
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
        ref = cls(java(owner), name,
                  tuple(map(java, _split_descriptors(params_str))), java(ret))
        if cls is MethodRef and ref.names_no_app:
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


@dataclass(frozen=True, init=False)
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

    def __init__(self, opcode: str, args: Tuple[object, ...] = ()) -> None:
        # Written out: every build and decode makes one per new line,
        # and the generated frozen __init__ costs twice as much.
        if opcode not in OPCODES:
            raise SmaliError(f"unknown opcode: {opcode!r}")
        state = self.__dict__
        state["opcode"] = opcode
        state["args"] = args

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


_LABEL_OPCODES = frozenset({"label", "goto", "if-eqz", "if-nez"})


def names_no_app(opcode: str, args: Tuple[object, ...]) -> bool:
    """True when an instruction names nothing of a single app.

    Its operands are registers, labels, integers (resource ids
    included), platform class operands and method references whose
    types are all platform types.  An app class, an app field or a
    string literal makes it the app's own.  Only such instructions enter
    a process-wide interning table.
    """
    if opcode == "const-string":
        return False
    # Last operand first: it is the method, class or field an app-naming
    # instruction names.
    for arg in reversed(args):
        if isinstance(arg, str):
            if not (opcode in _LABEL_OPCODES or _is_reg(arg)
                    or (opcode in _CLASS_OPERAND_OPCODES
                        and is_platform_type(arg))):
                return False
        elif isinstance(arg, MethodRef):
            if not arg.names_no_app:
                return False
        elif not isinstance(arg, int):
            return False
    return True


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

    def emit(self, opcode: str, *args: object) -> None:
        self.instructions.append(Instruction(opcode, args))

    def invokes(self) -> List[MethodRef]:
        return [i.method for i in self.instructions if i.is_invoke]


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
        return self.uses()[0]

    def uses(self) -> Tuple[List[str], FrozenSet[str]]:
        """One walk over the class: :meth:`referenced_classes` (first-seen
        order, self excluded), and the classes it creates or type-tests —
        ``new-instance``/``instance-of`` operands plus receivers of
        ``newInstance()`` calls."""
        seen: Dict[str, None] = dict.fromkeys(
            [self.super_name, *self.interfaces,
             *(fld.type for fld in self.fields)])
        created = set()
        for method in self.methods:
            for instruction in method.instructions:
                opcode = instruction.opcode
                if opcode in _CLASS_OPERAND_OPCODES:
                    operand = instruction.args[-1]
                    if isinstance(operand, str):
                        seen[operand] = None
                    if opcode in _CREATING_OPCODES:
                        created.add(operand)
                elif opcode in INVOKE_OPCODES:
                    ref = instruction.args[-1]
                    seen[ref.cls] = None  # type: ignore[union-attr]
                    if ref.name == "newInstance":  # type: ignore[union-attr]
                        created.add(ref.cls)  # type: ignore[union-attr]
        seen.pop(self.name, None)
        return list(seen), frozenset(created)


_CLASS_OPERAND_OPCODES = frozenset(
    {"new-instance", "const-class", "check-cast", "instance-of"})
_CREATING_OPCODES = frozenset({"new-instance", "instance-of"})


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
