"""Shared value types used across the FragDroid reproduction.

These are small, immutable, layer-neutral types: fully-qualified component
names, resource identifiers, widget kinds, and the record type for a
sensitive-API invocation observed at runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Positional:
    """Pickle a slotted record as its class and its slot values.

    A record's slots, in order, are its constructor's parameters, so
    unpickling calls the constructor again (any validation in it runs)
    and ships no field names.  A process sweep pickles thousands of
    these with every result.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self.__slots__])


class ComponentKind(enum.Enum):
    """What kind of app component a name refers to."""

    ACTIVITY = "activity"
    FRAGMENT = "fragment"


@dataclass(frozen=True, order=True, slots=True)
class ComponentName(Positional):
    """A fully-qualified Android component name, e.g. ``com.app/.MainActivity``.

    ``cls`` is always stored fully qualified (``com.app.MainActivity``).
    """

    package: str
    cls: str

    def __post_init__(self) -> None:
        if not self.package or not self.cls:
            raise ValueError("package and cls must be non-empty")
        if self.cls.startswith("."):
            # Normalise the manifest shorthand ".MainActivity".
            object.__setattr__(self, "cls", self.package + self.cls)

    @property
    def simple_name(self) -> str:
        """The class name without its package prefix."""
        return self.cls.rsplit(".", 1)[-1]

    @property
    def flat(self) -> str:
        """The ``pkg/cls`` form used by ``am start -n``."""
        return f"{self.package}/{self.cls}"

    @classmethod
    def parse(cls, flat: str) -> "ComponentName":
        """Parse the ``pkg/cls`` form (accepts ``pkg/.Short`` shorthand)."""
        if "/" not in flat:
            raise ValueError(f"not a component name: {flat!r}")
        package, klass = flat.split("/", 1)
        return cls(package, klass)

    def __str__(self) -> str:
        return self.flat


# Resource IDs live in the app package space, same as real Android.
RESOURCE_ID_BASE = 0x7F000000


@dataclass(frozen=True, order=True)
class ResourceId:
    """A numeric Android resource identifier with its symbolic name."""

    value: int
    name: str

    def __post_init__(self) -> None:
        if not (RESOURCE_ID_BASE <= self.value < 0x80000000):
            raise ValueError(f"resource id out of app range: {self.value:#x}")

    @property
    def hex(self) -> str:
        return f"{self.value:#010x}"

    def __str__(self) -> str:
        return f"R.id.{self.name}({self.hex})"


class WidgetKind(enum.Enum):
    """The widget classes the emulator and the explorer understand."""

    BUTTON = "Button"
    TEXT_VIEW = "TextView"
    EDIT_TEXT = "EditText"
    CHECK_BOX = "CheckBox"
    IMAGE_VIEW = "ImageView"
    LIST_ITEM = "ListItem"
    TAB = "Tab"
    MENU_ITEM = "MenuItem"
    DRAWER_ITEM = "DrawerItem"
    SPINNER = "Spinner"
    SWITCH = "Switch"

    @property
    def clickable(self) -> bool:
        return self not in (WidgetKind.TEXT_VIEW, WidgetKind.IMAGE_VIEW)

    @property
    def accepts_text(self) -> bool:
        return self is WidgetKind.EDIT_TEXT


class InvocationSource(enum.Enum):
    """Whether a sensitive API call came from an Activity or a Fragment."""

    ACTIVITY = "activity"
    FRAGMENT = "fragment"


@dataclass(frozen=True, slots=True)
class ApiInvocation(Positional):
    """One observed sensitive-API invocation.

    ``component`` is the class that executed the call; ``source`` says
    whether that class is an Activity or a Fragment — the distinction at
    the heart of Table II.
    """

    api: str
    component: ComponentName
    source: InvocationSource
    step: int = 0

    @property
    def category(self) -> str:
        """The Table II category prefix, e.g. ``internet`` of
        ``internet/connect``."""
        return self.api.split("/", 1)[0]
