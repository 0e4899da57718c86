"""Test case generation: queue items → executable Robotium programs.

The paper's test case generation module "transforms the items in the UI
queue into executable test cases" from a Robotium template, packages
them with Ant and runs them through ``am instrument`` (Sections III and
VI).  We keep the whole shape: a :class:`TestCase` renders itself as
Robotium-style Java source (an inspectable artifact of every run) and
registers an equivalent operation-replay with the adb instrumentation
layer, which executes against the :class:`~repro.robotium.solo.Solo`
driver.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.android.reflection import reflective_fragment_switch
from repro.core.queue import OpKind, Operation
from repro.errors import TestCaseError, WidgetNotFoundError
from repro.types import ComponentName

if TYPE_CHECKING:  # pragma: no cover
    from repro.adb.bridge import Adb
    from repro.robotium.solo import Solo

#: Characters that must be escaped inside a Java string literal.
_JAVA_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\f": "\\f",
    "\b": "\\b",
}


def java_escape(text: str) -> str:
    """Escape ``text`` for interpolation into a Java string literal.

    Generated test programs embed analyst-provided values (widget ids,
    entered text); a ``"`` or ``\\`` passed through verbatim produces
    uncompilable Java.  Remaining control characters become ``\\uXXXX``.
    """
    out = []
    for char in text:
        if char in _JAVA_ESCAPES:
            out.append(_JAVA_ESCAPES[char])
        elif ord(char) < 0x20:
            out.append(f"\\u{ord(char):04x}")
        else:
            out.append(char)
    return "".join(out)


def apply_operation(op: Operation, package: str, solo: "Solo",
                    adb: "Adb") -> None:
    """Apply one operation to the device behind ``solo`` and ``adb``.

    The one place an operation kind becomes device calls: test cases,
    replay scripts and the recorder all step through it.  Raises
    :class:`TestCaseError` when the operation cannot be applied (a
    missing widget, chained as the cause; a launcher or forced start
    that did not come up) or when the app has left the foreground
    afterwards.  Reflection, intent-resolution and permission errors
    propagate as the device raised them.
    """
    device = solo.device
    if op.kind is OpKind.LAUNCH:
        if not adb.am_start_launcher(package):
            raise TestCaseError(f"{package}: launcher did not start")
    elif op.kind is OpKind.CLICK:
        try:
            solo.click_on_view(op.target)
        except WidgetNotFoundError as exc:
            raise TestCaseError(f"click failed: {exc}") from exc
    elif op.kind is OpKind.ENTER_TEXT:
        try:
            solo.enter_text(op.target, op.value)
        except WidgetNotFoundError as exc:
            raise TestCaseError(f"enterText failed: {exc}") from exc
    elif op.kind is OpKind.SWIPE_OPEN:
        solo.swipe_right()
    elif op.kind is OpKind.REFLECT:
        reflective_fragment_switch(device, op.target)
    elif op.kind is OpKind.FORCE_START:
        component = ComponentName.parse(op.target)
        if not device.start_activity(component):
            raise TestCaseError(f"forced start failed: {op.target}")
    elif op.kind is OpKind.BACK:
        solo.go_back()
    elif op.kind is OpKind.TAP:
        solo.click_on_screen(*op.point)
    else:
        raise TestCaseError(f"cannot execute {op.kind}")
    if not device.app_alive:
        raise TestCaseError(
            f"app left foreground after {op} (crash or finish)")


@dataclass
class TestCase:
    """One generated test program."""

    package: str
    name: str
    operations: Sequence[Operation]

    @property
    def test_package(self) -> str:
        return f"{self.package}.test.{self.name}"

    # -- rendering --------------------------------------------------------------

    def to_robotium_java(self) -> str:
        """The Robotium template instantiated with this operation list."""
        lines = [
            f"package {self.package}.test;",
            "",
            "import com.robotium.solo.Solo;",
            "import android.test.ActivityInstrumentationTestCase2;",
            "",
            f"public class {self.name} extends "
            "ActivityInstrumentationTestCase2 {",
            "    private Solo solo;",
            "",
            "    public void setUp() throws Exception {",
            "        solo = new Solo(getInstrumentation(), getActivity());",
            "    }",
            "",
            "    public void testRun() throws Exception {",
        ]
        for op in self.operations:
            lines.append(f"        {self._java_statement(op)}")
        lines.extend(
            [
                "    }",
                "",
                "    public void tearDown() throws Exception {",
                "        solo.finishOpenedActivities();",
                "    }",
                "}",
            ]
        )
        return "\n".join(lines)

    def _java_statement(self, op: Operation) -> str:
        target = java_escape(op.target)
        if op.kind is OpKind.LAUNCH:
            return "getActivity();  // launch entry activity"
        if op.kind is OpKind.CLICK:
            return f'solo.clickOnView(solo.getView("{target}"));'
        if op.kind is OpKind.ENTER_TEXT:
            return (f'solo.enterText((EditText) solo.getView("{target}"), '
                    f'"{java_escape(op.value)}");')
        if op.kind is OpKind.SWIPE_OPEN:
            return "solo.drag(0, 540, 960, 960, 10);  // open drawer"
        if op.kind is OpKind.REFLECT:
            return (
                "// reflective fragment switch (Section VI-B template)\n"
                "        FragmentManager fm = (FragmentManager) activity"
                ".getClass().getMethod(\"getFragmentManager\")"
                ".invoke(activity);\n"
                "        fm.beginTransaction().replace(containerId, "
                f"(Fragment) Class.forName(\"{target}\")"
                ".newInstance()).commit();"
            )
        if op.kind is OpKind.FORCE_START:
            return (f'// adb shell am start -n {target}  (empty intent)')
        if op.kind is OpKind.BACK:
            return "solo.goBack();"
        if op.kind is OpKind.TAP:
            x, y = op.point
            return f"solo.clickOnScreen({x}, {y});"
        raise TestCaseError(f"cannot render {op.kind}")

    # -- execution ----------------------------------------------------------------

    def run(self, solo: "Solo", adb: "Adb") -> None:
        """Replay the operation list against the device.

        Raises :class:`TestCaseError` when an operation cannot be
        applied (missing widget, failed start) — the explorer treats
        that as a broken path and drops the item.
        """
        for op in self.operations:
            apply_operation(op, self.package, solo, adb)

    def install_and_run(self, solo: "Solo", adb: "Adb") -> None:
        """The full Section VI-A method 2 flow: package the script,
        install it, run it via ``am instrument``.  The registered runner
        reaches ``adb`` through a weak reference: ``adb`` holds the
        runner, and a strong one would make the pair a cycle."""
        adb_ref = weakref.ref(adb)
        adb.register_instrumentation(
            self.test_package, lambda: self.run(solo, adb_ref())
        )
        adb.am_instrument(self.test_package)
