"""APK consistency checking.

``lint_apk`` validates a compiled package the way ``aapt``/``apkanalyzer``
would: every manifest Activity must have a class, every ``const``
resource operand must exist in the resource table, every inflated layout
must exist, listener inner classes must belong to a declared outer
class, and the launcher must be unique.  The corpus generators run
thousands of synthetic APKs through the pipeline; this is the guard that
keeps them honest, and it is exposed publicly for users authoring their
own specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.apk.manifest import Manifest
from repro.apk.package import ApkPackage
from repro.errors import PackedApkError
from repro.smali.apktool import Apktool


@dataclass(frozen=True)
class LintFinding:
    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class LintReport:
    findings: List[LintFinding] = field(default_factory=list)

    def add(self, severity: str, code: str, message: str) -> None:
        self.findings.append(LintFinding(severity, code, message))

    @property
    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        if not self.findings:
            return "lint: clean"
        return "\n".join(str(f) for f in self.findings)


def lint_apk(apk: ApkPackage) -> LintReport:
    """Validate one package; packed APKs only get the packed warning."""
    report = LintReport()
    try:
        decoded = Apktool().decode(apk)
    except PackedApkError:
        report.add("warning", "packed",
                   f"{apk.package}: packed DEX; static checks skipped")
        return report

    class_names = {cls.name for cls in decoded.classes}

    # 1. Manifest components must exist as classes.
    for decl in decoded.manifest.activities:
        if decl.name not in class_names:
            report.add("error", "missing-class",
                       f"manifest declares {decl.name} but no class exists")

    # 2. Exactly one launcher.
    launchers = [d for d in decoded.manifest.activities if d.is_launcher]
    if len(launchers) != 1:
        report.add("error", "launcher",
                   f"expected exactly 1 launcher, found {len(launchers)}")

    # 3. Every const operand that looks like a resource ID must resolve.
    resources = decoded.resources
    for cls in decoded.classes:
        for method in cls.methods:
            for instruction in method.instructions:
                if instruction.opcode != "const":
                    continue
                value = instruction.args[-1]
                if not isinstance(value, int) or not (
                    0x7F000000 <= value < 0x80000000
                ):
                    continue
                try:
                    resources.reverse(value)
                except Exception:
                    report.add(
                        "error", "dangling-resource",
                        f"{cls.name}.{method.name} references undefined "
                        f"resource {value:#010x}",
                    )

    # 4. Inflated layouts must exist as layout files.
    layout_names = set(decoded.layouts)
    for _etype, name, _rid in decoded.resources.entries("layout"):
        if name not in layout_names:
            report.add("warning", "missing-layout",
                       f"resource R.layout.{name} has no layout file")

    # 5. Inner classes must have their outer class present.
    for cls in decoded.classes:
        if cls.is_inner and cls.outer_name not in class_names:
            report.add("error", "orphan-inner",
                       f"{cls.name} has no outer class {cls.outer_name}")

    # 6. Layout widget IDs must be registered resources.
    for layout_name, layout in decoded.layouts.items():
        for widget_id in layout.widget_ids():
            if decoded.resources.get("id", widget_id) is None:
                report.add("error", "unregistered-id",
                           f"layout {layout_name} uses unregistered id "
                           f"{widget_id!r}")
    return report
