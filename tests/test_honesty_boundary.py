"""The two-sided honesty boundary (docs/architecture.md), checked on the
source, not just stated.

* The tool under test (``repro.core``, ``repro.robotium``, ``repro.adb``)
  sees a screen: it never calls the ground-truth accessors
  (``Device.current_fragment_classes``, ``ApkPackage.runtime_spec``) and
  never touches the component blueprints an install builds from the
  spec, nor the click handler the runtime stores on each widget.
* Static analysis (``repro.static``, ``repro.smali``) parses text: it
  imports nothing from ``repro.corpus`` and no spec type from
  ``repro.apk.appspec`` (the framework ``*_BASE`` class names are plain
  strings and allowed), and never calls ``runtime_spec``.
"""

import ast
import pathlib
from typing import Iterator, List, Tuple

import repro
import repro.apk.appspec as appspec

SRC = pathlib.Path(repro.__file__).parent

TOOL_PACKAGES = ("core", "robotium", "adb")
STATIC_PACKAGES = ("static", "smali")

GROUND_TRUTH_CALLS = {"current_fragment_classes", "runtime_spec"}
BLUEPRINT_ATTRIBUTES = {"blueprints", "blueprint", "handler"}
BLUEPRINT_NAMES = {"AppBlueprints", "Blueprint", "WidgetRow",
                   "activity_blueprint", "fragment_blueprint"}

#: (module path under repro/, ground-truth name) -> why it is allowed.
ALLOWED = {
    # An oracle, not exploration: it replays a *finished* suite to
    # measure which components each test case covers.
    ("core/minimize.py", "current_fragment_classes"):
        "coverage oracle for suite minimization",
}

#: Spec types a static module could import from repro.apk.appspec or
#: its re-export in repro.apk.
SPEC_NAMES = {name for name, value in vars(appspec).items()
              if getattr(value, "__module__", None) == appspec.__name__}


def _modules(packages: Tuple[str, ...]) -> Iterator[Tuple[str, ast.AST]]:
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            yield relative, ast.parse(path.read_text(encoding="utf-8"),
                                      filename=relative)


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def tool_violations(module: str, tree: ast.AST) -> List[str]:
    """Ground-truth calls and blueprint uses, allowlist not applied."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                _called_name(node) in GROUND_TRUTH_CALLS:
            found.append(f"{module}: calls {_called_name(node)}")
        elif isinstance(node, ast.Attribute) and \
                node.attr in BLUEPRINT_ATTRIBUTES:
            found.append(f"{module}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in BLUEPRINT_NAMES:
                    found.append(f"{module}: imports {alias.name}")
    return found


def static_violations(module: str, tree: ast.AST) -> List[str]:
    """Corpus imports, spec-type imports and ``runtime_spec`` calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(("repro.corpus",
                                          "repro.apk.appspec")):
                    found.append(f"{module}: imports {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source == "repro.corpus" or source.startswith("repro.corpus."):
                found.append(f"{module}: imports {source}")
            elif source in ("repro.apk", "repro.apk.appspec"):
                for alias in node.names:
                    if alias.name in SPEC_NAMES or alias.name == "appspec":
                        found.append(f"{module}: imports {alias.name}")
        elif isinstance(node, ast.Call) and \
                _called_name(node) == "runtime_spec":
            found.append(f"{module}: calls runtime_spec")
    return found


def test_the_tool_never_reads_ground_truth_or_blueprints():
    allowed = {f"{module}: calls {name}" for module, name in ALLOWED}
    found = [violation for module, tree in _modules(TOOL_PACKAGES)
             for violation in tool_violations(module, tree)]
    assert [v for v in found if v not in allowed] == []
    # An allowlist entry whose call is gone must be deleted with it.
    assert allowed <= set(found)


def test_static_analysis_imports_no_spec_types_or_corpus():
    found = [violation for module, tree in _modules(STATIC_PACKAGES)
             for violation in static_violations(module, tree)]
    assert found == []


def test_the_checks_see_violations():
    tree = ast.parse(
        "from repro.apk.appspec import AppSpec, FRAGMENT_BASE\n"
        "from repro.corpus.synth import build_app\n"
        "from repro.android.app_runtime import AppBlueprints\n"
        "device.current_fragment_classes()\n"
        "apk.runtime_spec()\n"
        "process.blueprints.activity('Main')\n"
        "widget.handler\n")
    assert tool_violations("m", tree) == [
        "m: imports AppBlueprints",
        "m: calls current_fragment_classes",
        "m: calls runtime_spec",
        "m: .handler",
        "m: .blueprints",
    ]
    assert static_violations("m", tree) == [
        "m: imports AppSpec",
        "m: imports repro.corpus.synth",
        "m: calls runtime_spec",
    ]
