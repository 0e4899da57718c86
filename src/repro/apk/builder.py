"""Compile an :class:`AppSpec` into an :class:`ApkPackage`.

This is the stand-in for the app developer's toolchain (javac + d8 +
aapt): it lowers the declarative spec into real artifacts — manifest XML,
layout XML, a resource table and smali classes whose instruction
sequences contain exactly the idioms the paper's Algorithm 1 greps for
(``new Intent(ctx, Cls.class)``, ``FragmentTransaction.replace`` chains,
``F.newInstance()`` …) as well as the idioms it *cannot* resolve
(runtime-built action strings, ``Class.forName`` on mangled names,
fragments attached without a FragmentManager).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.apk.appspec import (
    Action,
    ActivitySpec,
    AppSpec,
    Chain,
    Crash,
    FinishActivity,
    FragmentFactory,
    FragmentSpec,
    InvokeApi,
    Noop,
    OpenDrawer,
    ShowDialog,
    ShowFragment,
    ShowPopupMenu,
    StartActivity,
    StartActivityByAction,
    SubmitForm,
    ToggleWidget,
    WidgetSpec,
)
from repro.apk.layout import Layout, LayoutElement
from repro.apk.manifest import (
    ACTION_MAIN,
    CATEGORY_LAUNCHER,
    ActivityDecl,
    IntentFilter,
    Manifest,
)
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.smali.assemble import (
    METHOD_END,
    bare_line,
    branch_line,
    class_header,
    class_operand_line,
    class_text,
    const_line,
    const_string_line,
    field_access_line,
    goto_line,
    invoke_line,
    label_line,
    method_open,
    register_line,
)
from repro.smali.model import MethodRef, jvm_type, method_descriptor

_VIEW = "android.view.View"
_INTENT = "android.content.Intent"
_LISTENER = "android.view.View$OnClickListener"
_FRAGMENT_MANAGER = "android.app.FragmentManager"
_SUPPORT_FRAGMENT_MANAGER = "android.support.v4.app.FragmentManager"
_FRAGMENT_TRANSACTION = "android.app.FragmentTransaction"
_SUPPORT_FRAGMENT_TRANSACTION = "android.support.v4.app.FragmentTransaction"


def _platform_ref(cls: str, name: str, params: Tuple[str, ...] = (),
                  ret: str = "void") -> str:
    return MethodRef(cls, name, params, ret).descriptor()


# The platform's descriptors and references, rendered once at import.
# An app's own are rendered from its class descriptors, each converted
# once per build.
_OBJECT_T = jvm_type("java.lang.Object")
_STRING_T = jvm_type("java.lang.String")
_CLASS_T = jvm_type("java.lang.Class")
_BUNDLE_T = jvm_type("android.os.Bundle")
_VIEW_T = jvm_type(_VIEW)
_INTENT_T = jvm_type(_INTENT)
_LISTENER_T = jvm_type(_LISTENER)
_ACTIVITY_T = jvm_type("android.app.Activity")
_FRAGMENT_T = jvm_type("android.app.Fragment")
_ON_CREATE_VIEW_PARAMS = "".join(map(jvm_type, (
    "android.view.LayoutInflater", "android.view.ViewGroup",
    "android.os.Bundle")))

_RETURN_VOID = bare_line("return-void")
_NOP = bare_line("nop")
_MOVE_V0, _MOVE_V1, _MOVE_V2, _MOVE_V3 = (
    register_line("move-result-object", f"v{index}") for index in range(4))
_NEW_INTENT = class_operand_line("new-instance", "v0", _INTENT_T)
_GET_EXTRAS = invoke_line("invoke-virtual", "v0", _platform_ref(
    _INTENT, "getExtras", (), "android.os.Bundle"))
_INFLATE = invoke_line("invoke-virtual", "p1, v0, p2", _platform_ref(
    "android.view.LayoutInflater", "inflate",
    ("int", "android.view.ViewGroup"), _VIEW))
_NEW_LINEAR_LAYOUT = class_operand_line(
    "new-instance", "v1", jvm_type("android.widget.LinearLayout"))
_INIT_LINEAR_LAYOUT = invoke_line("invoke-direct", "v1, p0", _platform_ref(
    "android.widget.LinearLayout", "<init>", ("java.lang.Object",)))
_FIND_VIEW_IN_VIEW = invoke_line("invoke-virtual", "v1, v2", _platform_ref(
    _VIEW, "findViewById", ("int",), _VIEW))
_NEW_BUTTON = class_operand_line(
    "new-instance", "v3", jvm_type("android.widget.Button"))
_SET_ON_CLICK = invoke_line("invoke-virtual", "v3, v4", _platform_ref(
    _VIEW, "setOnClickListener", (_LISTENER,)))
_OBJECT_INIT = invoke_line("invoke-direct", "p0", _platform_ref(
    "java.lang.Object", "<init>"))
_OPEN_DRAWER = (
    const_line("const/4", "v0", 3),  # GravityCompat.START
    invoke_line("invoke-virtual", "v5, v0", _platform_ref(
        "android.support.v4.widget.DrawerLayout", "openDrawer", ("int",))))
_DIALOG = "android.app.AlertDialog$Builder"
_NEW_DIALOG = (
    class_operand_line("new-instance", "v0", jvm_type(_DIALOG)),
    invoke_line("invoke-direct", "v0, v5", _platform_ref(
        _DIALOG, "<init>", ("android.content.Context",))))
_SHOW_DIALOG = (
    invoke_line("invoke-virtual", "v0, v1", _platform_ref(
        _DIALOG, "setMessage", ("java.lang.String",), _DIALOG)),
    invoke_line("invoke-virtual", "v0", _platform_ref(
        _DIALOG, "show", (), "android.app.AlertDialog")))
_SHOW_POPUP = (
    class_operand_line("new-instance", "v0",
                       jvm_type("android.widget.PopupMenu")),
    invoke_line("invoke-direct", "v0, v5", _platform_ref(
        "android.widget.PopupMenu", "<init>", ("android.content.Context",))),
    invoke_line("invoke-virtual", "v0", _platform_ref(
        "android.widget.PopupMenu", "show")))
_NEW_RUNTIME_EXCEPTION = class_operand_line(
    "new-instance", "v0", jvm_type("java.lang.RuntimeException"))
_INIT_RUNTIME_EXCEPTION = invoke_line("invoke-direct", "v0, v1", _platform_ref(
    "java.lang.RuntimeException", "<init>", ("java.lang.String",)))
_DISPATCH_UNCAUGHT = invoke_line("invoke-static", "v0", _platform_ref(
    "java.lang.Thread", "dispatchUncaughtException",
    ("java.lang.RuntimeException",)))
_FINISH_ACTIVITY = invoke_line("invoke-virtual", "v5", _platform_ref(
    "android.app.Activity", "finish"))
_SET_CHECKED = (
    const_line("const/4", "v1", 1),
    invoke_line("invoke-virtual", "v0, v1", _platform_ref(
        "android.widget.CompoundButton", "setChecked", ("boolean",))))
_GET_FORM_TEXT = (
    class_operand_line("check-cast", "v0",
                       jvm_type("android.widget.EditText")),
    invoke_line("invoke-virtual", "v0", _platform_ref(
        "android.widget.EditText", "getText", (), "java.lang.CharSequence")))
_INIT_INTENT_FOR_ACTION = invoke_line("invoke-direct", "v0, v1", _platform_ref(
    _INTENT, "<init>", ("java.lang.String",)))
_INIT_INTENT_FOR_CLASS = _platform_ref(
    _INTENT, "<init>", ("android.content.Context", "java.lang.Class"))
_GET_SYSTEM_SERVICE = invoke_line("invoke-virtual", "p0, v0", _platform_ref(
    "android.content.Context", "getSystemService", ("java.lang.String",),
    "java.lang.Object"))
_CLASS_FOR_NAME = invoke_line("invoke-static", "v0", _platform_ref(
    "java.lang.Class", "forName", ("java.lang.String",), "java.lang.Class"))
_RETURN_V1 = register_line("return-object", "v1")


class _FragmentApi(NamedTuple):
    """The FragmentManager flavour an activity's transactions use."""

    getter: str
    manager: str  # descriptor
    transaction: str  # descriptor
    begin: str  # the ``beginTransaction`` line


def _fragment_api(getter: str, manager: str, transaction: str) -> _FragmentApi:
    return _FragmentApi(
        getter, jvm_type(manager), jvm_type(transaction),
        invoke_line("invoke-virtual", "v0", _platform_ref(
            manager, "beginTransaction", (), transaction)))


_FRAGMENT_APIS = {
    False: _fragment_api("getFragmentManager", _FRAGMENT_MANAGER,
                         _FRAGMENT_TRANSACTION),
    True: _fragment_api("getSupportFragmentManager",
                        _SUPPORT_FRAGMENT_MANAGER,
                        _SUPPORT_FRAGMENT_TRANSACTION),
}
_TRANSACTION_PARAMS = "I" + _FRAGMENT_T


def mangle(name: str) -> str:
    """The 'obfuscation' applied to runtime-resolved class/action names.

    A simple reversible transform (string reversal).  What matters is that
    the static analyzer cannot regex-match the original identifier out of
    the ``const-string`` — the same situation as a proguarded
    ``Class.forName(decrypt(...))`` in a real app.
    """
    return name[::-1]


def build_apk(spec: AppSpec) -> ApkPackage:
    """Compile ``spec`` into a package with text artifacts."""
    builder = _Builder(spec)
    return builder.build()


class _Owner(NamedTuple):
    """The activity or fragment whose code, listeners included, is being
    lowered."""

    name: str  # java dotted
    type: str  # its descriptor
    spec: Union[ActivitySpec, FragmentSpec]

    @property
    def is_activity(self) -> bool:
        return isinstance(self.spec, ActivitySpec)


class _Builder:
    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.resources = ResourceTable(spec.package)
        # File name → the smali lines of each finished class, in the
        # order the decoder reads them back.
        self.classes: Dict[str, List[str]] = {}
        self.layouts: Dict[str, Layout] = {}
        self._needs_router = False
        # Inner-class numbering per outer class (Owner$1, Owner$2, ...).
        self._listener_seq: Dict[str, int] = {}
        self._branch_seq = 0
        self._router = jvm_type(f"{spec.package}.FragmentRouter")
        self._decode_action = method_descriptor(
            jvm_type(f"{spec.package}.ActionCodec"), "decode",
            _STRING_T, _STRING_T)

    # -- top level ----------------------------------------------------------

    def build(self) -> ApkPackage:
        self._assign_resources()
        manifest = self._build_manifest()
        for activity in self.spec.activities:
            self._compile_activity(activity)
        for fragment in self.spec.fragments:
            self._compile_fragment(fragment)
        if self._needs_router:
            self._add_class(self._router, self._router_class())
        smali_files = {name: class_text(lines)
                       for name, lines in self.classes.items()}
        layout_files = {
            f"res/layout/{name}.xml": layout.to_xml()
            for name, layout in sorted(self.layouts.items())
        }
        return ApkPackage(
            package=self.spec.package,
            manifest_xml=manifest.to_xml(),
            smali_files=smali_files,
            layout_files=layout_files,
            public_xml=self.resources.to_public_xml(),
            packed=self.spec.packed,
            _spec=self.spec,
        )

    def _add_class(self, descriptor: str, lines: List[str]) -> None:
        """File a finished class under the path apktool would write."""
        self.classes[_smali_path(descriptor)] = lines

    # -- resources & layouts -------------------------------------------------

    def _assign_resources(self) -> None:
        for activity in self.spec.activities:
            layout = Layout(activity.layout_name)
            self.resources.define("layout", activity.layout_name)
            if activity.container_id:
                layout.container_id = activity.container_id
                self.resources.define("id", activity.container_id)
            for container, _fragment in activity.panes:
                if container not in layout.extra_containers \
                        and container != activity.container_id:
                    layout.extra_containers.append(container)
                    self.resources.define("id", container)
            for widget in activity.all_widgets():
                self.resources.define("id", widget.id)
                layout.add(_element(widget))
            self.layouts[activity.layout_name] = layout
        for fragment in self.spec.fragments:
            if not fragment.managed:
                # Dubsmash-style fragments build their views in code: no
                # layout resource, no stable widget IDs for Algorithm 3.
                continue
            layout = Layout(fragment.layout_name)
            self.resources.define("layout", fragment.layout_name)
            for widget in fragment.widgets:
                self.resources.define("id", widget.id)
                layout.add(_element(widget))
            self.layouts[fragment.layout_name] = layout

    def _build_manifest(self) -> Manifest:
        manifest = Manifest(self.spec.package)
        for activity in self.spec.activities:
            filters: List[IntentFilter] = []
            if activity.launcher:
                filters.append(
                    IntentFilter(actions=[ACTION_MAIN],
                                 categories=[CATEGORY_LAUNCHER])
                )
            for action in activity.intent_actions:
                filters.append(
                    IntentFilter(
                        actions=[action],
                        categories=["android.intent.category.DEFAULT"],
                    )
                )
            manifest.add_activity(
                ActivityDecl(
                    name=self.spec.qualify(activity.name),
                    exported=activity.exported or activity.launcher,
                    intent_filters=filters,
                )
            )
        return manifest

    # -- activities ----------------------------------------------------------

    def _compile_activity(self, activity: ActivitySpec) -> None:
        qualified = self.spec.qualify(activity.name)
        owner = _Owner(qualified, jvm_type(qualified), activity)
        base = jvm_type(activity.base_class)
        lines = class_header(owner.type, base, f"{activity.name}.java")
        lines += method_open("onCreate", _BUNDLE_T, "V")
        lines.append(invoke_line("invoke-super", "p0, p1", method_descriptor(
            base, "onCreate", _BUNDLE_T)))
        layout_id = self.resources.lookup("layout", activity.layout_name)
        lines.append(const_line("const", "v0", layout_id.value))
        lines.append(invoke_line("invoke-virtual", "p0, v0", method_descriptor(
            owner.type, "setContentView", "I")))
        if activity.requires_intent_extras:
            lines.append(invoke_line("invoke-virtual", "p0", method_descriptor(
                owner.type, "getIntent", "", _INTENT_T)))
            lines.append(_MOVE_V0)
            lines.append(_GET_EXTRAS)
        for api in activity.api_calls:
            self._emit_api_call(lines, api)
        if activity.initial_fragment:
            fragment = self.spec.fragment(activity.initial_fragment)
            self._emit_fragment_transaction(
                lines, host=owner.type, host_spec=activity,
                fragment=fragment,
                container_id=activity.container_id or "fragment_container",
                mode="replace", self_reg="p0",
            )
        for container, fragment_name in activity.panes:
            self._emit_fragment_transaction(
                lines, host=owner.type, host_spec=activity,
                fragment=self.spec.fragment(fragment_name),
                container_id=container, mode="add", self_reg="p0",
            )
        listeners = self._emit_listener_registrations(
            lines, owner, activity.all_widgets())
        if activity.crashes_on_launch:
            self._emit_crash(lines, "crash in onCreate")
        lines += (_RETURN_VOID, METHOD_END)
        self._add_class(owner.type, lines)
        for listener in listeners:
            self._add_class(*listener)

    # -- fragments -----------------------------------------------------------

    def _compile_fragment(self, fragment: FragmentSpec) -> None:
        qualified = self.spec.qualify(fragment.name)
        owner = _Owner(qualified, jvm_type(qualified), fragment)
        # Emit the intermediate inheritance hops first, innermost last.
        super_type = jvm_type(fragment.base_class)
        for base in fragment.intermediate_bases:
            base_type = jvm_type(self.spec.qualify(base))
            if _smali_path(base_type) not in self.classes:
                intermediate = class_header(base_type, super_type,
                                            f"{base}.java")
                intermediate += method_open("<init>", "", "V")
                intermediate += (
                    invoke_line("invoke-direct", "p0", method_descriptor(
                        super_type, "<init>")),
                    _RETURN_VOID, METHOD_END)
                self._add_class(base_type, intermediate)
            super_type = base_type
        lines = class_header(owner.type, super_type, f"{fragment.name}.java")
        lines += method_open("<init>", "", "V")
        lines += (
            invoke_line("invoke-direct", "p0", method_descriptor(
                super_type, "<init>")),
            _RETURN_VOID, METHOD_END)
        if fragment.factory is FragmentFactory.NEW_INSTANCE:
            params = _STRING_T if fragment.requires_args else ""
            lines += method_open("newInstance", params, owner.type,
                                 static=True)
            lines += (
                class_operand_line("new-instance", "v0", owner.type),
                invoke_line("invoke-direct", "v0", method_descriptor(
                    owner.type, "<init>")),
                register_line("return-object", "v0"), METHOD_END)
        lines += method_open("onCreateView", _ON_CREATE_VIEW_PARAMS, _VIEW_T)
        if fragment.managed:
            layout_id = self.resources.lookup("layout", fragment.layout_name)
            lines += (const_line("const", "v0", layout_id.value), _INFLATE,
                      _MOVE_V1)
        else:
            # Programmatic view construction: no layout resource involved.
            lines += (_NEW_LINEAR_LAYOUT, _INIT_LINEAR_LAYOUT)
        for api in fragment.api_calls:
            self._emit_api_call(lines, api)
        listeners = self._emit_listener_registrations(
            lines, owner, fragment.widgets)
        lines += (_RETURN_V1, METHOD_END)
        self._add_class(owner.type, lines)
        for listener in listeners:
            self._add_class(*listener)

    # -- listeners -----------------------------------------------------------

    def _emit_listener_registrations(
        self, lines: List[str], owner: _Owner, widgets: List[WidgetSpec],
    ) -> List[Tuple[str, List[str]]]:
        """findViewById + setOnClickListener for every handled widget,
        producing one ``Owner$N`` listener class per handler, as its
        descriptor and lines."""
        listeners: List[Tuple[str, List[str]]] = []
        for widget in widgets:
            if widget.on_click is None:
                continue
            listener, listener_type = self._next_listener(owner)
            rid = self.resources.get("id", widget.id)
            if rid is not None:
                lines.append(const_line("const", "v2", rid.value))
                if owner.is_activity:
                    lines.append(invoke_line(
                        "invoke-virtual", "p0, v2", method_descriptor(
                            owner.type, "findViewById", "I", _VIEW_T)))
                else:
                    lines.append(_FIND_VIEW_IN_VIEW)
                lines.append(_MOVE_V3)
            else:
                lines.append(_NEW_BUTTON)
            lines += (
                class_operand_line("new-instance", "v4", listener_type),
                invoke_line("invoke-direct", "v4, p0", method_descriptor(
                    listener_type, "<init>", owner.type)),
                _SET_ON_CLICK)
            listeners.append((listener_type, self._listener_class(
                listener, listener_type, widget.on_click, owner)))
        return listeners

    def _next_listener(self, owner: _Owner) -> Tuple[str, str]:
        """The next ``Owner$N`` listener's name and descriptor."""
        seq = self._listener_seq.get(owner.name, 0) + 1
        self._listener_seq[owner.name] = seq
        return f"{owner.name}${seq}", f"{owner.type[:-1]}${seq};"

    def _listener_class(self, name: str, type_: str, action: Action,
                        owner: _Owner) -> List[str]:
        simple_owner = owner.name.rsplit(".", 1)[-1]
        lines = class_header(type_, _OBJECT_T, f"{simple_owner}.java",
                             (_LISTENER_T,), (("this$0", owner.type, False),))
        # The field reference spells its classes as java names, not
        # descriptors; the analysis never reads past the opcode.
        outer_field = f"{name}->this$0:{owner.name}"
        lines += method_open("<init>", owner.type, "V")
        lines += (field_access_line("iput-object", "p1", "p0", outer_field),
                  _OBJECT_INIT, _RETURN_VOID, METHOD_END)
        lines += method_open("onClick", _VIEW_T, "V")
        lines.append(field_access_line("iget-object", "v5", "p0", outer_field))
        self._lower_action(lines, action, owner)
        lines += (_RETURN_VOID, METHOD_END)
        # Menu items and dialog buttons carry their own handlers — each
        # becomes a further inner class (OnMenuItemClickListener /
        # DialogInterface.OnClickListener in real code).  Without this,
        # transitions reachable only through popups would not even exist
        # statically; with it, Algorithm 1 finds the edge while the
        # dynamic phase (which dismisses popups) still cannot fire it.
        for nested in _nested_handler_actions(action):
            nested_name, nested_type = self._next_listener(owner)
            self._add_class(nested_type, self._listener_class(
                nested_name, nested_type, nested, owner))
        return lines

    # -- action lowering -------------------------------------------------------

    def _lower_action(self, lines: List[str], action: Action,
                      owner: _Owner) -> None:
        outer = owner.type
        if isinstance(action, Noop):
            lines.append(_NOP)
        elif isinstance(action, Chain):
            for child in action.actions:
                self._lower_action(lines, child, owner)
        elif isinstance(action, StartActivity):
            self._emit_start_activity(lines, action, owner)
        elif isinstance(action, StartActivityByAction):
            self._emit_start_by_action(lines, action, owner)
        elif isinstance(action, ShowFragment):
            fragment = self.spec.fragment(action.fragment)
            host_spec = self._host_activity_spec(owner)
            self._emit_fragment_transaction(
                lines, host=self._host_type(owner, host_spec),
                host_spec=host_spec, fragment=fragment,
                container_id=action.container_id, mode=action.mode,
                self_reg="v5", via_get_activity=not owner.is_activity,
                add_to_back_stack=action.add_to_back_stack,
            )
        elif isinstance(action, OpenDrawer):
            lines += _OPEN_DRAWER
        elif isinstance(action, ShowDialog):
            lines += _NEW_DIALOG
            lines.append(const_string_line("v1", action.message))
            lines += _SHOW_DIALOG
        elif isinstance(action, ShowPopupMenu):
            lines += _SHOW_POPUP
        elif isinstance(action, InvokeApi):
            self._emit_api_call(lines, action.api)
        elif isinstance(action, Crash):
            self._emit_crash(lines, action.reason)
            lines.append(_DISPATCH_UNCAUGHT)
        elif isinstance(action, FinishActivity):
            if owner.is_activity:
                lines.append(invoke_line("invoke-virtual", "v5",
                                         method_descriptor(outer, "finish")))
            else:
                self._emit_get_activity(lines, outer, "v5", "v5")
                lines.append(_FINISH_ACTIVITY)
        elif isinstance(action, ToggleWidget):
            rid = self.resources.get("id", action.widget_id)
            if rid is not None:
                self._emit_find_view(lines, outer, rid.value)
            lines += _SET_CHECKED
        elif isinstance(action, SubmitForm):
            for field_id in action.field_ids():
                rid = self.resources.get("id", field_id)
                if rid is not None:
                    self._emit_find_view(lines, outer, rid.value)
                    lines += _GET_FORM_TEXT
            # Real conditional lowering; Algorithm 1's line scan is
            # flow-insensitive, so edges in both branches are found.
            self._branch_seq += 1
            fail_label = f"cond_fail_{self._branch_seq}"
            end_label = f"cond_end_{self._branch_seq}"
            lines += (
                invoke_line("invoke-virtual", "v5", method_descriptor(
                    outer, "validateForm", "", "Z")),
                register_line("move-result", "v0"),
                branch_line("if-eqz", "v0", fail_label))
            self._lower_action(lines, action.on_success, owner)
            lines += (goto_line(end_label), label_line(fail_label))
            self._lower_action(lines, action.on_failure, owner)
            lines.append(label_line(end_label))
        else:
            raise TypeError(f"unhandled action type: {type(action).__name__}")

    def _emit_find_view(self, lines: List[str], outer: str, rid: int) -> None:
        """``v0 = outer.findViewById(rid)``, called on ``v5``."""
        lines += (
            const_line("const", "v0", rid),
            invoke_line("invoke-virtual", "v5, v0", method_descriptor(
                outer, "findViewById", "I", _VIEW_T)),
            _MOVE_V0)

    def _emit_start_activity(self, lines: List[str], action: StartActivity,
                             owner: _Owner) -> None:
        context_reg = self._emit_context(lines, owner)
        lines.append(_NEW_INTENT)
        if action.dynamic:
            # Class resolved at runtime: helper method + Class.forName on a
            # mangled literal, so no const-class reaches the analyzer.
            lines += (
                invoke_line("invoke-static", "", method_descriptor(
                    self._ensure_resolver(), "resolveTarget", "", _CLASS_T)),
                _MOVE_V1)
        else:
            lines.append(class_operand_line(
                "const-class", "v1",
                jvm_type(self.spec.qualify(action.target))))
        lines.append(invoke_line("invoke-direct", f"v0, {context_reg}, v1",
                                 _INIT_INTENT_FOR_CLASS))
        self._emit_start(lines, owner, context_reg)

    def _emit_start_by_action(self, lines: List[str],
                              action: StartActivityByAction,
                              owner: _Owner) -> None:
        context_reg = self._emit_context(lines, owner)
        lines.append(_NEW_INTENT)
        if action.dynamic:
            lines += (
                const_string_line("v1", mangle(action.action)),
                invoke_line("invoke-static", "v1", self._decode_action),
                _MOVE_V1)
            self._needs_router = True
        else:
            lines.append(const_string_line("v1", action.action))
        lines.append(_INIT_INTENT_FOR_ACTION)
        self._emit_start(lines, owner, context_reg)

    def _emit_context(self, lines: List[str], owner: _Owner) -> str:
        """The register holding the Context that starts an activity."""
        if owner.is_activity:
            return "v5"
        self._emit_get_activity(lines, owner.type, "v5", "v6")
        return "v6"

    def _emit_start(self, lines: List[str], owner: _Owner,
                    context_reg: str) -> None:
        starter = owner.type if owner.is_activity else _ACTIVITY_T
        lines.append(invoke_line(
            "invoke-virtual", f"{context_reg}, v0", method_descriptor(
                starter, "startActivity", _INTENT_T)))

    def _emit_get_activity(self, lines: List[str], outer: str,
                           src_reg: str, dest_reg: str) -> None:
        lines += (
            invoke_line("invoke-virtual", src_reg, method_descriptor(
                outer, "getActivity", "", _ACTIVITY_T)),
            register_line("move-result-object", dest_reg))

    # -- fragment transactions -------------------------------------------------

    def _emit_fragment_transaction(
        self,
        lines: List[str],
        host: str,
        host_spec: Optional[ActivitySpec],
        fragment: FragmentSpec,
        container_id: str,
        mode: str,
        self_reg: str,
        via_get_activity: bool = False,
        add_to_back_stack: bool = False,
    ) -> None:
        """A transaction showing ``fragment``, run against the activity
        whose descriptor is ``host``."""
        qualified_fragment = self.spec.qualify(fragment.name)
        fragment_type = jvm_type(qualified_fragment)
        host_reg = self_reg
        if via_get_activity:
            self._emit_get_activity(lines, host, self_reg, "v6")
            host_reg = "v6"
        if not fragment.managed:
            # Attached straight into the view hierarchy (no manager): the
            # `new F()` is still statically visible, but there is no
            # FragmentTransaction to grep or to reflect on at runtime.
            lines += (
                class_operand_line("new-instance", "v2", fragment_type),
                invoke_line("invoke-direct", "v2", method_descriptor(
                    fragment_type, "<init>")),
                invoke_line("invoke-virtual", f"{host_reg}, v2",
                            method_descriptor(host, "attachDirect",
                                              fragment_type)))
            return
        api = _FRAGMENT_APIS[host_spec is not None
                             and host_spec.uses_support_library]
        lines += (
            invoke_line("invoke-virtual", host_reg, method_descriptor(
                host, api.getter, "", api.manager)),
            _MOVE_V0, api.begin, _MOVE_V1)
        if fragment.factory is FragmentFactory.NEW:
            lines += (
                class_operand_line("new-instance", "v2", fragment_type),
                invoke_line("invoke-direct", "v2", method_descriptor(
                    fragment_type, "<init>")))
        elif fragment.factory is FragmentFactory.NEW_INSTANCE:
            if fragment.requires_args:
                lines += (
                    const_string_line("v3", "arg"),
                    invoke_line("invoke-static", "v3", method_descriptor(
                        fragment_type, "newInstance", _STRING_T,
                        fragment_type)))
            else:
                lines.append(invoke_line(
                    "invoke-static", "", method_descriptor(
                        fragment_type, "newInstance", "", fragment_type)))
            lines.append(_MOVE_V2)
        else:  # CUSTOM: routed through a string the analyzer cannot read.
            self._needs_router = True
            lines += (
                const_string_line("v3", mangle(qualified_fragment)),
                invoke_line("invoke-static", "v3", method_descriptor(
                    self._router, "route", _STRING_T, _FRAGMENT_T)),
                _MOVE_V2)
        rid = self.resources.define("id", container_id)
        transaction = api.transaction
        lines += (
            const_line("const", "v3", rid.value),
            invoke_line("invoke-virtual", "v1, v3, v2", method_descriptor(
                transaction, mode, _TRANSACTION_PARAMS, transaction)))
        if add_to_back_stack:
            lines += (
                const_string_line("v4", "tx"),
                invoke_line("invoke-virtual", "v1, v4", method_descriptor(
                    transaction, "addToBackStack", _STRING_T, transaction)))
        lines.append(invoke_line("invoke-virtual", "v1", method_descriptor(
            transaction, "commit", "", "I")))

    # -- misc helpers ------------------------------------------------------------

    def _emit_api_call(self, lines: List[str], api: str) -> None:
        # Imported here: the static package sits above the smali layer
        # this compiler feeds, so a module-level import would be cyclic.
        from repro.static.sensitive import method_for_api

        ref = method_for_api(api)
        lines += (
            const_string_line("v0", ref.cls.rsplit(".", 1)[-1].lower()),
            _GET_SYSTEM_SERVICE, _MOVE_V1,
            class_operand_line("check-cast", "v1", jvm_type(ref.cls)))
        regs = ["v1"]
        for index, param in enumerate(ref.params):
            reg = f"v{index + 2}"
            if param == "java.lang.String":
                lines.append(const_string_line(reg, "value"))
            else:
                lines.append(const_line("const/4", reg, 0))
            regs.append(reg)
        lines.append(invoke_line("invoke-virtual", ", ".join(regs),
                                 ref.descriptor()))

    def _ensure_resolver(self) -> str:
        """The class of the static ``resolveTarget()`` helper doing
        Class.forName on a mangled literal — the statically-opaque
        navigation idiom."""
        self._needs_router = True
        return self._router

    def _router_class(self) -> List[str]:
        lines = class_header(self._router, _OBJECT_T, "FragmentRouter.java")
        lines += method_open("route", _STRING_T, _FRAGMENT_T, static=True)
        lines += (invoke_line("invoke-static", "p0", self._decode_action),
                  _MOVE_V0, _CLASS_FOR_NAME, _MOVE_V1, _RETURN_V1, METHOD_END)
        lines += method_open("resolveTarget", "", _CLASS_T, static=True)
        lines += (const_string_line("v0", "gerat.devloser"),
                  _CLASS_FOR_NAME, _MOVE_V1, _RETURN_V1, METHOD_END)
        lines += method_open("decode", _STRING_T, _STRING_T, static=True)
        lines += (register_line("return-object", "p0"), METHOD_END)
        return lines

    def _host_activity_spec(self, owner: _Owner) -> Optional[ActivitySpec]:
        if isinstance(owner.spec, ActivitySpec):
            return owner.spec
        # A fragment's transaction runs against whichever activity hosts
        # it; for code generation we pick the first declared host.
        for activity in self.spec.activities:
            if owner.spec.name in activity.hosted_fragments:
                return activity
        return None

    def _host_type(self, owner: _Owner,
                   host_spec: Optional[ActivitySpec]) -> str:
        if owner.is_activity:
            return owner.type
        if host_spec is not None:
            return jvm_type(self.spec.qualify(host_spec.name))
        return _ACTIVITY_T

    def _emit_crash(self, lines: List[str], reason: str) -> None:
        lines += (_NEW_RUNTIME_EXCEPTION, const_string_line("v1", reason),
                  _INIT_RUNTIME_EXCEPTION)


def _smali_path(descriptor: str) -> str:
    """``Lcom/foo/Bar;`` → ``com/foo/Bar.smali``."""
    return descriptor[1:-1] + ".smali"


def _nested_handler_actions(action: Action) -> List[Action]:
    """Handlers attached to popup items / dialog buttons inside an
    action, one level deep (recursion happens at the listener level)."""
    out: List[Action] = []
    if isinstance(action, (ShowPopupMenu, ShowDialog)):
        widgets = action.items if isinstance(action, ShowPopupMenu) \
            else action.buttons
        for widget in widgets:
            if widget.on_click is not None:
                out.append(widget.on_click)
    elif isinstance(action, Chain):
        for child in action.actions:
            out.extend(_nested_handler_actions(child))
    elif isinstance(action, SubmitForm):
        out.extend(_nested_handler_actions(action.on_success))
        out.extend(_nested_handler_actions(action.on_failure))
    return out


def _element(widget: WidgetSpec) -> LayoutElement:
    return LayoutElement(
        widget_id=widget.id,
        kind=widget.kind,
        text=widget.text,
        clickable=widget.on_click is not None or widget.kind.clickable,
    )
