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

from typing import Dict, List, Optional

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
    SUPPORT_ACTIVITY_BASE,
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
from repro.smali.assemble import print_class
from repro.smali.model import (
    MethodRef,
    SmaliClass,
    SmaliField,
    SmaliMethod,
    new_descriptor_table,
    new_emission_table,
)

_VIEW = "android.view.View"
_INTENT = "android.content.Intent"
_LISTENER = "android.view.View$OnClickListener"
_FRAGMENT_MANAGER = "android.app.FragmentManager"
_SUPPORT_FRAGMENT_MANAGER = "android.support.v4.app.FragmentManager"
_FRAGMENT_TRANSACTION = "android.app.FragmentTransaction"
_SUPPORT_FRAGMENT_TRANSACTION = "android.support.v4.app.FragmentTransaction"


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


class _Builder:
    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.resources = ResourceTable(spec.package)
        self.classes: List[SmaliClass] = []
        self.layouts: Dict[str, Layout] = {}
        self._needs_router = False
        # Inner-class numbering per outer class (Owner$1, Owner$2, ...).
        self._listener_seq: Dict[str, int] = {}
        # This build's interning tables: the instructions and type
        # descriptors that name the app are kept here, freed with it.
        self._emitted = new_emission_table()
        self._descriptors = new_descriptor_table()

    # -- top level ----------------------------------------------------------

    def build(self) -> ApkPackage:
        self._assign_resources()
        manifest = self._build_manifest()
        for activity in self.spec.activities:
            self._compile_activity(activity)
        for fragment in self.spec.fragments:
            self._compile_fragment(fragment)
        if self._needs_router:
            self.classes.append(self._router_class())
        smali_files = {c.file_name: print_class(c, self._descriptors)
                       for c in self.classes}
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

    def _add_method(self, cls: SmaliClass, name: str, **fields) -> SmaliMethod:
        """A new method of ``cls`` that interns into this build's table."""
        return cls.add_method(
            SmaliMethod(name, emission_table=self._emitted, **fields))

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
        cls = SmaliClass(
            name=qualified,
            super_name=activity.base_class,
            source=f"{activity.name}.java",
        )
        on_create = self._add_method(cls, "onCreate",
                                     params=["android.os.Bundle"])
        on_create.emit(
            "invoke-super", "p0", "p1",
            MethodRef(activity.base_class, "onCreate", ("android.os.Bundle",)),
        )
        layout_id = self.resources.lookup("layout", activity.layout_name)
        on_create.emit("const", "v0", layout_id.value)
        on_create.emit(
            "invoke-virtual", "p0", "v0",
            MethodRef(qualified, "setContentView", ("int",)),
        )
        if activity.requires_intent_extras:
            on_create.emit(
                "invoke-virtual", "p0",
                MethodRef(qualified, "getIntent", (), _INTENT),
            )
            on_create.emit("move-result-object", "v0")
            on_create.emit(
                "invoke-virtual", "v0",
                MethodRef(_INTENT, "getExtras", (), "android.os.Bundle"),
            )
        for api in activity.api_calls:
            self._emit_api_call(on_create, api)
        if activity.initial_fragment:
            fragment = self.spec.fragment(activity.initial_fragment)
            self._emit_fragment_transaction(
                on_create, host_cls=qualified, host_spec=activity,
                fragment=fragment,
                container_id=activity.container_id or "fragment_container",
                mode="replace", self_reg="p0",
            )
        for container, fragment_name in activity.panes:
            self._emit_fragment_transaction(
                on_create, host_cls=qualified, host_spec=activity,
                fragment=self.spec.fragment(fragment_name),
                container_id=container, mode="add", self_reg="p0",
            )
        listeners = self._emit_listener_registrations(
            cls, on_create, activity.all_widgets(), owner_is_activity=True,
            owner_spec=activity,
        )
        if activity.crashes_on_launch:
            self._emit_crash(on_create, "crash in onCreate")
        on_create.emit("return-void")
        self.classes.append(cls)
        self.classes.extend(listeners)

    # -- fragments -----------------------------------------------------------

    def _compile_fragment(self, fragment: FragmentSpec) -> None:
        qualified = self.spec.qualify(fragment.name)
        # Emit the intermediate inheritance hops first, innermost last.
        super_name = fragment.base_class
        for base in fragment.intermediate_bases:
            base_qualified = self.spec.qualify(base)
            if all(c.name != base_qualified for c in self.classes):
                intermediate = SmaliClass(
                    name=base_qualified, super_name=super_name,
                    source=f"{base}.java",
                )
                ctor = self._add_method(intermediate, "<init>")
                ctor.emit("invoke-direct", "p0", MethodRef(super_name, "<init>"))
                ctor.emit("return-void")
                self.classes.append(intermediate)
            super_name = base_qualified
        cls = SmaliClass(
            name=qualified, super_name=super_name,
            source=f"{fragment.name}.java",
        )
        ctor = self._add_method(cls, "<init>")
        ctor.emit("invoke-direct", "p0", MethodRef(super_name, "<init>"))
        ctor.emit("return-void")
        if fragment.factory is FragmentFactory.NEW_INSTANCE:
            params = ["java.lang.String"] if fragment.requires_args else []
            factory = self._add_method(cls, "newInstance", params=params,
                                       ret=qualified, static=True)
            factory.emit("new-instance", "v0", qualified)
            factory.emit("invoke-direct", "v0", MethodRef(qualified, "<init>"))
            factory.emit("return-object", "v0")
        on_create_view = self._add_method(
            cls, "onCreateView",
            params=["android.view.LayoutInflater", "android.view.ViewGroup",
                    "android.os.Bundle"],
            ret=_VIEW,
        )
        if fragment.managed:
            layout_id = self.resources.lookup("layout", fragment.layout_name)
            on_create_view.emit("const", "v0", layout_id.value)
            on_create_view.emit(
                "invoke-virtual", "p1", "v0", "p2",
                MethodRef("android.view.LayoutInflater", "inflate",
                          ("int", "android.view.ViewGroup"), _VIEW),
            )
            on_create_view.emit("move-result-object", "v1")
        else:
            # Programmatic view construction: no layout resource involved.
            on_create_view.emit("new-instance", "v1", "android.widget.LinearLayout")
            on_create_view.emit(
                "invoke-direct", "v1", "p0",
                MethodRef("android.widget.LinearLayout", "<init>",
                          ("java.lang.Object",)),
            )
        for api in fragment.api_calls:
            self._emit_api_call(on_create_view, api)
        listeners = self._emit_listener_registrations(
            cls, on_create_view, fragment.widgets, owner_is_activity=False,
            owner_spec=fragment,
        )
        on_create_view.emit("return-object", "v1")
        self.classes.append(cls)
        self.classes.extend(listeners)

    # -- listeners -----------------------------------------------------------

    def _emit_listener_registrations(
        self,
        owner: SmaliClass,
        method: SmaliMethod,
        widgets: List[WidgetSpec],
        owner_is_activity: bool,
        owner_spec: object,
    ) -> List[SmaliClass]:
        """findViewById + setOnClickListener for every handled widget,
        producing one ``Owner$N`` listener class per handler."""
        listeners: List[SmaliClass] = []
        for widget in widgets:
            if widget.on_click is None:
                continue
            listener_name = self._next_listener_name(owner.name)
            rid = self.resources.get("id", widget.id)
            if rid is not None:
                method.emit("const", "v2", rid.value)
                if owner_is_activity:
                    method.emit(
                        "invoke-virtual", "p0", "v2",
                        MethodRef(owner.name, "findViewById", ("int",), _VIEW),
                    )
                else:
                    method.emit(
                        "invoke-virtual", "v1", "v2",
                        MethodRef(_VIEW, "findViewById", ("int",), _VIEW),
                    )
                method.emit("move-result-object", "v3")
            else:
                method.emit("new-instance", "v3", "android.widget.Button")
            method.emit("new-instance", "v4", listener_name)
            method.emit(
                "invoke-direct", "v4", "p0",
                MethodRef(listener_name, "<init>", (owner.name,)),
            )
            method.emit(
                "invoke-virtual", "v3", "v4",
                MethodRef(_VIEW, "setOnClickListener", (_LISTENER,)),
            )
            listeners.append(
                self._listener_class(
                    listener_name, owner, widget.on_click,
                    owner_is_activity, owner_spec,
                )
            )
        return listeners

    def _next_listener_name(self, owner_name: str) -> str:
        seq = self._listener_seq.get(owner_name, 0) + 1
        self._listener_seq[owner_name] = seq
        return f"{owner_name}${seq}"

    def _listener_class(
        self,
        name: str,
        owner: SmaliClass,
        action: Action,
        owner_is_activity: bool,
        owner_spec: object,
    ) -> SmaliClass:
        cls = SmaliClass(
            name=name,
            super_name="java.lang.Object",
            interfaces=[_LISTENER],
            source=f"{owner.simple_name}.java",
        )
        cls.fields.append(SmaliField(name="this$0", type=owner.name))
        ctor = self._add_method(cls, "<init>", params=[owner.name])
        ctor.emit("iput-object", "p1", "p0",
                  f"{name}->this$0:{owner.name}")
        ctor.emit("invoke-direct", "p0", MethodRef("java.lang.Object", "<init>"))
        ctor.emit("return-void")
        on_click = self._add_method(cls, "onClick", params=[_VIEW])
        on_click.emit("iget-object", "v5", "p0",
                      f"{name}->this$0:{owner.name}")
        self._lower_action(
            on_click, action, outer_cls=owner.name,
            outer_is_activity=owner_is_activity, owner_spec=owner_spec,
        )
        on_click.emit("return-void")
        # Menu items and dialog buttons carry their own handlers — each
        # becomes a further inner class (OnMenuItemClickListener /
        # DialogInterface.OnClickListener in real code).  Without this,
        # transitions reachable only through popups would not even exist
        # statically; with it, Algorithm 1 finds the edge while the
        # dynamic phase (which dismisses popups) still cannot fire it.
        for nested in _nested_handler_actions(action):
            nested_name = self._next_listener_name(owner.name)
            self.classes.append(
                self._listener_class(
                    nested_name, owner, nested, owner_is_activity, owner_spec
                )
            )
        return cls

    # -- action lowering -------------------------------------------------------

    def _lower_action(
        self,
        method: SmaliMethod,
        action: Action,
        outer_cls: str,
        outer_is_activity: bool,
        owner_spec: object,
    ) -> None:
        if isinstance(action, Noop):
            method.emit("nop")
        elif isinstance(action, Chain):
            for child in action.actions:
                self._lower_action(method, child, outer_cls,
                                   outer_is_activity, owner_spec)
        elif isinstance(action, StartActivity):
            self._emit_start_activity(method, action, outer_cls,
                                      outer_is_activity)
        elif isinstance(action, StartActivityByAction):
            self._emit_start_by_action(method, action, outer_cls,
                                       outer_is_activity)
        elif isinstance(action, ShowFragment):
            fragment = self.spec.fragment(action.fragment)
            host_spec = self._host_activity_spec(owner_spec, outer_is_activity)
            self._emit_fragment_transaction(
                method, host_cls=self._host_cls(outer_cls, outer_is_activity,
                                                host_spec),
                host_spec=host_spec, fragment=fragment,
                container_id=action.container_id, mode=action.mode,
                self_reg="v5", via_get_activity=not outer_is_activity,
                add_to_back_stack=action.add_to_back_stack,
            )
        elif isinstance(action, OpenDrawer):
            method.emit("const/4", "v0", 3)  # GravityCompat.START
            method.emit(
                "invoke-virtual", "v5", "v0",
                MethodRef("android.support.v4.widget.DrawerLayout",
                          "openDrawer", ("int",)),
            )
        elif isinstance(action, ShowDialog):
            method.emit("new-instance", "v0", "android.app.AlertDialog$Builder")
            method.emit(
                "invoke-direct", "v0", "v5",
                MethodRef("android.app.AlertDialog$Builder", "<init>",
                          ("android.content.Context",)),
            )
            method.emit("const-string", "v1", action.message)
            method.emit(
                "invoke-virtual", "v0", "v1",
                MethodRef("android.app.AlertDialog$Builder", "setMessage",
                          ("java.lang.String",),
                          "android.app.AlertDialog$Builder"),
            )
            method.emit(
                "invoke-virtual", "v0",
                MethodRef("android.app.AlertDialog$Builder", "show", (),
                          "android.app.AlertDialog"),
            )
        elif isinstance(action, ShowPopupMenu):
            method.emit("new-instance", "v0", "android.widget.PopupMenu")
            method.emit(
                "invoke-direct", "v0", "v5",
                MethodRef("android.widget.PopupMenu", "<init>",
                          ("android.content.Context",)),
            )
            method.emit(
                "invoke-virtual", "v0",
                MethodRef("android.widget.PopupMenu", "show"),
            )
        elif isinstance(action, InvokeApi):
            self._emit_api_call(method, action.api)
        elif isinstance(action, Crash):
            method.emit("new-instance", "v0", "java.lang.RuntimeException")
            method.emit("const-string", "v1", action.reason)
            method.emit(
                "invoke-direct", "v0", "v1",
                MethodRef("java.lang.RuntimeException", "<init>",
                          ("java.lang.String",)),
            )
            method.emit(
                "invoke-static", "v0",
                MethodRef("java.lang.Thread", "dispatchUncaughtException",
                          ("java.lang.RuntimeException",)),
            )
        elif isinstance(action, FinishActivity):
            if outer_is_activity:
                method.emit("invoke-virtual", "v5",
                            MethodRef(outer_cls, "finish"))
            else:
                self._emit_get_activity(method, outer_cls, "v5", "v5")
                method.emit("invoke-virtual", "v5",
                            MethodRef("android.app.Activity", "finish"))
        elif isinstance(action, ToggleWidget):
            rid = self.resources.get("id", action.widget_id)
            if rid is not None:
                method.emit("const", "v0", rid.value)
                method.emit(
                    "invoke-virtual", "v5", "v0",
                    MethodRef(outer_cls, "findViewById", ("int",), _VIEW),
                )
                method.emit("move-result-object", "v0")
            method.emit("const/4", "v1", 1)
            method.emit(
                "invoke-virtual", "v0", "v1",
                MethodRef("android.widget.CompoundButton", "setChecked",
                          ("boolean",)),
            )
        elif isinstance(action, SubmitForm):
            for field_id in action.field_ids():
                rid = self.resources.get("id", field_id)
                if rid is not None:
                    method.emit("const", "v0", rid.value)
                    method.emit(
                        "invoke-virtual", "v5", "v0",
                        MethodRef(outer_cls, "findViewById", ("int",), _VIEW),
                    )
                    method.emit("move-result-object", "v0")
                    method.emit("check-cast", "v0", "android.widget.EditText")
                    method.emit(
                        "invoke-virtual", "v0",
                        MethodRef("android.widget.EditText", "getText", (),
                                  "java.lang.CharSequence"),
                    )
            # Real conditional lowering; Algorithm 1's line scan is
            # flow-insensitive, so edges in both branches are found.
            seq = self._branch_seq = getattr(self, "_branch_seq", 0) + 1
            fail_label = f"cond_fail_{seq}"
            end_label = f"cond_end_{seq}"
            method.emit(
                "invoke-virtual", "v5",
                MethodRef(outer_cls, "validateForm", (), "boolean"),
            )
            method.emit("move-result", "v0")
            method.emit("if-eqz", "v0", fail_label)
            self._lower_action(method, action.on_success, outer_cls,
                               outer_is_activity, owner_spec)
            method.emit("goto", end_label)
            method.emit("label", fail_label)
            self._lower_action(method, action.on_failure, outer_cls,
                               outer_is_activity, owner_spec)
            method.emit("label", end_label)
        else:
            raise TypeError(f"unhandled action type: {type(action).__name__}")

    def _emit_start_activity(
        self, method: SmaliMethod, action: StartActivity,
        outer_cls: str, outer_is_activity: bool,
    ) -> None:
        context_reg = "v5"
        if not outer_is_activity:
            self._emit_get_activity(method, outer_cls, "v5", "v6")
            context_reg = "v6"
        method.emit("new-instance", "v0", _INTENT)
        if action.dynamic:
            target_owner = outer_cls if outer_is_activity else "android.app.Activity"
            # Class resolved at runtime: helper method + Class.forName on a
            # mangled literal, so no const-class reaches the analyzer.
            helper = self._ensure_resolver(target_owner)
            method.emit("invoke-static",
                        MethodRef(helper, "resolveTarget", (),
                                  "java.lang.Class"))
            method.emit("move-result-object", "v1")
        else:
            method.emit("const-class", "v1", self.spec.qualify(action.target))
        method.emit(
            "invoke-direct", "v0", context_reg, "v1",
            MethodRef(_INTENT, "<init>",
                      ("android.content.Context", "java.lang.Class")),
        )
        method.emit(
            "invoke-virtual", context_reg, "v0",
            MethodRef(outer_cls if outer_is_activity else "android.app.Activity",
                      "startActivity", (_INTENT,)),
        )

    def _emit_start_by_action(
        self, method: SmaliMethod, action: StartActivityByAction,
        outer_cls: str, outer_is_activity: bool,
    ) -> None:
        context_reg = "v5"
        if not outer_is_activity:
            self._emit_get_activity(method, outer_cls, "v5", "v6")
            context_reg = "v6"
        method.emit("new-instance", "v0", _INTENT)
        if action.dynamic:
            method.emit("const-string", "v1", mangle(action.action))
            method.emit(
                "invoke-static", "v1",
                MethodRef(f"{self.spec.package}.ActionCodec", "decode",
                          ("java.lang.String",), "java.lang.String"),
            )
            method.emit("move-result-object", "v1")
            self._needs_router = True
        else:
            method.emit("const-string", "v1", action.action)
        method.emit(
            "invoke-direct", "v0", "v1",
            MethodRef(_INTENT, "<init>", ("java.lang.String",)),
        )
        method.emit(
            "invoke-virtual", context_reg, "v0",
            MethodRef(outer_cls if outer_is_activity else "android.app.Activity",
                      "startActivity", (_INTENT,)),
        )

    def _emit_get_activity(self, method: SmaliMethod, outer_cls: str,
                           src_reg: str, dest_reg: str) -> None:
        method.emit(
            "invoke-virtual", src_reg,
            MethodRef(outer_cls, "getActivity", (), "android.app.Activity"),
        )
        method.emit("move-result-object", dest_reg)

    # -- fragment transactions -------------------------------------------------

    def _emit_fragment_transaction(
        self,
        method: SmaliMethod,
        host_cls: str,
        host_spec: Optional[ActivitySpec],
        fragment: FragmentSpec,
        container_id: str,
        mode: str,
        self_reg: str,
        via_get_activity: bool = False,
        add_to_back_stack: bool = False,
    ) -> None:
        qualified_fragment = self.spec.qualify(fragment.name)
        host_reg = self_reg
        if via_get_activity:
            self._emit_get_activity(method, host_cls, self_reg, "v6")
            host_reg = "v6"
        if not fragment.managed:
            # Attached straight into the view hierarchy (no manager): the
            # `new F()` is still statically visible, but there is no
            # FragmentTransaction to grep or to reflect on at runtime.
            method.emit("new-instance", "v2", qualified_fragment)
            method.emit("invoke-direct", "v2",
                        MethodRef(qualified_fragment, "<init>"))
            method.emit(
                "invoke-virtual", host_reg, "v2",
                MethodRef(host_cls, "attachDirect", (qualified_fragment,)),
            )
            return
        support = host_spec is not None and host_spec.uses_support_library
        manager_cls = _SUPPORT_FRAGMENT_MANAGER if support else _FRAGMENT_MANAGER
        transaction_cls = (_SUPPORT_FRAGMENT_TRANSACTION if support
                           else _FRAGMENT_TRANSACTION)
        getter = "getSupportFragmentManager" if support else "getFragmentManager"
        method.emit(
            "invoke-virtual", host_reg,
            MethodRef(host_cls, getter, (), manager_cls),
        )
        method.emit("move-result-object", "v0")
        method.emit(
            "invoke-virtual", "v0",
            MethodRef(manager_cls, "beginTransaction", (), transaction_cls),
        )
        method.emit("move-result-object", "v1")
        if fragment.factory is FragmentFactory.NEW:
            method.emit("new-instance", "v2", qualified_fragment)
            method.emit("invoke-direct", "v2",
                        MethodRef(qualified_fragment, "<init>"))
        elif fragment.factory is FragmentFactory.NEW_INSTANCE:
            if fragment.requires_args:
                method.emit("const-string", "v3", "arg")
                method.emit(
                    "invoke-static", "v3",
                    MethodRef(qualified_fragment, "newInstance",
                              ("java.lang.String",), qualified_fragment),
                )
            else:
                method.emit(
                    "invoke-static",
                    MethodRef(qualified_fragment, "newInstance", (),
                              qualified_fragment),
                )
            method.emit("move-result-object", "v2")
        else:  # CUSTOM: routed through a string the analyzer cannot read.
            self._needs_router = True
            method.emit("const-string", "v3", mangle(qualified_fragment))
            method.emit(
                "invoke-static", "v3",
                MethodRef(f"{self.spec.package}.FragmentRouter", "route",
                          ("java.lang.String",), "android.app.Fragment"),
            )
            method.emit("move-result-object", "v2")
        rid = self.resources.define("id", container_id)
        method.emit("const", "v3", rid.value)
        method.emit(
            "invoke-virtual", "v1", "v3", "v2",
            MethodRef(transaction_cls, mode,
                      ("int", "android.app.Fragment"), transaction_cls),
        )
        if add_to_back_stack:
            method.emit("const-string", "v4", "tx")
            method.emit(
                "invoke-virtual", "v1", "v4",
                MethodRef(transaction_cls, "addToBackStack",
                          ("java.lang.String",), transaction_cls),
            )
        method.emit(
            "invoke-virtual", "v1",
            MethodRef(transaction_cls, "commit", (), "int"),
        )

    # -- misc helpers ------------------------------------------------------------

    def _emit_api_call(self, method: SmaliMethod, api: str) -> None:
        # Imported here: the static package sits above the smali layer
        # this compiler feeds, so a module-level import would be cyclic.
        from repro.static.sensitive import method_for_api

        ref = method_for_api(api)
        method.emit("const-string", "v0", ref.cls.rsplit(".", 1)[-1].lower())
        method.emit(
            "invoke-virtual", "p0", "v0",
            MethodRef("android.content.Context", "getSystemService",
                      ("java.lang.String",), "java.lang.Object"),
        )
        method.emit("move-result-object", "v1")
        method.emit("check-cast", "v1", ref.cls)
        regs = ["v1"]
        for index, param in enumerate(ref.params):
            reg = f"v{index + 2}"
            if param == "java.lang.String":
                method.emit("const-string", reg, "value")
            else:
                method.emit("const/4", reg, 0)
            regs.append(reg)
        method.emit("invoke-virtual", *regs, ref)

    def _ensure_resolver(self, owner: str) -> str:
        """A static ``resolveTarget()`` helper doing Class.forName on a
        mangled literal — the statically-opaque navigation idiom."""
        self._needs_router = True
        return f"{self.spec.package}.FragmentRouter"

    def _router_class(self) -> SmaliClass:
        cls = SmaliClass(
            name=f"{self.spec.package}.FragmentRouter",
            super_name="java.lang.Object",
            source="FragmentRouter.java",
        )
        route = self._add_method(cls, "route", params=["java.lang.String"],
                                 ret="android.app.Fragment", static=True)
        route.emit(
            "invoke-static", "p0",
            MethodRef(f"{self.spec.package}.ActionCodec", "decode",
                      ("java.lang.String",), "java.lang.String"),
        )
        route.emit("move-result-object", "v0")
        route.emit(
            "invoke-static", "v0",
            MethodRef("java.lang.Class", "forName", ("java.lang.String",),
                      "java.lang.Class"),
        )
        route.emit("move-result-object", "v1")
        route.emit("return-object", "v1")
        resolve = self._add_method(cls, "resolveTarget", params=[],
                                   ret="java.lang.Class", static=True)
        resolve.emit("const-string", "v0", "gerat.devloser")
        resolve.emit(
            "invoke-static", "v0",
            MethodRef("java.lang.Class", "forName", ("java.lang.String",),
                      "java.lang.Class"),
        )
        resolve.emit("move-result-object", "v1")
        resolve.emit("return-object", "v1")
        decode = self._add_method(cls, "decode", params=["java.lang.String"],
                                  ret="java.lang.String", static=True)
        decode.emit("return-object", "p0")
        return cls

    def _host_activity_spec(self, owner_spec: object,
                            owner_is_activity: bool) -> Optional[ActivitySpec]:
        if owner_is_activity and isinstance(owner_spec, ActivitySpec):
            return owner_spec
        if isinstance(owner_spec, FragmentSpec):
            # A fragment's transaction runs against whichever activity
            # hosts it; for code generation we pick the first declared host.
            for activity in self.spec.activities:
                if owner_spec.name in activity.hosted_fragments:
                    return activity
        return None

    def _host_cls(self, outer_cls: str, outer_is_activity: bool,
                  host_spec: Optional[ActivitySpec]) -> str:
        if outer_is_activity:
            return outer_cls
        if host_spec is not None:
            return self.spec.qualify(host_spec.name)
        return "android.app.Activity"

    def _emit_crash(self, method: Optional[SmaliMethod], reason: str) -> None:
        if method is None:
            return
        method.emit("new-instance", "v0", "java.lang.RuntimeException")
        method.emit("const-string", "v1", reason)
        method.emit(
            "invoke-direct", "v0", "v1",
            MethodRef("java.lang.RuntimeException", "<init>",
                      ("java.lang.String",)),
        )


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
