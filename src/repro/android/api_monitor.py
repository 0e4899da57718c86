"""The sensitive-API monitor — the XPrivacy stand-in.

On a real phone the paper hooks XPrivacy's restriction points so every
sensitive-API invocation is recorded together with the class that made
it.  Our runtime calls :meth:`ApiMonitor.record` whenever an app
component executes an ``InvokeApi`` behaviour, capturing the API name,
the invoking component class, and whether that class is an Activity or a
Fragment — the distinction Table II is built on.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.types import ApiInvocation, ComponentName, InvocationSource


class ApiMonitor:
    """Append-only record of hooked API invocations."""

    def __init__(self) -> None:
        self._invocations: List[ApiInvocation] = []
        # One ComponentName per component: the invocations share it, so
        # a pickled result carries each component once.
        self._components: Dict[ComponentName, ComponentName] = {}

    def record(self, api: str, component: ComponentName,
               source: InvocationSource, step: int) -> None:
        component = self._components.setdefault(component, component)
        self._invocations.append(ApiInvocation(api, component, source, step))

    @property
    def invocations(self) -> List[ApiInvocation]:
        return list(self._invocations)

    def distinct(self) -> Set[Tuple[str, ComponentName, InvocationSource]]:
        """Unique (api, component, source) triples."""
        return {(i.api, i.component, i.source) for i in self._invocations}

    def apis_seen(self) -> Set[str]:
        return {i.api for i in self._invocations}

    def by_api(self) -> Dict[str, List[ApiInvocation]]:
        out: Dict[str, List[ApiInvocation]] = {}
        for invocation in self._invocations:
            out.setdefault(invocation.api, []).append(invocation)
        return out

    def clear(self) -> None:
        self._invocations.clear()
        self._components.clear()

    def __len__(self) -> int:
        return len(self._invocations)
