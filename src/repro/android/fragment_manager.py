"""FragmentManager and FragmentTransaction semantics.

Implements the API surface of the paper's Figure 3 code snippet:
``getFragmentManager().beginTransaction()`` followed by ``add``/
``replace`` and ``commit``.  Only *managed* fragments pass through here;
unmanaged (directly attached) fragments never register with a manager,
which is what breaks FragDroid's reflective switching for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import DeviceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.fragment import FragmentInstance


class FragmentTransaction:
    """A pending set of fragment operations, applied on commit."""

    def __init__(self, manager: "FragmentManager") -> None:
        self._manager = manager
        self._operations: List[tuple] = []
        self._committed = False
        self._back_stack = False

    def add_to_back_stack(self, name: Optional[str] = None
                          ) -> "FragmentTransaction":
        """``FragmentTransaction.addToBackStack``: the commit becomes
        reversible via the back key."""
        self._back_stack = True
        return self

    def add(self, container_id: str,
            fragment: "FragmentInstance") -> "FragmentTransaction":
        self._operations.append(("add", container_id, fragment))
        return self

    def replace(self, container_id: str,
                fragment: "FragmentInstance") -> "FragmentTransaction":
        self._operations.append(("replace", container_id, fragment))
        return self

    def remove(self, fragment: "FragmentInstance") -> "FragmentTransaction":
        self._operations.append(("remove", fragment.container_id, fragment))
        return self

    def commit(self) -> int:
        if self._committed:
            raise DeviceError("transaction already committed")
        self._committed = True
        snapshot = (self._manager.snapshot_containers()
                    if self._back_stack else None)
        for op, container_id, fragment in self._operations:
            if op == "replace":
                self._manager.detach_all(container_id)
                self._manager.attach(container_id, fragment)
            elif op == "add":
                self._manager.attach(container_id, fragment)
            elif op == "remove":
                self._manager.detach(container_id, fragment)
        if snapshot is not None:
            self._manager.push_back_stack(snapshot)
        return len(self._operations)


class FragmentManager:
    """Per-Activity registry of attached (managed) fragments.  The
    process runs an attached fragment's ``onCreateView`` once its
    transaction commits."""

    def __init__(self) -> None:
        self._containers: Dict[str, List["FragmentInstance"]] = {}
        self._back_stack: List[Dict[str, List["FragmentInstance"]]] = []

    def begin_transaction(self) -> FragmentTransaction:
        return FragmentTransaction(self)

    # -- back stack ---------------------------------------------------------

    def snapshot_containers(self) -> Dict[str, List["FragmentInstance"]]:
        return {cid: list(frags) for cid, frags in self._containers.items()}

    def push_back_stack(self,
                        snapshot: Dict[str, List["FragmentInstance"]]) -> None:
        self._back_stack.append(snapshot)

    @property
    def back_stack_entry_count(self) -> int:
        return len(self._back_stack)

    def pop_back_stack(self) -> bool:
        """Reverse the most recent back-stacked transaction."""
        if not self._back_stack:
            return False
        self._containers = self._back_stack.pop()
        return True

    def attach(self, container_id: str, fragment: "FragmentInstance") -> None:
        self._containers.setdefault(container_id, []).append(fragment)

    def detach(self, container_id: str, fragment: "FragmentInstance") -> None:
        fragments = self._containers.get(container_id, [])
        if fragment in fragments:
            fragments.remove(fragment)

    def detach_all(self, container_id: str) -> None:
        self._containers[container_id] = []

    def fragments(self) -> List["FragmentInstance"]:
        out: List["FragmentInstance"] = []
        for container in sorted(self._containers):
            out.extend(self._containers[container])
        return out

    def find_by_class(self, class_name: str) -> Optional["FragmentInstance"]:
        for fragment in self.fragments():
            if fragment.class_name == class_name:
                return fragment
        return None
