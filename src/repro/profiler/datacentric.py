"""Data-centric address resolution: sample address -> program variable.

The real tool builds this map from two sources (paper Section 5.1):
symbols in the executable and shared libraries for static variables, and
tracked ``malloc``/``free`` extents for heap data. Here the registry is
fed by the allocator's ``on_alloc``/``on_free`` hooks and resolves sample
addresses against the recorded extents — the profiler deliberately
resolves through this map rather than trusting the chunk's ground-truth
variable, so the resolution path is exercised (and validated in tests
against the ground truth).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidAddressError
from repro.runtime.heap import Variable


class VariableRegistry:
    """Sorted-extent map from addresses to live variables."""

    def __init__(self) -> None:
        self._vars: dict[str, Variable] = {}
        self._bases = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._names: list[str] = []
        #: Name -> stable integer id (interned, never reused).
        self._name_ids: dict[str, int] = {}
        self._slot_ids = np.empty(0, dtype=np.int64)
        self._dirty = False

    def register(self, var: Variable) -> None:
        """Track a newly allocated variable."""
        self._vars[var.name] = var
        self._dirty = True

    def unregister(self, var: Variable) -> None:
        """Drop a freed variable (later samples to it become unresolved)."""
        self._vars.pop(var.name, None)
        self._dirty = True

    def _rebuild(self) -> None:
        ordered = sorted(self._vars.values(), key=lambda v: v.base)
        self._bases = np.array([v.base for v in ordered], dtype=np.int64)
        self._ends = np.array([v.end for v in ordered], dtype=np.int64)
        self._names = [v.name for v in ordered]
        ids = self._name_ids
        self._slot_ids = np.array(
            [ids.setdefault(n, len(ids)) for n in self._names], dtype=np.int64
        )
        self._dirty = False

    def resolve_addr(self, addr: int) -> Variable:
        """Resolve one address to its variable."""
        if self._dirty:
            self._rebuild()
        idx = int(np.searchsorted(self._bases, addr, side="right")) - 1
        if idx < 0 or addr >= self._ends[idx]:
            raise InvalidAddressError(f"address {addr:#x} matches no variable")
        return self._vars[self._names[idx]]

    def resolve_addrs(self, addrs: np.ndarray) -> Variable:
        """Resolve a batch of addresses known to share one variable.

        Sample batches from one chunk always fall inside a single access
        site's variable; resolving the minimum address and checking the
        maximum stays O(log n) while still detecting straddles.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        var = self.resolve_addr(int(addrs.min()))
        if int(addrs.max()) >= var.end:
            raise InvalidAddressError(
                f"sample batch straddles variable {var.name!r}"
            )
        return var

    def locate(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`resolve_addrs` over many batches.

        ``lo``/``hi`` are each batch's minimum and maximum address.
        Returns a stable integer id of the name of the variable holding
        each whole batch, or -1 where ``lo`` matches no variable or the
        batch straddles past the end of the one it starts in.
        """
        if self._dirty:
            self._rebuild()
        if not self._names:
            return np.full(lo.size, -1, dtype=np.int64)
        slot = np.searchsorted(self._bases, lo, side="right") - 1
        ok = (slot >= 0) & (hi < self._ends.take(slot, mode="clip"))
        return np.where(ok, self._slot_ids.take(slot, mode="clip"), -1)

    @property
    def live_variables(self) -> list[Variable]:
        """Currently tracked variables, ascending by base address."""
        if self._dirty:
            self._rebuild()
        return [self._vars[name] for name in self._names]
