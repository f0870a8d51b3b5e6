"""A fixed-bound, lock-guarded table for what a process already built.

The loader keeps compiled code objects in one and the toolchain keeps
loaded shared objects in another: both only ever save work that can be
redone, so the least recently used entry is dropped once the bound is
reached and a dropped entry costs a recompute, never a wrong answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional


class BoundedTable:
    """Least-recently-used mapping holding at most ``limit`` entries."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)
