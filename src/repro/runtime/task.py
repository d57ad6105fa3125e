"""Tasks, data handles and access modes.

Each :class:`Task` declares the data handles it accesses and with which
mode (§5.1); the scheduler places it by its dominant handle's NUMA node.
Applications set ``deps`` by hand before submitting a task.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.hardware.memory import Buffer
from repro.kernels.blas import TileCost

__all__ = ["AccessMode", "DataHandle", "Task"]

_handle_ids = itertools.count()
_task_ids = itertools.count()


class AccessMode(enum.Enum):
    R = "R"
    W = "W"
    RW = "RW"


@dataclass
class DataHandle:
    """A registered piece of data (one buffer per owning rank)."""

    buffer: Buffer = field(repr=False)
    home_rank: int = 0
    label: str = ""
    id: int = field(default_factory=lambda: next(_handle_ids))

    @property
    def size(self) -> int:
        return self.buffer.size

    @property
    def numa_id(self) -> int:
        return self.buffer.numa_id

    def __hash__(self) -> int:
        return self.id


@dataclass
class Task:
    """One codelet execution: a tile cost plus data accesses."""

    name: str
    cost: TileCost
    accesses: Sequence[Tuple[DataHandle, AccessMode]] = ()
    rank: int = 0                      # which node executes it
    id: int = field(default_factory=lambda: next(_task_ids))
    # Filled during execution:
    deps: List["Task"] = field(default_factory=list, repr=False)
    n_waiting: int = 0
    done: bool = False
    start_time: float = -1.0
    end_time: float = -1.0
    # Memoized data_numa (False = not computed yet; None is a valid answer).
    _data_numa: object = field(default=False, repr=False, compare=False)

    @property
    def duration(self) -> float:
        if self.start_time < 0 or self.end_time < 0:
            return 0.0
        return self.end_time - self.start_time

    def data_numa(self) -> Optional[int]:
        """NUMA node of the task's dominant (largest) accessed handle.

        Accesses and buffer placement are fixed once a task is built
        (buffers never migrate), so the answer is memoized — locality
        schedulers ask for it on every queue scan.
        """
        cached = self._data_numa
        if cached is not False:
            return cached
        best = None
        for handle, _mode in self.accesses:
            if best is None or handle.size > best.size:
                best = handle
        result = best.numa_id if best is not None else None
        self._data_numa = result
        return result

    def __hash__(self) -> int:
        return self.id
