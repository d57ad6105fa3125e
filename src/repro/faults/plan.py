"""Fault plans: seedable, serialisable schedules of hardware faults.

A :class:`FaultPlan` is an ordered list of fault specs plus a seed.  It
is pure data — arming it against a live cluster is the job of
:class:`~repro.faults.injector.FaultInjector`.  Times are *simulation*
times: every sweep point runs its own simulator starting at ``t=0``, so
a fault window applies to each point whose simulated execution reaches
it (this is what makes faulted sweeps reproducible point by point).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Union

__all__ = ["DegradedLink", "MessageLoss", "FailStop", "FaultPlan",
           "parse_fault"]


@dataclass(frozen=True)
class DegradedLink:
    """De-rate a fabric link: bandwidth and/or latency multipliers.

    Address the link either by directed node pair (``src``/``dst`` — the
    injection wire of that route, the seed semantics) or by fabric edge
    label (``link="df.g0->g1"``, ... — any label
    from the cluster topology's link catalog).  With ``link`` set the
    latency multiplier applies to every route crossing that edge.
    """

    src: int = -1
    dst: int = -1
    start: float = 0.0
    duration: float = math.inf
    bw_factor: float = 1.0          # multiplier on link capacity (<= 1)
    latency_factor: float = 1.0     # multiplier on wire latency (>= 1)
    link: Optional[str] = None      # fabric edge label; overrides src/dst

    def __post_init__(self):
        if self.link is None and (self.src < 0 or self.dst < 0):
            raise ValueError(
                "DegradedLink needs either src+dst node ids or a "
                "link=<fabric edge label>")


@dataclass(frozen=True)
class MessageLoss:
    """Transient message-loss window, optionally scoped to a link."""

    loss_rate: float
    start: float = 0.0
    duration: float = math.inf
    src: Optional[int] = None       # None = any source
    dst: Optional[int] = None       # None = any destination


@dataclass(frozen=True)
class FailStop:
    """Crash a node: all later transfers to/from it fail."""

    node: int
    at: float


Fault = Union[DegradedLink, MessageLoss, FailStop]

_FAULT_KINDS: Dict[str, type] = {
    "fail_stop": FailStop,
    "link": DegradedLink,
    "loss": MessageLoss,
}

_KIND_OF_TYPE = {cls: kind for kind, cls in _FAULT_KINDS.items()}

_INT_FIELDS = {"node", "src", "dst"}
_STR_FIELDS = {"link"}


def _convert(key: str, value: str):
    if value in ("None", "none", ""):
        return None
    if key in _STR_FIELDS:
        return value
    if key in _INT_FIELDS:
        return int(value)
    if value == "inf":
        return math.inf
    return float(value)


def parse_fault(spec: str) -> Fault:
    """Parse a CLI mini-spec like ``"fail_stop:node=1,at=0.01"``."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    cls = _FAULT_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown fault kind {kind!r}; pick one of "
            f"{sorted(_FAULT_KINDS)}")
    kwargs = {}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed fault field {part!r} in {spec!r}")
        kwargs[key.strip()] = _convert(key.strip(), value.strip())
    try:
        return cls(**kwargs)
    except TypeError as err:
        raise ValueError(f"bad fields for fault {kind!r}: {err}") from None


class FaultPlan:
    """A seed plus an ordered list of faults (builder-style API)."""

    def __init__(self, seed: int = 0, faults: Optional[List[Fault]] = None):
        self.seed = int(seed)
        self.faults: List[Fault] = list(faults or [])

    # -- builders ----------------------------------------------------------
    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def degrade_link(self, src: int = -1, dst: int = -1, start: float = 0.0,
                     duration: float = math.inf, bw_factor: float = 1.0,
                     latency_factor: float = 1.0,
                     link: Optional[str] = None) -> "FaultPlan":
        return self.add(DegradedLink(src=src, dst=dst, start=start,
                                     duration=duration, bw_factor=bw_factor,
                                     latency_factor=latency_factor,
                                     link=link))

    def message_loss(self, loss_rate: float, start: float = 0.0,
                     duration: float = math.inf, src: Optional[int] = None,
                     dst: Optional[int] = None) -> "FaultPlan":
        return self.add(MessageLoss(loss_rate=loss_rate, start=start,
                                    duration=duration, src=src, dst=dst))

    def fail_stop(self, node: int, at: float) -> "FaultPlan":
        return self.add(FailStop(node=node, at=at))

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [dict(kind=_KIND_OF_TYPE[type(f)], **asdict(f))
                           for f in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        plan = cls(seed=data.get("seed", 0))
        for entry in data.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("kind")
            plan.add(_FAULT_KINDS[kind](**entry))
        return plan

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed}, {len(self.faults)} faults)"
