"""Reliable-transport parameters and the terminal transport failure.

The reliability layer is strictly pay-for-what-you-use: without an
installed :class:`~repro.faults.plan.FaultPlan` the protocol engine
executes the exact pre-fault code path (same events, same RNG draws),
so fault-free experiments stay bit-identical to the seed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKOFF_FACTOR", "MAX_BACKOFF_S", "ReliabilityConfig",
           "TransportError", "backoff_delay"]


def backoff_delay(base: float, attempt: int, factor: float = 2.0,
                  cap: Optional[float] = None, jitter: float = 0.0) -> float:
    """Exponential-backoff delay for the *attempt*-th retry (>= 1).

    The arithmetic (``base * factor ** max(0, attempt - 1)``, then the
    cap) is the reliable transport's retransmit-timeout policy, shared
    here so the sweep executor's point retries back off exactly like
    simulated retransmissions do.  *jitter* in ``[0, 1)`` scales the
    delay by ``1 + jitter`` — callers derive it deterministically (the
    executor hashes the point seed) so retry schedules stay reproducible.
    """
    delay = base * factor ** max(0, attempt - 1)
    if cap is not None:
        delay = min(delay, cap)
    if jitter:
        delay *= 1.0 + jitter
    return delay


class TransportError(RuntimeError):
    """A message could not be delivered (retries exhausted or peer dead)."""

    def __init__(self, reason: str, src: Optional[int] = None,
                 dst: Optional[int] = None, size: Optional[int] = None,
                 retries: int = 0, timeouts: int = 0):
        super().__init__(
            f"{reason} (src={src}, dst={dst}, size={size}, "
            f"retries={retries}, timeouts={timeouts})")
        self.reason = reason
        self.src = src
        self.dst = dst
        self.size = size
        self.retries = retries
        self.timeouts = timeouts


#: Retransmit-timeout policy of the reliable transport: the timeout
#: doubles after every consecutive timeout, up to the cap.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 10e-3


@dataclass(frozen=True)
class ReliabilityConfig:
    """Ack/timeout/retransmit policy of the reliable transport.

    ``timeout_s`` is the base retransmit timeout armed when the sender
    hands a message to the NIC; it grows by :data:`BACKOFF_FACTOR` after
    every consecutive timeout, up to :data:`MAX_BACKOFF_S`.  After
    ``max_retries`` failed retransmissions the transfer raises
    :class:`TransportError` — a faulted simulation therefore always
    terminates, never hangs.

    Acks are piggybacked on the reverse control channel and add no
    latency of their own, but they traverse the same lossy links as
    data: a lost ack forces a (redundant) retransmission exactly like a
    lost message.
    """

    timeout_s: float = 100e-6
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def retransmit_timeout(self, n_timeouts: int) -> float:
        """Timeout armed after *n_timeouts* consecutive losses (>= 1)."""
        return backoff_delay(self.timeout_s, n_timeouts, BACKOFF_FACTOR,
                             MAX_BACKOFF_S)
