"""Runtime self-checks for the simulation core (``--check-invariants``).

The incremental fluid solver (PR 3) and the generation-based event heap
trade brute-force recomputation for bookkeeping — dirty-component
gathering, per-flow usage caches, stale-entry generations.  That
bookkeeping is exactly the kind of state that silent bugs corrupt:
nothing crashes, the sweep just quietly reports wrong numbers.  This
module provides the switch the solver and the engine consult to verify
themselves at runtime:

* per-resource capacity is never exceeded and rates stay non-negative
  and demand-capped after every rate solve;
* the per-flow usage caches agree with the authoritative usage maps;
* on a sampled fraction of solves, the dirty list is re-solved by the
  reference solver and must match the fast path **bitwise**, and the
  incremental rates are cross-checked against a from-scratch global
  solve to a relative tolerance (a global pass rounds differently, by
  ~1e-15, because it interleaves the freezes of unrelated components);
* event time never moves backwards through the engine's heap.

A failed check raises :class:`InvariantViolation` naming the culprit
flow/resource and its connected component, so the diagnostic points at
the corrupted state instead of at whichever figure happened to consume
it ten thousand events later.  A violation raised inside a sim process
propagates out of ``Simulator.run`` instead of failing that process.

Checking is off by default (the hot paths pay one module-attribute
test).  Enable it with ``REPRO_CHECK_INVARIANTS=1`` in the environment
(read at import, the CI switch), the ``--check-invariants`` CLI flag,
or :func:`enable` / the :func:`invariant_checks` context manager from
code.  ``REPRO_CHECK_SAMPLE`` (default 16) sets the 1-in-N sampling of
the expensive reference cross-checks; the cheap checks run on every
solve.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

__all__ = ["InvariantViolation", "enable", "disable", "enabled",
           "invariant_checks"]


class InvariantViolation(RuntimeError):
    """A simulation self-check failed; the message names the culprit
    (flow, resource, or event) and its connected component."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")


def _env_sample() -> int:
    raw = os.environ.get("REPRO_CHECK_SAMPLE", "")
    try:
        value = int(raw)
    except ValueError:
        return 16
    return value if value > 0 else 16


# Consulted directly (``_inv.ENABLED``) by the engine/fluid hot paths.
ENABLED: bool = _env_enabled()
SAMPLE_EVERY: int = _env_sample()


def enabled() -> bool:
    """Whether invariant checking is currently on."""
    return ENABLED


def enable(sample: Optional[int] = None) -> None:
    """Turn invariant checking on (``sample``: cross-check 1-in-N)."""
    global ENABLED, SAMPLE_EVERY
    ENABLED = True
    if sample is not None:
        if sample <= 0:
            raise ValueError("sample must be >= 1")
        SAMPLE_EVERY = int(sample)


def disable() -> None:
    """Turn invariant checking off."""
    global ENABLED
    ENABLED = False


@contextmanager
def invariant_checks(sample: Optional[int] = None):
    """Scope invariant checking to a ``with`` block (tests)."""
    global ENABLED, SAMPLE_EVERY
    prev_enabled, prev_sample = ENABLED, SAMPLE_EVERY
    enable(sample)
    try:
        yield
    finally:
        ENABLED, SAMPLE_EVERY = prev_enabled, prev_sample
