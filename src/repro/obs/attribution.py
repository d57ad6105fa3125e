"""Interference attribution: bandwidth loss vs. memory-stall cycles.

The paper's §6 argument (Figure 10) is a correlation: as more workers
run memory-bound kernels, the cores' memory-stall cycles rise and the
communication thread's effective sending bandwidth collapses.  Here
every completed transfer carries the stall/busy cycle deltas of the
machines it overlapped (sampled around the protocol engine's
``half_transfer``), and :func:`attribution_report` turns those samples
into the Fig-10-style table and a correlation coefficient.

Bandwidths are normalised within same-size transfer groups before
correlating, because achievable bandwidth varies enormously with
message size (latency- vs bandwidth-dominated) and would otherwise
swamp the interference signal.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterator, List, Optional

from repro.obs.metrics import JSONStream

__all__ = ["TransferSample", "TransferLog", "attribution_report",
           "render_attribution"]

#: ``insufficient_data`` reasons a report carries when the correlation
#: is undefined (instead of a bare None or a NaN leaking into exports).
INSUFFICIENT_REASONS = {
    "no_active_transfers":
        "no transfer overlapped any compute cycles",
    "too_few_active_transfers":
        "fewer than 2 transfers overlapped compute cycles",
    "zero_variance":
        "stall fractions or bandwidths are constant across transfers",
}


@dataclass(slots=True)
class TransferSample:
    """One completed transfer and the cycle activity it overlapped.

    The row type a :class:`TransferLog` yields when iterated; the log
    itself stores transfers as columns.
    """

    t: float                 # completion time (simulated seconds)
    run: str                 # experiment/run label ("" if unknown)
    src: int
    dst: int
    size: int                # bytes
    protocol: str            # "eager" | "rendezvous"
    duration: float          # seconds
    bandwidth: float         # bytes / second
    mem_stall: float         # stall cycles accrued across both machines
    busy: float              # busy cycles accrued across both machines
    retries: int = 0

    @property
    def stall_fraction(self) -> float:
        """Fraction of overlapped busy cycles spent stalled on memory."""
        return self.mem_stall / self.busy if self.busy > 0 else 0.0


# Column layout.  A field gets a typed array only if every value the
# recorder stores in it already has that type: an int in a 'd' column
# would export as ``0.0`` instead of ``0``.  ``run`` and ``protocol``
# hold the (shared) label strings.
_FIELDS = ("t", "run", "src", "dst", "size", "protocol", "duration",
           "bandwidth", "mem_stall", "busy", "retries")
_TYPECODES = {"t": "d", "duration": "d", "bandwidth": "d",
              "mem_stall": "d", "busy": "d",
              "src": "q", "dst": "q", "size": "q", "retries": "q"}
# Keys of one exported row, in the sorted order json writes them.
_ROW_KEYS = tuple(sorted(_FIELDS + ("stall_fraction",)))
#: Rows encoded per step of :meth:`TransferLog.iter_json`.
EXPORT_CHUNK = 512
# Encodes one column chunk in json's C encoder.  ``ensure_ascii``
# output never contains a raw NUL, so it safely separates the items.
_encode_column = json.JSONEncoder(check_circular=False,
                                  separators=("\x00", ": ")).encode


class TransferLog(JSONStream):
    """Completed transfers as columns, one typed array per numeric field.

    :meth:`append` stores a transfer without building a per-message
    object; iterating yields :class:`TransferSample` rows.  Exported
    (through :func:`~repro.obs.metrics.iter_indented_json`) the log is
    the list of row objects, each with its derived ``stall_fraction``.
    """

    __slots__ = _FIELDS

    def __init__(self) -> None:
        for name in _FIELDS:
            code = _TYPECODES.get(name)
            setattr(self, name, array(code) if code else [])

    def append(self, t: float, run: str, src: int, dst: int, size: int,
               protocol: str, duration: float, bandwidth: float,
               mem_stall: float, busy: float, retries: int = 0) -> None:
        self.t.append(t)
        self.run.append(run)
        self.src.append(src)
        self.dst.append(dst)
        self.size.append(size)
        self.protocol.append(protocol)
        self.duration.append(duration)
        self.bandwidth.append(bandwidth)
        self.mem_stall.append(mem_stall)
        self.busy.append(busy)
        self.retries.append(retries)

    def extend(self, other: "TransferLog") -> None:
        """Append *other*'s transfers, in order (column concatenation)."""
        for name in _FIELDS:
            getattr(self, name).extend(getattr(other, name))

    def for_run(self, run: str) -> "TransferLog":
        """The sub-log of transfers labelled *run*, in order."""
        keep = [i for i, label in enumerate(self.run) if label == run]
        sub = TransferLog()
        for name in _FIELDS:
            column = getattr(self, name)
            getattr(sub, name).extend([column[i] for i in keep])
        return sub

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[TransferSample]:
        return map(TransferSample,
                   *(getattr(self, name) for name in _FIELDS))

    def iter_json(self, depth: int, indent: int) -> Iterator[str]:
        """The row list as ``json.dumps(rows, indent, sort_keys)`` at
        *depth* writes it, :data:`EXPORT_CHUNK` rows per chunk.

        Each column chunk goes through json's C encoder once; the rows
        are then filled into one template built from the sorted keys.
        """
        n = len(self)
        if not n:
            yield "[]"
            return
        pad = " " * indent
        row_sep = "\n" + pad * (depth + 1)
        key_sep = "\n" + pad * (depth + 2)
        template = "{" + ",".join(
            f"{key_sep}{encode_basestring_ascii(key)}: %s"
            for key in _ROW_KEYS) + row_sep + "}"
        joiner = "," + row_sep
        sep = "[" + row_sep
        for lo in range(0, n, EXPORT_CHUNK):
            hi = lo + EXPORT_CHUNK
            chunk = {name: getattr(self, name)[lo:hi] for name in _FIELDS}
            chunk["stall_fraction"] = [
                m / b if b > 0 else 0.0
                for m, b in zip(chunk["mem_stall"], chunk["busy"])]
            columns = [_encode_column(list(chunk[key]))[1:-1].split("\x00")
                       for key in _ROW_KEYS]
            yield sep + joiner.join([template % row
                                     for row in zip(*columns)])
            sep = joiner
        yield "\n" + pad * depth + "]"


def _pearson(xs: List[float], ys: List[float]) -> Optional[float]:
    n = len(xs)
    if n < 2:
        return None
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx <= 0 or syy <= 0:
        return None
    r = sxy / (sxx * syy) ** 0.5
    return r if math.isfinite(r) else None


def attribution_report(log: TransferLog,
                       n_bins: int = 5) -> Dict[str, object]:
    """Correlate normalised bandwidth with overlapped stall fraction.

    Returns a JSON-able report: per-stall-bin mean normalised bandwidth
    (the Fig-10-style table) plus the Pearson correlation, which the
    paper's trend predicts to be negative (more stalls → less
    bandwidth).  Transfers that overlapped no compute cycles at all are
    excluded from the correlation but counted in ``quiet_transfers``.

    Degenerate inputs never produce a NaN: non-finite samples are
    dropped up front, and whenever the correlation is undefined (fewer
    than 2 active transfers, or zero variance) the report instead
    carries a structured ``insufficient_data`` reason (a key of
    :data:`INSUFFICIENT_REASONS`).
    """
    isfinite = math.isfinite
    keep = [i for i, (duration, size, bw, stall, busy) in enumerate(zip(
                log.duration, log.size, log.bandwidth, log.mem_stall,
                log.busy))
            if duration > 0 and size > 0 and isfinite(duration)
            and isfinite(bw) and isfinite(stall) and isfinite(busy)]
    if not keep:
        return {"transfers": 0, "correlation": None, "bins": [],
                "quiet_transfers": 0,
                "insufficient_data": "no_active_transfers"}

    # Normalise bandwidth within same-size groups: 1.0 = the best this
    # message size achieved anywhere in the run.
    sizes = [log.size[i] for i in keep]
    bandwidths = [log.bandwidth[i] for i in keep]
    best_by_size: Dict[int, float] = {}
    for size, bw in zip(sizes, bandwidths):
        if bw > best_by_size.get(size, 0.0):
            best_by_size[size] = bw
    norm = [bw / best_by_size[size] for size, bw in zip(sizes, bandwidths)]

    # Active transfers overlapped compute cycles; only they correlate.
    mem_stall, busy = log.mem_stall, log.busy
    active = [k for k, i in enumerate(keep) if busy[i] > 0]
    quiet = len(keep) - len(active)
    stall = [mem_stall[keep[k]] / busy[keep[k]] for k in active]
    active_norm = [norm[k] for k in active]
    active_bw = [bandwidths[k] for k in active]

    corr = _pearson(stall, active_norm) if active else None
    reason = None
    if corr is None:
        if not active:
            reason = "no_active_transfers"
        elif len(active) < 2:
            reason = "too_few_active_transfers"
        else:
            reason = "zero_variance"

    # Fig-10-style table: bin by stall fraction, report mean normalised
    # bandwidth per bin.  The last bin takes everything from its low
    # edge up: ``hi * n_bins / n_bins`` can round below ``hi``, and the
    # transfer with the highest stall fraction must still be binned.
    hi = max(max(stall, default=0.0), 1e-9)
    bins: List[Dict[str, object]] = []
    for b in range(n_bins):
        lo_edge = hi * b / n_bins
        hi_edge = hi * (b + 1) / n_bins
        last = b == n_bins - 1
        members = [k for k, sf in enumerate(stall)
                   if lo_edge <= sf and (last or sf < hi_edge)]
        if members:
            mean_bw = sum([active_norm[k] for k in members]) / len(members)
            mean_abs = sum([active_bw[k] for k in members]) / len(members)
        else:
            mean_bw = None
            mean_abs = None
        bins.append({
            "stall_lo": round(lo_edge, 6), "stall_hi": round(hi_edge, 6),
            "transfers": len(members),
            "mean_norm_bandwidth": (round(mean_bw, 6)
                                    if mean_bw is not None else None),
            "mean_bandwidth_Bps": (round(mean_abs, 3)
                                   if mean_abs is not None else None),
        })

    retries = log.retries
    report: Dict[str, object] = {
        "transfers": len(keep),
        "quiet_transfers": quiet,
        "retransmitted": sum(retries[i] for i in keep),
        "correlation": round(corr, 6) if corr is not None else None,
        "bins": bins,
    }
    # Only present on degenerate inputs: healthy exports keep their
    # exact pre-existing key set (byte-identity).
    if reason is not None:
        report["insufficient_data"] = reason
    return report


def render_attribution(report: Dict[str, object]) -> str:
    """Human-readable Fig-10-style table."""
    lines = ["interference attribution (bandwidth vs. memory stalls)",
             f"  transfers: {report['transfers']} "
             f"({report.get('quiet_transfers', 0)} overlapping no compute, "
             f"{report.get('retransmitted', 0)} retransmissions)"]
    corr = report.get("correlation")
    if corr is None:
        reason = report.get("insufficient_data",
                            "too_few_active_transfers")
        detail = INSUFFICIENT_REASONS.get(reason,
                                          "too few active transfers")
        lines.append(f"  correlation: n/a — insufficient data "
                     f"({detail})")
    else:
        trend = "matches Fig 10 (stalls depress bandwidth)" if corr < 0 \
            else "does NOT match Fig 10"
        lines.append(f"  correlation(stall fraction, norm. bandwidth): "
                     f"{corr:+.3f}  — {trend}")
    if report.get("bins"):
        lines.append(f"  {'stall fraction':>16}  {'transfers':>9}  "
                     f"{'norm. bw':>9}  {'mean bw':>12}")
        for b in report["bins"]:
            if b["mean_norm_bandwidth"] is None:
                bw, abw = "-", "-"
            else:
                bw = f"{b['mean_norm_bandwidth']:.3f}"
                abw = f"{b['mean_bandwidth_Bps'] / 1e9:.3f} GB/s"
            lines.append(
                f"  {b['stall_lo']:>7.3f}-{b['stall_hi']:<8.3f}"
                f"  {b['transfers']:>9}  {bw:>9}  {abw:>12}")
    return "\n".join(lines)
