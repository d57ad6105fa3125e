"""Hierarchical metrics registry: counters, gauges, histograms.

Names are dot-separated hierarchies (``net.transfers``,
``runtime.tasks``) and each instrument may carry labels
(``net.transfers{protocol=eager}``).  Instruments of the same name with
different label sets coexist; the registry keys on
``(name, sorted(labels))``.

The registry is a pure in-memory accumulator over simulated quantities —
it never touches the wall clock — so two identically-seeded runs export
byte-identical JSON.  ``snapshot``/``delta`` support the campaign
journal: the sweep guard snapshots before a point and journals the
per-point delta.
"""

from __future__ import annotations

import bisect
import json
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "metric_key", "parse_metric_key", "bucket_quantiles",
           "iter_indented_json", "JSONStream"]

LabelItems = Tuple[Tuple[str, str], ...]


def metric_key(name: str, labels: LabelItems) -> str:
    """Render ``name{k=v,...}`` (labels sorted) for exports."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, LabelItems]:
    """Inverse of :func:`metric_key`: ``"n{k=v}"`` → ``("n", (("k","v"),))``.

    Label values are plain identifiers/numbers throughout the stack (no
    commas or braces), so a straight split is exact.
    """
    name, brace, rest = key.partition("{")
    if not brace:
        return key, ()
    inner = rest.rstrip("}")
    items = []
    for part in inner.split(","):
        k, _, v = part.partition("=")
        items.append((k, v))
    return name, tuple(items)


class JSONStream:
    """A value that writes its own JSON text in :func:`iter_indented_json`.

    Subclasses implement :meth:`iter_json`, whose chunks must equal what
    ``json.dumps(..., indent=indent, sort_keys=True)`` writes at
    *depth* for the plain document the value stands for.  It lets a
    large export skip building that document.
    """

    __slots__ = ()

    def iter_json(self, depth: int, indent: int) -> Iterator[str]:
        raise NotImplementedError


_CONTAINERS = (list, tuple, dict, JSONStream)


def iter_indented_json(obj, indent: int = 1) -> Iterator[str]:
    """Chunks of ``json.dumps(obj, indent=indent, sort_keys=True)``.

    The joined chunks equal that call byte for byte, errors included,
    but most of the work runs in ``json``'s C encoder.  ``indent`` makes
    ``json.dumps`` use its pure-Python encoder, which is slow on the
    large exports telemetry writes (tens of thousands of transfer
    samples).  The C encoder takes no indent, but a container holding
    only scalars has a single level of items, so C encoding it with the
    item separator ``"," + newline + indentation`` gives exactly the
    indented items.  Only containers that hold other containers are
    walked here, and a :class:`JSONStream` value writes its own chunks
    (the transfer log streams its rows straight from its columns).
    """
    pad = " " * indent
    encoders: Dict[int, object] = {}

    def flat(value, depth: int) -> str:
        # *value* is a scalar or holds only scalars (items at *depth*).
        encode = encoders.get(depth)
        if encode is None:
            encode = encoders[depth] = json.JSONEncoder(
                sort_keys=True, check_circular=False,
                separators=(",\n" + pad * depth, ": ")).encode
        return encode(value)

    def walk(value, depth: int) -> Iterator[str]:
        if isinstance(value, dict):
            values = value.values()
        elif isinstance(value, (list, tuple)):
            values = value
        elif isinstance(value, JSONStream):
            yield from value.iter_json(depth, indent)
            return
        else:
            yield flat(value, depth)
            return
        if not value:
            yield "{}" if isinstance(value, dict) else "[]"
            return
        inner = "\n" + pad * (depth + 1)
        close = "\n" + pad * depth
        if not any(isinstance(v, _CONTAINERS) for v in values):
            text = flat(value, depth + 1)
            yield text[0] + inner
            yield text[1:-1]
            yield close + text[-1]
            return
        sep = inner
        if isinstance(value, dict):
            yield "{"
            for key, item in sorted(value.items()):
                yield sep + _json_key(key) + ": "
                sep = "," + inner
                yield from walk(item, depth + 1)
            yield close + "}"
        else:
            yield "["
            for item in value:
                yield sep
                sep = "," + inner
                yield from walk(item, depth + 1)
            yield close + "]"

    return walk(obj, 0)


def _json_key(key) -> str:
    """An encoded object key, converted the way ``json`` converts keys."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def to_state(self) -> float:
        return self.value


class Gauge:
    """Last-written value (e.g. a configuration knob or level)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_state(self) -> float:
        return self.value


# Generic default: spans micro-seconds to minutes for durations and
# bytes to gigabytes for sizes (values are unit-free here).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 3) for m in (1.0, 2.5, 5.0))

QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def bucket_quantiles(bounds, counts, count,
                     qs: Tuple[float, ...] = QUANTILES
                     ) -> Dict[str, object]:
    """Bucket-edge interpolated quantile estimates (p50/p95/p99).

    Linear interpolation inside the bucket holding the target rank;
    the lower edge of the first bucket is 0 (all observed quantities
    are non-negative).  A rank that lands in the *overflow* bucket has
    no upper edge to interpolate against: the estimate clamps to the
    last bound and the export says so with a ``p99_clamped: true``
    companion key — the true tail may be arbitrarily far above the
    reported value.  Exports without overflow ranks carry no extra
    keys, so healthy histograms serialize exactly as before.
    """
    if not count or not bounds:
        return {f"p{int(q * 100)}": 0.0 for q in qs}
    out: Dict[str, object] = {}
    for q in qs:
        target = q * count
        cum = 0.0
        est = bounds[-1]
        clamped = False
        for i, n in enumerate(counts):
            if not n:
                continue
            prev_cum = cum
            cum += n
            if cum >= target:
                overflow = i >= len(bounds)
                lo = bounds[i - 1] if i > 0 else 0.0
                hi = bounds[i] if not overflow else bounds[-1]
                est = lo + (hi - lo) * (target - prev_cum) / n
                clamped = overflow
                break
        key = f"p{int(q * 100)}"
        out[key] = est
        if clamped:
            out[f"{key}_clamped"] = True
    return out


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the implicit overflow bucket.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, bounds: Optional[Iterable[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(
            sorted(bounds)) if bounds is not None else DEFAULT_BUCKETS
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_state(self) -> Dict[str, object]:
        return {"sum": self.sum, "count": self.count,
                "buckets": list(self.counts),
                "quantiles": bucket_quantiles(self.bounds, self.counts,
                                              self.count)}


class MetricsRegistry:
    """Registry of named instruments, created lazily on first use."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], object] = {}

    # -- instrument accessors ---------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, object],
             **kwargs):
        items: LabelItems = tuple(
            sorted((k, str(v)) for k, v in labels.items()))
        key = (name, items)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(**kwargs)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {metric_key(name, items)!r} already registered "
                f"as {type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, bounds=buckets)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(sorted(self._instruments.items()))

    # -- snapshot / delta ---------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data view ``{key: {"type":..., "value"/state...}}``."""
        out: Dict[str, object] = {}
        for (name, labels), inst in sorted(self._instruments.items()):
            out[metric_key(name, labels)] = {
                "type": inst.kind, "value": inst.to_state()}
        return out

    def delta(self, before: Mapping[str, object]) -> Dict[str, object]:
        """Change since *before* (a prior :meth:`snapshot`).

        Counters and histograms subtract; gauges report their current
        value (a gauge's "delta" is just where it is now).
        """
        out: Dict[str, object] = {}
        for key, entry in self.snapshot().items():
            prev = before.get(key)
            kind = entry["type"]
            value = entry["value"]
            if prev is None or prev.get("type") != kind:
                out[key] = entry
                continue
            if kind == "counter":
                diff = value - prev["value"]
                if diff:
                    out[key] = {"type": kind, "value": diff}
            elif kind == "histogram":
                pv = prev["value"]
                dcount = value["count"] - pv["count"]
                if dcount:
                    dbuckets = [a - b for a, b in
                                zip(value["buckets"], pv["buckets"])]
                    inst = self._instruments.get(parse_metric_key(key))
                    out[key] = {"type": kind, "value": {
                        "sum": value["sum"] - pv["sum"],
                        "count": dcount,
                        "buckets": dbuckets,
                        # Quantiles of *this delta's* observations —
                        # merge_delta ignores them (it re-derives from
                        # the merged buckets).
                        "quantiles": bucket_quantiles(
                            inst.bounds if inst is not None else (),
                            dbuckets, dcount),
                    }}
            else:  # gauge
                out[key] = entry
        return out

    def merge_delta(self, delta: Mapping[str, object]) -> None:
        """Fold a per-point :meth:`delta` (possibly from another process)
        into this registry.

        The parallel sweep executor runs each point against a fresh
        worker-side registry and ships the point's delta back; merging
        the deltas in submission order reconstructs the registry a
        serial run would have accumulated.  Counters and histogram
        sums/counts/buckets add; gauges take the delta's (current)
        value, i.e. last-merge-wins — the same as last-write-wins in a
        serial run.
        """
        for key, entry in delta.items():
            name, labels = parse_metric_key(key)
            kwargs = dict(labels)
            kind = entry["type"]
            value = entry["value"]
            if kind == "counter":
                self.counter(name, **kwargs).inc(value)
            elif kind == "gauge":
                self.gauge(name, **kwargs).set(value)
            elif kind == "histogram":
                hist = self.histogram(name, **kwargs)
                buckets = value["buckets"]
                if len(buckets) != len(hist.counts):
                    raise ValueError(
                        f"histogram {key!r} bucket layout mismatch "
                        f"({len(buckets)} vs {len(hist.counts)})")
                hist.sum += value["sum"]
                hist.count += value["count"]
                for i, n in enumerate(buckets):
                    hist.counts[i] += n
            else:  # pragma: no cover - future instrument kinds
                raise ValueError(f"unknown metric type {kind!r}")

    # -- export -------------------------------------------------------------
    def to_json(self, extra: Optional[Mapping[str, object]] = None,
                indent: int = 1) -> str:
        """Deterministic JSON export (sorted keys, no wall-clock)."""
        return "".join(self._iter_json(extra, indent))

    def export(self, path, extra: Optional[Mapping[str, object]] = None
               ) -> None:
        """Stream :meth:`to_json` and a final newline to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._iter_json(extra, 1))
            fh.write("\n")

    def _iter_json(self, extra: Optional[Mapping[str, object]],
                   indent: int) -> Iterator[str]:
        doc: Dict[str, object] = {"metrics": self.snapshot()}
        if extra:
            doc.update(extra)
        return iter_indented_json(doc, indent)
