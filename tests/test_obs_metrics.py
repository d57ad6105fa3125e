"""Metrics registry: instrument semantics, snapshot/delta, exports."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.attribution import EXPORT_CHUNK, TransferLog, TransferSample
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               iter_indented_json, metric_key)


def test_metric_key_rendering():
    assert metric_key("net.transfers", ()) == "net.transfers"
    assert metric_key("net.transfers", (("protocol", "eager"),)) == \
        "net.transfers{protocol=eager}"


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("sim.events")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_same_name_different_labels_coexist():
    reg = MetricsRegistry()
    reg.counter("net.transfers", protocol="eager").inc()
    reg.counter("net.transfers", protocol="rendezvous").inc(2)
    assert reg.counter("net.transfers", protocol="eager").value == 1
    assert reg.counter("net.transfers", protocol="rendezvous").value == 2
    assert len(reg) == 2


def test_instrument_identity_is_stable():
    reg = MetricsRegistry()
    assert reg.counter("a", x=1) is reg.counter("a", x=1)
    assert reg.gauge("g") is reg.gauge("g")


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("a")
    with pytest.raises(TypeError):
        reg.gauge("a")


def test_gauge_set_inc():
    g = Gauge()
    g.set(4.0)
    g.inc()
    g.inc(-2.0)
    assert g.value == 3.0


def test_histogram_buckets_sum_count():
    h = Histogram(bounds=[1.0, 10.0])
    for v in (0.5, 5.0, 50.0, 0.2):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(55.7)
    assert h.counts == [2, 1, 1]       # <=1, <=10, overflow
    assert h.mean == pytest.approx(55.7 / 4)


def test_snapshot_and_delta():
    reg = MetricsRegistry()
    reg.counter("c").inc(5)
    reg.gauge("g").set(7)
    reg.histogram("h", buckets=[1.0]).observe(0.5)
    before = reg.snapshot()

    reg.counter("c").inc(3)
    reg.gauge("g").set(9)
    reg.histogram("h", buckets=[1.0]).observe(2.0)
    delta = reg.delta(before)

    assert delta["c"] == {"type": "counter", "value": 3}
    assert delta["g"] == {"type": "gauge", "value": 9}
    assert delta["h"]["value"]["count"] == 1
    assert delta["h"]["value"]["buckets"] == [0, 1]


def test_delta_omits_unchanged_counters():
    reg = MetricsRegistry()
    reg.counter("quiet").inc(2)
    before = reg.snapshot()
    reg.counter("busy").inc()
    delta = reg.delta(before)
    assert "quiet" not in delta
    assert delta["busy"]["value"] == 1


def test_export_is_deterministic_and_parseable(tmp_path):
    def build():
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first", k="v").inc(2)
        reg.gauge("mid").set(1.5)
        return reg

    a, b = build().to_json(), build().to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["metrics"]["a.first{k=v}"]["value"] == 2

    path = tmp_path / "m.json"
    build().export(path, extra={"note": "hi"})
    on_disk = json.loads(path.read_text())
    assert on_disk["note"] == "hi"
    assert on_disk["metrics"] == doc["metrics"]


def test_histogram_state_carries_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[1.0, 2.0, 4.0])
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    state = h.to_state()
    q = state["quantiles"]
    assert set(q) == {"p50", "p95", "p99"}
    # Rank interpolation: p50 target rank 2 lands in the (1, 2] bucket.
    assert 1.0 <= q["p50"] <= 2.0
    assert 2.0 <= q["p95"] <= 4.0
    assert q["p50"] <= q["p95"] <= q["p99"]


def test_empty_histogram_quantiles_are_zero():
    reg = MetricsRegistry()
    q = reg.histogram("h").to_state()["quantiles"]
    assert q == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_delta_quantiles_reflect_only_the_delta():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[1.0, 10.0, 100.0])
    h.observe(0.5)                       # pre-existing small observation
    before = reg.snapshot()
    h.observe(50.0)
    h.observe(50.0)
    delta = reg.delta(before)["h"]["value"]
    assert delta["count"] == 2
    # Both delta observations sit in the (10, 100] bucket.
    assert 10.0 <= delta["quantiles"]["p50"] <= 100.0


def test_merge_delta_ignores_quantiles_and_rederives():
    src = MetricsRegistry()
    h = src.histogram("h", buckets=[1.0, 2.0])
    h.observe(1.5)
    delta = src.delta({})
    assert "quantiles" in delta["h"]["value"]

    dst = MetricsRegistry()
    dst.histogram("h", buckets=[1.0, 2.0])
    dst.merge_delta(delta)
    merged = dst.snapshot()["h"]["value"]
    assert merged["count"] == 1
    assert merged["quantiles"] == delta["h"]["value"]["quantiles"]


def test_counter_only_export_has_no_quantiles():
    """Exports without histograms must not change shape (byte-identity
    of pre-existing counter/gauge-only exports)."""
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(2.0)
    assert "quantiles" not in reg.to_json()


def test_overflow_quantiles_clamp_to_last_bound_and_flag():
    """Ranks landing in the implicit overflow bucket have no upper edge:
    the estimate clamps to the last bound and says so."""
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[1.0, 2.0])
    for _ in range(10):
        h.observe(100.0)
    q = h.to_state()["quantiles"]
    assert q["p50"] == q["p95"] == q["p99"] == 2.0
    assert q["p50_clamped"] is q["p95_clamped"] is q["p99_clamped"] is True


def test_partial_overflow_flags_only_tail_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[1.0, 2.0])
    for _ in range(9):
        h.observe(0.5)
    h.observe(100.0)
    q = h.to_state()["quantiles"]
    assert "p50_clamped" not in q
    assert q["p50"] < 1.0
    assert q["p99"] == 2.0
    assert q["p99_clamped"] is True


def test_healthy_histogram_export_has_no_clamp_keys():
    """Byte-identity guard: exports without overflow ranks must keep
    their exact pre-existing key set."""
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=[1.0, 2.0, 4.0])
    for v in (0.5, 1.5, 3.0):
        h.observe(v)
    q = h.to_state()["quantiles"]
    assert set(q) == {"p50", "p95", "p99"}
    assert "clamped" not in reg.to_json()


# -- the indented export encoder ---------------------------------------------

def _both(doc, indent=1):
    """(stdlib result, iter_indented_json result); an exception counts
    as its type and message."""
    out = []
    for encode in (lambda: json.dumps(doc, indent=indent, sort_keys=True),
                   lambda: "".join(iter_indented_json(doc, indent))):
        try:
            out.append(encode())
        except (TypeError, ValueError) as err:
            out.append((type(err), str(err)))
    return out


_scalars = (st.none() | st.booleans()
            | st.integers(-2 ** 70, 2 ** 70)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text())
# Keys of one JSON-legal kind per dict, so that sort_keys can order
# them: text (non-ASCII and escapes included), numbers (bool, int and
# float mixed, NaN and +-inf included), or the lone None.
_keys = st.one_of(
    st.dictionaries(st.text(), st.just(0)),
    st.dictionaries(st.booleans() | st.integers(-50, 50)
                    | st.floats(allow_nan=True, allow_infinity=True),
                    st.just(0)),
    st.just({None: 0}),
).map(list)


def _dicts(values):
    return st.tuples(_keys, st.lists(values, min_size=12, max_size=12)) \
        .map(lambda kv: dict(zip(kv[0], kv[1])))


_docs = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=4).map(tuple)
                   | _dicts(inner)),
    max_leaves=40)


@given(_docs, st.sampled_from([0, 1, 2]))
def test_indented_encoder_matches_stdlib_bytewise(doc, indent):
    stdlib, ours = _both(doc, indent)
    assert ours == stdlib


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": [], "c": [{}, [], [[]]]},
    {"x": [1.5, float("nan"), float("inf"), -float("inf"), None, True]},
    {2.5: [1], True: [2], -1: {"\u00e9\n\"": "\x00"}},
    {None: [{}]}, {float("nan"): {"k": [1]}, float("-inf"): [0]},
    "caf\u00e9 \ud83d\ude00", 7, -0.0, None,
])
def test_indented_encoder_edge_cases(doc):
    stdlib, ours = _both(doc)
    assert ours == stdlib


@pytest.mark.parametrize("doc", [
    {(1, 2): [1]},                 # non-str key in a nested container
    {(1, 2): 1},                   # ... and in a scalar-only one
    {"a": [{1: 0, "b": [0]}]},     # keys sort_keys cannot order
    {"a": [object()]},             # value json cannot encode
])
def test_indented_encoder_rejects_what_stdlib_rejects(doc):
    stdlib, ours = _both(doc)
    assert isinstance(stdlib, tuple)
    assert ours == stdlib


def test_real_metrics_export_is_stdlib_json(tmp_path):
    """A real `repro run --metrics` file is exactly what stdlib json
    writes for the same document."""
    from repro.cli import main
    path = tmp_path / "m.json"
    assert main(["run", "fig1a", "--fast", "--metrics", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["transfer_samples"]
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"


# -- the transfer log's column export ----------------------------------------

def _row_dict(s):
    """One exported transfer row, as the row-per-object export built it."""
    return {"t": s.t, "run": s.run, "src": s.src, "dst": s.dst,
            "size": s.size, "protocol": s.protocol,
            "duration": s.duration, "bandwidth": s.bandwidth,
            "mem_stall": s.mem_stall, "busy": s.busy,
            "stall_fraction": s.mem_stall / s.busy if s.busy > 0 else 0.0,
            "retries": s.retries}


_any_float = st.floats(allow_nan=True, allow_infinity=True) \
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                       -float("inf")])
_int64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# Several apps, plus labels json has to escape.
_labels = st.sampled_from(["", "victim", "noise", "café", 'q"uo\\te',
                           "漢\x00\n"]) | st.text(max_size=6)
_samples = st.builds(
    TransferSample, t=_any_float, run=_labels, src=_int64, dst=_int64,
    size=_int64, protocol=st.sampled_from(["eager", "rendezvous"]),
    duration=_any_float, bandwidth=_any_float, mem_stall=_any_float,
    busy=_any_float, retries=st.integers(0, 2 ** 40))


def _assert_log_exports_like_rows(samples, indent=1):
    log = TransferLog()
    for s in samples:
        log.append(*dataclasses.astuple(s))
    reg = MetricsRegistry()
    reg.counter("net.transfers").inc(len(samples))
    rows = [_row_dict(s) for s in samples]
    # At depth 1 (the metrics export) and nested one level deeper.
    for doc, plain in (
            ({"transfer_samples": log}, {"transfer_samples": rows}),
            ({"a": [{"b": log}, log]}, {"a": [{"b": rows}, rows]})):
        expected = json.dumps(plain, indent=indent, sort_keys=True)
        assert "".join(iter_indented_json(doc, indent)) == expected
    expected = json.dumps({"metrics": reg.snapshot(),
                           "transfer_samples": rows},
                          indent=1, sort_keys=True)
    assert reg.to_json(extra={"transfer_samples": log}) == expected


@given(st.lists(_samples, max_size=40), st.sampled_from([0, 1, 2]))
def test_transfer_log_export_matches_row_dicts(samples, indent):
    _assert_log_exports_like_rows(samples, indent)


@pytest.mark.parametrize("n", [0, 1, EXPORT_CHUNK - 1, EXPORT_CHUNK,
                               EXPORT_CHUNK + 1, 2 * EXPORT_CHUNK + 3])
def test_transfer_log_export_around_the_chunk_length(n):
    special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"),
               1e-300, 2.5e9, 1 / 3]
    samples = [
        TransferSample(t=i * 1e-6, run=("victim", 'n"é', "")[i % 3],
                       src=i % 4, dst=(i + 1) % 4, size=64 << (i % 8),
                       protocol=("eager", "rendezvous")[i % 2],
                       duration=special[i % 8], bandwidth=special[-i % 8],
                       mem_stall=special[(i * 3) % 8],
                       busy=special[(i * 5) % 8], retries=i % 3)
        for i in range(n)]
    _assert_log_exports_like_rows(samples)
