"""Multi-application co-scheduling on one simulated cluster.

An :class:`Application` is a unit of co-scheduled work: its own
rank→node placement (a :class:`~repro.mpi.comm.CommWorld` over a node
subset), its own communication pattern, and its own telemetry identity —
every transfer it performs is labelled with the app's name (metric
``app=`` labels, ``TransferSample.run``), so journals and reports
attribute fabric traffic per application.

Several applications run *simultaneously*: :func:`run_apps` starts all
their processes on the shared simulator and drives one ``sim.run()``, so
their flows contend for fabric links inside the same fluid solve — the
cross-application interference channel of "Modeling and Analysis of
Application Interference on Dragonfly+".

Patterns (all recycle buffers, NetPIPE-style):

``pingpong``
    Ranks are taken pairwise ``(0,1), (2,3), ...``; each pair ping-pongs
    ``reps`` times at ``size`` bytes.  The canonical victim/probe.
``ring``
    Every rank streams ``reps`` messages to its ring successor, all
    ranks concurrently — a shift exchange saturating many links at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import median
from repro.hardware.topology import Cluster
from repro.mpi.comm import CommWorld

__all__ = ["AppSpec", "AppResult", "Application", "run_apps"]

PATTERNS = ("pingpong", "ring")


@dataclass(frozen=True)
class AppSpec:
    """Declarative description of one co-scheduled application."""

    name: str
    pattern: str = "pingpong"
    nodes: Tuple[int, ...] = ()
    size: int = 1 << 20
    reps: int = 8
    warmup: int = 2
    comm_placement: str = "far"

    def __post_init__(self):
        if not self.name:
            raise ValueError("application needs a non-empty name")
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown app pattern {self.pattern!r}; pick one of "
                f"{', '.join(PATTERNS)}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) < 2:
            raise ValueError(
                f"app {self.name!r} needs at least 2 nodes, got "
                f"{list(self.nodes)}")
        if self.pattern == "pingpong" and len(self.nodes) % 2:
            raise ValueError(
                f"app {self.name!r}: pingpong needs an even rank count, "
                f"got {len(self.nodes)}")
        if self.size < 1:
            raise ValueError("size must be >= 1 byte")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "AppSpec":
        """Build from a scenario ``[[apps]]`` table, validating keys."""
        valid = {f.name for f in fields(cls)}
        bad = sorted(set(data) - valid)
        if bad:
            raise ValueError(
                f"unknown app field(s) {bad}; accepted: "
                f"{', '.join(sorted(valid))}")
        return cls(**data)


@dataclass
class AppResult:
    """Measured outcome of one application's co-scheduled run."""

    name: str
    pattern: str
    nodes: Tuple[int, ...]
    size: int
    latencies: List[float]           # per-message one-way durations (s)
    bytes_moved: float               # payload bytes incl. warmup
    duration: float                  # first start -> last completion (s)

    @property
    def median_latency(self) -> float:
        return median(self.latencies) if self.latencies else 0.0

    @property
    def bandwidth(self) -> float:
        """Per-message goodput at the median latency, bytes/s."""
        med = self.median_latency
        return self.size / med if med > 0 else 0.0

    @property
    def aggregate_bandwidth(self) -> float:
        """All payload bytes over the app's wall-clock window, bytes/s."""
        return self.bytes_moved / self.duration if self.duration > 0 \
            else 0.0

    def summary(self) -> str:
        return (f"{self.name}[{self.pattern} x{len(self.nodes)}]: "
                f"median {self.median_latency*1e6:.2f} us, "
                f"bw {self.bandwidth/1e9:.2f} GB/s, "
                f"aggregate {self.aggregate_bandwidth/1e9:.2f} GB/s")


class Application:
    """A live application: a world over its nodes plus pattern drivers."""

    def __init__(self, cluster: Cluster, spec: AppSpec):
        for node in spec.nodes:
            if not 0 <= node < len(cluster):
                raise ValueError(
                    f"app {spec.name!r} places a rank on node {node}, "
                    f"outside this {len(cluster)}-node cluster "
                    f"(valid ids: 0..{len(cluster) - 1})")
        self.spec = spec
        self.cluster = cluster
        self.world = CommWorld(cluster, comm_placement=spec.comm_placement,
                               nodes=spec.nodes)
        # Every transfer this app performs carries its name.
        self.world.engine.app = spec.name
        self._latencies: List[float] = []
        self._bytes = 0.0
        self._procs: List[object] = []
        self._t0 = 0.0
        self._t_end = 0.0

    # -- pattern drivers ---------------------------------------------------
    def _stream(self, pairs: List[Tuple[int, int]], sequential_reps: int):
        """One driver: ping messages over *pairs* in sequence, reps times."""
        spec = self.spec
        engine = self.world.engine
        sim = self.cluster.sim
        ranks = [self.world.rank(i) for i in range(len(self.world.ranks))]
        bufs: Dict[int, object] = {}

        def buf(idx: int):
            if idx not in bufs:
                bufs[idx] = ranks[idx].buffer(
                    spec.size, label=f"{spec.name}.r{idx}")
            return bufs[idx]

        for it in range(spec.warmup + sequential_reps):
            for a, b in pairs:
                ra, rb = ranks[a], ranks[b]
                rec = yield sim.process(engine.half_transfer(
                    ra.node_id, ra.comm_core, buf(a),
                    rb.node_id, rb.comm_core, buf(b), spec.size))
                self._bytes += spec.size
                if it >= spec.warmup:
                    self._latencies.append(rec.duration)
        self._t_end = max(self._t_end, sim.now)

    def _pingpong_streams(self):
        n = len(self.spec.nodes)
        for i in range(0, n, 2):
            yield [(i, i + 1), (i + 1, i)]

    def _ring_streams(self):
        n = len(self.spec.nodes)
        for i in range(n):
            yield [(i, (i + 1) % n)]

    def start(self) -> "Application":
        """Spawn the pattern's driver processes (one per stream)."""
        if self._procs:
            raise RuntimeError(f"app {self.spec.name!r} already started")
        streams = {
            "pingpong": self._pingpong_streams,
            "ring": self._ring_streams,
        }[self.spec.pattern]()
        sim = self.cluster.sim
        self._t0 = sim.now
        for pairs in streams:
            self._procs.append(
                sim.process(self._stream(pairs, self.spec.reps)))
        return self

    def collect(self) -> AppResult:
        """Harvest results after ``sim.run()``; re-raises driver errors."""
        if not self._procs:
            raise RuntimeError(f"app {self.spec.name!r} was never started")
        for p in self._procs:
            if not p.ok:
                _ = p.value      # re-raise the stream's exception
        return AppResult(
            name=self.spec.name, pattern=self.spec.pattern,
            nodes=self.spec.nodes, size=self.spec.size,
            latencies=list(self._latencies),
            bytes_moved=self._bytes,
            duration=self._t_end - self._t0)


def run_apps(cluster: Cluster,
             specs: Sequence[AppSpec]) -> Dict[str, AppResult]:
    """Co-schedule *specs* on *cluster*: start every application, drive
    one shared ``sim.run()``, and return results keyed by app name.

    Placements must be disjoint — two apps sharing a node would also
    share its communication core, silently serialising them.
    """
    if not specs:
        raise ValueError("need at least one application")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate application names in {names}")
    used: Dict[int, str] = {}
    for s in specs:
        for node in s.nodes:
            if node in used:
                raise ValueError(
                    f"apps {used[node]!r} and {s.name!r} both place a "
                    f"rank on node {node}; placements must be disjoint")
            used[node] = s.name
    apps = [Application(cluster, s) for s in specs]
    for app in apps:
        app.start()
    cluster.sim.run()
    return {app.spec.name: app.collect() for app in apps}
