"""The four benchmark workloads over sim -> gmond -> ingest -> classify -> serve.

Each workload has a ``setup(seed)`` that trains the classifier and
generates the workload's inputs (timed as ``setup_s``), and a
``measure(inputs, seconds, ...)`` that runs the timed phase, checks
every output and returns an :class:`Outcome`.  A failed output check
raises :class:`CheckFailed`.

Why these four: later changes to the simulator, the neighbour search,
the ingest path and the per-request serving path each do most of their
work in one workload and little in another, so each claim has a
workload where it should show and one where it should not.

CPU-bound times (closed-loop work, per-operation latency, set-up) are
rescaled to a nominal machine speed.  On a shared machine the speed of
the same code drifts by 10-20% over seconds and minutes; a fixed
pure-Python reference loop, timed between operations while the program
is idle, tracks that drift, and each operation's wall time is scaled by
``REFERENCE_NOMINAL_S / reference time``.  Open-loop latencies are
dominated by waiting (due times, batch timers, pump cadence) and stay
in raw wall time.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np

from repro import obs
from repro.core.labels import SnapshotClass
from repro.core.online import OnlineClassifier
from repro.errors import ServiceOverloadedError
from repro.experiments.fig45 import run_fig45
from repro.experiments.fleet import profile_fleet
from repro.experiments.training import build_trained_classifier
from repro.ingest import IngestPlane
from repro.metrics.catalog import metric_indices
from repro.metrics.series import SnapshotSeries
from repro.monitoring.multicast import MetricAnnouncement, MulticastChannel
from repro.scheduler import throughput
from repro.serve import BatchClassifier, ClassificationService

clock = time.perf_counter
#: Share of a run's seconds spent in the open-loop phase of the two
#: workloads that have one; the rest is the closed-loop phase.
OPEN_SHARE = 1 / 4
#: Reference-loop time on the nominal machine; scaled times are the
#: times the work would take on a machine that runs the loop this fast.
REFERENCE_NOMINAL_S = 0.0006

Untimed = Callable[[], ContextManager]


class CheckFailed(AssertionError):
    """A workload's output differs from what the program must produce."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed."""
    times = []
    for _ in range(5):
        t0 = clock()
        total = 0
        for i in range(10_000):
            total += i * i
        times.append(clock() - t0)
    return statistics.median(times)


class SpeedScale:
    """Rescales wall times by the reference loop timed around them."""

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def scale(self, wall_s: float) -> float:
        """*wall_s*, just measured, at nominal speed (averaging the probes on either side)."""
        self.samples.append(reference_s())
        return wall_s * REFERENCE_NOMINAL_S * 2.0 / (self.samples[-2] + self.samples[-1])


@dataclass
class Outcome:
    """What one measured phase did."""

    #: Units of work done in the closed-loop phase, its wall seconds and
    #: the same seconds at nominal speed.
    work: float = 0.0
    wall_s: float = 0.0
    nominal_s: float = 0.0
    #: Closed-loop operations completed (the replay size for overhead).
    closed_ops: int = 0
    #: Per-result latencies in seconds: open loop, due -> class available
    #: (wall); closed loop, per operation (nominal speed).
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: How late the open-loop generator ran, per send (seconds).
    generator_lag_s: list[float] = field(default_factory=list)
    #: Reference-loop times taken during the phase.
    reference_s: list[float] = field(default_factory=list)
    #: Counts the workload reads off the program (``ingest.late`` ...).
    counts: dict[str, float] = field(default_factory=dict)


def _train(seed: int):
    return build_trained_classifier(seed=seed).classifier


def _corpus(seed: int, runs: int, base_duration_s: float) -> list[SnapshotSeries]:
    """Simulated fleet windows in the CPU/IO/IDLE rotation (gmond recordings)."""
    return profile_fleet(runs, seed=seed, base_duration_s=base_duration_s, duration_step_s=10.0)


def _more(done: int, closed_ops: int | None, wall_s: float, budget_s: float) -> bool:
    """Whether the closed loop goes on: by count when replaying, else by time."""
    return done < closed_ops if closed_ops is not None else wall_s < budget_s


# ----------------------------------------------------------------------
# fleet_profile
# ----------------------------------------------------------------------
#: Class of fleet member i is the rotation entry i % 3 (see profile_fleet).
FLEET_ROTATION = (SnapshotClass.CPU, SnapshotClass.IO, SnapshotClass.IDLE)


class FleetProfile:
    """Rounds of profile_fleet (sim + gmond + filter) then one classify_batch."""

    name = "fleet_profile"
    work_unit = "snapshots simulated, announced, filtered and classified"
    obs_enabled = False
    #: Runs per round and their length: 6 runs of ~100 snapshots each.
    RUNS = 6
    BASE_DURATION_S = 480.0

    def setup(self, seed: int) -> dict:
        return {"classifier": _train(seed), "seed": seed}

    def measure(self, inputs: dict, seconds: float, closed_ops: int | None = None,
                open_loop: bool = True, untimed: Untimed = nullcontext) -> Outcome:
        clf = inputs["classifier"]
        batch = BatchClassifier(clf)
        out = Outcome()
        with untimed():
            speed = SpeedScale()
        while _more(out.closed_ops, closed_ops, out.wall_s, seconds):
            round_seed = inputs["seed"] * 100_000 + out.closed_ops * self.RUNS
            t0 = clock()
            fleet = profile_fleet(
                self.RUNS, seed=round_seed, base_duration_s=self.BASE_DURATION_S, duration_step_s=10.0
            )
            results = batch.classify_batch(fleet)
            elapsed = clock() - t0
            with untimed():
                scaled = speed.scale(elapsed)
                out.closed_ops += 1
                out.wall_s += elapsed
                out.nominal_s += scaled
                out.latencies_s.append(scaled)
                out.work += sum(len(s) for s in fleet)
                out.attempted += self.RUNS
                for i, (series, result) in enumerate(zip(fleet, results)):
                    expected = FLEET_ROTATION[i % len(FLEET_ROTATION)]
                    check(result.application_class is expected,
                          f"fleet run {i} (seed {round_seed + i}) classified "
                          f"{result.application_class.name}, expected {expected.name}")
                    ref = clf.classify_series(series)
                    check(np.array_equal(result.class_vector, ref.class_vector)
                          and np.array_equal(result.scores, ref.scores)
                          and result.composition == ref.composition,
                          f"fleet run {i}: classify_batch differs from classify_series")
        out.reference_s = speed.samples
        return out


# ----------------------------------------------------------------------
# schedule_sweep
# ----------------------------------------------------------------------
class ScheduleSweep:
    """run_fig45 at its default horizon: ten multi-tenant schedules, no gmond."""

    name = "schedule_sweep"
    work_unit = "simulated seconds (schedules x horizon)"
    obs_enabled = False
    HORIZON_S = 2400.0
    #: DESIGN.md section 5: SPN beats the weighted average by more than this.
    MIN_SPN_GAIN_PERCENT = 15.0

    def setup(self, seed: int) -> dict:
        # The sweep classifies nothing, but set-up trains the classifier on
        # every workload so that setup_s measures the same thing on each.
        return {"classifier": _train(seed), "seed": seed}

    def measure(self, inputs: dict, seconds: float, closed_ops: int | None = None,
                open_loop: bool = True, untimed: Untimed = nullcontext) -> Outcome:
        out = Outcome()
        with untimed():
            speed = SpeedScale()
        # A sweep takes seconds, over which the machine's speed drifts, so
        # the speed is probed after each of its ten schedules.  The probes
        # are taken out of the sweep's time.
        evaluate = throughput.evaluate_schedule
        schedules: list[tuple[float, float, float]] = []

        def probed(*args, **kwargs):
            t0 = clock()
            result = evaluate(*args, **kwargs)
            elapsed = clock() - t0
            with untimed():
                t1 = clock()
                scaled = speed.scale(elapsed)
                schedules.append((elapsed, scaled, clock() - t1))
            return result

        throughput.evaluate_schedule = probed
        try:
            while _more(out.closed_ops, closed_ops, out.wall_s, seconds):
                schedules.clear()
                t0 = clock()
                fig = run_fig45(horizon=self.HORIZON_S, seed=inputs["seed"])
                elapsed = clock() - t0 - sum(probe for _, _, probe in schedules)
                with untimed():
                    # The sweep's time outside the schedules is scaled by the last probe.
                    rest = elapsed - sum(wall for wall, _, _ in schedules)
                    scaled = sum(s for _, s, _ in schedules) + rest * REFERENCE_NOMINAL_S / speed.samples[-1]
                    out.closed_ops += 1
                    out.wall_s += elapsed
                    out.nominal_s += scaled
                    out.latencies_s.append(scaled)
                    out.work += len(fig.results) * self.HORIZON_S
                    out.attempted += len(fig.results)
                    check(len(fig.results) == 10, f"expected 10 schedules, got {len(fig.results)}")
                    check(fig.best is fig.spn, f"best schedule is {fig.best.schedule.number}, not SPN (10)")
                    gain = fig.spn_improvement_percent()
                    check(gain > self.MIN_SPN_GAIN_PERCENT,
                          f"SPN beats the weighted average by {gain:.2f}%, not > {self.MIN_SPN_GAIN_PERCENT}%")
        finally:
            throughput.evaluate_schedule = evaluate
        out.reference_s = speed.samples
        return out


# ----------------------------------------------------------------------
# ingest_replay
# ----------------------------------------------------------------------
class IngestReplay:
    """Recorded gmond announcements tiled over many nodes, replayed through
    MulticastChannel -> IngestPlane -> OnlineClassifier.pump with obs off."""

    name = "ingest_replay"
    work_unit = "announcements delivered and classified"
    obs_enabled = False
    NODES = 128
    HEARTBEAT_S = 5.0
    CORPUS_RUNS = 6
    CORPUS_BASE_DURATION_S = 480.0
    #: Network delay is uniform in [0, MAX_DELAY_S); the watermark holds
    #: back LATENESS_S, so some announcements arrive late and take the
    #: late-row path.
    MAX_DELAY_S = 1.5
    LATENESS_S = 1.0
    #: Closed loop: one pump per four fleet heartbeats of arrivals, and a
    #: speed probe after every SEGMENT_BLOCKS pumps.
    BLOCK_TICKS = 4
    SEGMENT_BLOCKS = 32
    #: Open loop: a fixed announcement rate, well below closed-loop
    #: capacity, consumed by a pump every PUMP_INTERVAL_S.
    OPEN_RATE_PER_S = 20_000.0
    PUMP_INTERVAL_S = 0.005

    def setup(self, seed: int) -> dict:
        clf = _train(seed)
        corpus = _corpus(seed * 1000 + 7, self.CORPUS_RUNS, self.CORPUS_BASE_DURATION_S)
        rows = np.ascontiguousarray(np.concatenate([s.matrix.T for s in corpus]))
        lengths = np.array([len(s) for s in corpus])
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        rng = np.random.default_rng(seed)
        source = rng.integers(0, len(corpus), size=self.NODES)
        return {
            "classifier": clf,
            "rows": rows,
            "node_start": starts[source],
            "node_len": lengths[source],
            "node_offset": rng.integers(0, 1 << 20, size=self.NODES),
            "phase": rng.uniform(0.0, self.HEARTBEAT_S, size=self.NODES),
            "names": [f"node{n:03d}" for n in range(self.NODES)],
            "seed": seed,
        }

    def _row_of(self, inputs: dict, node: np.ndarray, tick: np.ndarray) -> np.ndarray:
        return inputs["node_start"][node] + (inputs["node_offset"][node] + tick) % inputs["node_len"][node]

    def measure(self, inputs: dict, seconds: float, closed_ops: int | None = None,
                open_loop: bool = True, untimed: Untimed = nullcontext) -> Outcome:
        clf = inputs["classifier"]
        with untimed():
            # Expected code of every corpus row, each classified alone.
            idx = np.asarray(metric_indices(clf.preprocessor.selector.names), dtype=np.intp)
            selected = inputs["rows"][:, idx]
            alone = np.array([clf.classify_rows(selected[i : i + 1])[0] for i in range(selected.shape[0])])
            speed = SpeedScale()
        channel = MulticastChannel()
        plane = IngestPlane(channel, lateness_s=self.LATENESS_S)
        online = OnlineClassifier(clf, plane)
        stream = _ArrivalStream(self, inputs, np.random.default_rng(inputs["seed"] + 1))
        out = Outcome()
        ref = _ReferenceFold(self.NODES)
        name_to_node = {name: n for n, name in enumerate(inputs["names"])}
        plane_nodes = np.empty(0, dtype=np.intp)

        def verify(drained) -> tuple[np.ndarray, np.ndarray]:
            nonlocal plane_nodes
            if len(drained.nodes) != plane_nodes.shape[0]:
                plane_nodes = np.array([name_to_node[n] for n in drained.nodes], dtype=np.intp)
            node = plane_nodes[drained.node_ids]
            tick = np.rint((drained.timestamps - inputs["phase"][node]) / self.HEARTBEAT_S).astype(np.int64)
            expected = alone[self._row_of(inputs, node, tick)]
            bad = np.flatnonzero(drained.codes != expected)
            check(bad.size == 0, f"{bad.size} drained rows differ from classify_rows on the row alone")
            ref.fold(node, drained.timestamps, drained.codes)
            return node, tick

        # -- closed loop: deliver a block of arrivals, pump, repeat -----
        segment_s = 0.0
        while _more(out.closed_ops, closed_ops, out.wall_s, seconds * (1 - OPEN_SHARE)):
            with untimed():
                announcements, _, _, _ = stream.take(self.NODES * self.BLOCK_TICKS)
            t0 = clock()
            for a in announcements:
                channel.announce(a)
            drained = online.pump()
            elapsed = clock() - t0
            with untimed():
                out.closed_ops += 1
                out.wall_s += elapsed
                segment_s += elapsed
                out.work += len(drained)
                out.attempted += len(announcements)
                verify(drained)
                if out.closed_ops % self.SEGMENT_BLOCKS == 0:
                    out.nominal_s += speed.scale(segment_s)
                    segment_s = 0.0
        t0 = clock()
        drained = online.pump(flush=True)
        elapsed = clock() - t0
        with untimed():
            out.wall_s += elapsed
            out.nominal_s += speed.scale(segment_s + elapsed)
            out.work += len(drained)
            verify(drained)

        # -- open loop: a fixed announcement rate, due time from arrival -
        if open_loop:
            with untimed():
                n = max(1, int(self.OPEN_RATE_PER_S * seconds * OPEN_SHARE))
                announcements, node, tick, arrival = stream.take(n)
                wall_per_sim_s = self.NODES / (self.OPEN_RATE_PER_S * self.HEARTBEAT_S)
                due = (arrival - arrival[0]) * wall_per_sim_s
                tick0 = int(tick.min())
                due_of = np.empty((self.NODES, int(tick.max()) - tick0 + 1))
                due_of[node, tick - tick0] = due
            i = 0
            next_pump = self.PUMP_INTERVAL_S
            start = clock()
            while True:
                now = clock() - start
                if i < n and due[i] <= now:
                    out.generator_lag_s.append(now - due[i])
                    j = int(np.searchsorted(due, now, side="right"))
                    for a in announcements[i:j]:
                        channel.announce(a)
                    i = j
                if now >= next_pump or i == n:
                    drained = online.pump(flush=i == n)
                    done = clock() - start
                    with untimed():
                        node, tick = verify(drained)
                        out.latencies_s.extend((done - due_of[node, tick - tick0]).tolist())
                    if i == n:
                        break
                    while next_pump <= done:
                        next_pump += self.PUMP_INTERVAL_S
                wake = min(due[i], next_pump) - (clock() - start)
                if wake > 0:
                    time.sleep(wake)
            out.attempted += n

        with untimed():
            stats = plane.stats()
            lost = stats.overflowed + stats.late_dropped
            out.failed = lost
            check(stats.buffered == 0, f"{stats.buffered} announcements left in the rings")
            check(stats.drained_rows + lost + stats.duplicates == out.attempted,
                  f"drained {stats.drained_rows} + lost {lost} + duplicates {stats.duplicates} "
                  f"!= delivered {out.attempted}")
            ref.compare(online, inputs["names"])
        out.counts = {
            "ingest.late": float(stats.late_accepted + stats.late_dropped),
            "ingest.overflowed": float(stats.overflowed),
            "ingest.duplicates": float(stats.duplicates),
        }
        out.reference_s = speed.samples
        online.detach()
        plane.detach()
        return out


class _ArrivalStream:
    """The replay's announcements in arrival order, generated tick by tick.

    Node *n*'s announcement of tick *k* carries timestamp
    ``k * HEARTBEAT_S + phase[n]`` and arrives after a uniform delay in
    ``[0, MAX_DELAY_S)``; announcements of consecutive ticks interleave
    in arrival order exactly, across the calls to :meth:`take`.
    """

    def __init__(self, replay: IngestReplay, inputs: dict, rng: np.random.Generator) -> None:
        self.replay = replay
        self.inputs = inputs
        self.rng = rng
        self.next_tick = 0
        self.node = np.empty(0, dtype=np.int64)
        self.tick = np.empty(0, dtype=np.int64)
        self.arrival = np.empty(0)

    def take(self, count: int):
        """The next *count* arrivals: announcements, nodes, ticks, arrival times."""
        r = self.replay
        # Everything generated so far that arrives before the next tick's
        # earliest announcement is final; generate until that covers count.
        while np.count_nonzero(self.arrival < self.next_tick * r.HEARTBEAT_S) < count:
            ts = self.next_tick * r.HEARTBEAT_S + self.inputs["phase"]
            self.node = np.concatenate([self.node, np.arange(r.NODES)])
            self.tick = np.concatenate([self.tick, np.full(r.NODES, self.next_tick)])
            self.arrival = np.concatenate([self.arrival, ts + self.rng.uniform(0.0, r.MAX_DELAY_S, r.NODES)])
            self.next_tick += 1
        order = np.argsort(self.arrival, kind="stable")
        self.node, self.tick, self.arrival = self.node[order], self.tick[order], self.arrival[order]
        node, tick, arrival = self.node[:count], self.tick[:count], self.arrival[:count]
        self.node, self.tick, self.arrival = self.node[count:], self.tick[count:], self.arrival[count:]
        ts = tick * r.HEARTBEAT_S + self.inputs["phase"][node]
        rows = self.inputs["rows"]
        names = self.inputs["names"]
        announcements = [
            MetricAnnouncement(node=names[n], timestamp=t, values=rows[i])
            for n, t, i in zip(node.tolist(), ts.tolist(), r._row_of(self.inputs, node, tick).tolist())
        ]
        return announcements, node, tick, arrival


class _ReferenceFold:
    """Per-node rolling state folded one row at a time, in drain order."""

    def __init__(self, nodes: int) -> None:
        self.counts = [[0] * len(SnapshotClass) for _ in range(nodes)]
        self.current = [-1] * nodes
        self.streak = [0] * nodes
        self.last_ts = [None] * nodes

    def fold(self, node: np.ndarray, timestamps: np.ndarray, codes: np.ndarray) -> None:
        for n, t, c in zip(node.tolist(), timestamps.tolist(), codes.tolist()):
            self.counts[n][c] += 1
            self.last_ts[n] = t
            if c == self.current[n]:
                self.streak[n] += 1
            else:
                self.current[n] = c
                self.streak[n] = 1

    def compare(self, online: OnlineClassifier, names: list[str]) -> None:
        for n, name in enumerate(names):
            if self.last_ts[n] is None:
                continue
            state = online.state(name)
            check(state.class_counts.tolist() == self.counts[n]
                  and state.snapshots_seen == sum(self.counts[n])
                  and int(state.current_class) == self.current[n]
                  and state.streak == self.streak[n]
                  and state.last_timestamp == self.last_ts[n],
                  f"per-node state of {name} differs from the row-by-row fold")


# ----------------------------------------------------------------------
# serve_windows
# ----------------------------------------------------------------------
class ServeWindows:
    """1-minute per-node windows through ClassificationService, obs enabled."""

    name = "serve_windows"
    work_unit = "windows served"
    obs_enabled = True
    WINDOW = 12
    CORPUS_RUNS = 6
    CORPUS_BASE_DURATION_S = 480.0
    #: Closed loop: requests kept outstanding (below the default max_queue
    #: 64), in segments of SEGMENT_REQUESTS with a speed probe between
    #: segments while the service is idle.
    OUTSTANDING = 32
    SEGMENT_REQUESTS = 2000
    #: Open loop: a fixed request rate, well below the service's capacity.
    OPEN_RATE_PER_S = 500.0

    def setup(self, seed: int) -> dict:
        clf = _train(seed)
        corpus = _corpus(seed * 1000 + 11, self.CORPUS_RUNS, self.CORPUS_BASE_DURATION_S)
        windows = []
        for r, series in enumerate(corpus):
            for start in range(0, len(series) - self.WINDOW + 1, self.WINDOW):
                stop = start + self.WINDOW
                windows.append(SnapshotSeries(
                    node=f"node{r:02d}-{start // self.WINDOW:02d}",
                    timestamps=series.timestamps[start:stop],
                    matrix=series.matrix[:, start:stop],
                ))
        order = np.random.default_rng(seed).permutation(len(windows))
        return {"classifier": clf, "windows": [windows[i] for i in order], "seed": seed}

    def measure(self, inputs: dict, seconds: float, closed_ops: int | None = None,
                open_loop: bool = True, untimed: Untimed = nullcontext) -> Outcome:
        clf = inputs["classifier"]
        windows = inputs["windows"]
        with untimed():
            reference = BatchClassifier(clf)
            expected = [reference.classify_batch([w])[0] for w in windows]
            speed = SpeedScale()
        out = Outcome()

        def verify(k: int, result) -> None:
            ref = expected[k % len(windows)]
            check(np.array_equal(result.class_vector, ref.class_vector)
                  and np.array_equal(result.scores, ref.scores)
                  and result.application_class is ref.application_class
                  and result.composition == ref.composition,
                  f"served window {k % len(windows)} differs from classify_batch on it alone")

        def settle(k: int, future) -> bool:
            """Check request *k*'s result; a raised exception counts as failed."""
            try:
                result = future.result()
            except Exception:  # the program failed this request
                out.failed += 1
                return False
            verify(k, result)
            return True

        if self.obs_enabled:
            obs.enable()
        try:
            with ClassificationService(clf) as service:
                # Closed-loop segments with OUTSTANDING requests in flight,
                # each followed by an open-loop chunk a third as long, so
                # the open-loop latencies sample the whole run rather than
                # one stretch of it.
                sent = 0
                while _more(out.closed_ops, closed_ops, out.wall_s, seconds * (1 - OPEN_SHARE)):
                    first = sent
                    stop = sent + self.SEGMENT_REQUESTS
                    pending = []
                    t0 = clock()
                    for done in range(first, stop):
                        while sent - done < self.OUTSTANDING and sent < stop:
                            pending.append(service.submit(windows[sent % len(windows)]))
                            sent += 1
                        with untimed():
                            settle(done, pending[done - first])
                    elapsed = clock() - t0
                    with untimed():
                        out.closed_ops += 1
                        out.wall_s += elapsed
                        out.nominal_s += speed.scale(elapsed)
                        out.work += self.SEGMENT_REQUESTS
                        out.attempted += self.SEGMENT_REQUESTS
                    if open_loop:
                        self._open_chunk(service, windows, elapsed * OPEN_SHARE / (1 - OPEN_SHARE),
                                         out, settle, untimed)
        finally:
            if self.obs_enabled:
                obs.disable()
        out.reference_s = speed.samples
        return out

    def _open_chunk(self, service, windows, chunk_s: float, out: Outcome, settle, untimed) -> None:
        """Submit at OPEN_RATE_PER_S for *chunk_s*; latency from each request's due time."""
        n = max(1, round(self.OPEN_RATE_PER_S * chunk_s))
        finished = [0.0] * n
        futures = []
        start = clock()

        def stamp(k: int):
            return lambda _f: finished.__setitem__(k, clock() - start)

        for k in range(n):
            due = k / self.OPEN_RATE_PER_S
            now = clock() - start
            if due > now:
                time.sleep(due - now)
                now = clock() - start
            out.generator_lag_s.append(now - due)
            try:
                future = service.submit(windows[(out.attempted + k) % len(windows)])
            except ServiceOverloadedError:
                out.failed += 1
                continue
            future.add_done_callback(stamp(k))
            futures.append((k, future))
        with untimed():
            for k, future in futures:
                if settle(out.attempted + k, future):
                    out.latencies_s.append(finished[k] - k / self.OPEN_RATE_PER_S)
        out.attempted += n


WORKLOADS = {w.name: w for w in (FleetProfile(), ScheduleSweep(), IngestReplay(), ServeWindows())}
