"""Spans and counters recorded from outside the program.

Nothing under ``src/`` knows about this module: it wraps the public
entry points of each ``repro`` layer (class attributes and the
``repro.sweep.run_sweep`` module attribute) for the duration of one
traced pass, then puts the originals back.

A span has a name, a start, an end and a parent (the innermost span
open when it began).  Spans are kept in flat arrays in memory and saved
once, at the end.  A layer's self time is its span's duration minus
its children's durations, so the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

import repro.experiments  # noqa: F401  (must precede repro.sweep; see workloads.py)
import repro.sweep
import repro.sweep.executor as sweep_executor
from repro.core.agent import Agent
from repro.core.arbiter import Arbiter
from repro.core.auction import PartialAllocationAuction
from repro.core.fairness import FairnessEstimator
from repro.core.leases import LeaseManager
from repro.schedulers.base import InterAppScheduler
from repro.simulation.simulator import ClusterSimulator, SimulationResult
from repro.workload.job import Job

#: Names a span may carry without a parent.
ROOTS = ("simulation.run", "sweep.run_sweep")

_clock = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, self._ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def scheduler_classes() -> list[type]:
    """Every scheduler class that defines its own ``assign``."""
    found, todo = [], [InterAppScheduler]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "assign" in vars(cls) and cls is not InterAppScheduler:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


class Spans:
    """An in-memory span log plus work counters read at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(float("nan"))
        self._open.append(index)
        self.start.append(_clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _clock()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            index = self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(index)

        return traced

    # ------------------------------------------------------------------
    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        return start, end, parent, name_of

    def self_times(self) -> np.ndarray:
        start, end, parent, _ = self._arrays()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        return duration - covered

    def table(self) -> dict[str, dict]:
        """``{name: {"calls", "self_s"}}`` over all spans."""
        name_of = self._arrays()[3]
        count = len(self.names)
        calls = np.bincount(name_of, minlength=count)
        own = np.bincount(name_of, weights=self.self_times(), minlength=count)
        return {
            name: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        start, end, parent, _ = self._arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def check(self) -> list[str]:
        """Structural problems: open spans, orphans, children outside parents."""
        start, end, parent, name_of = self._arrays()
        problems = []
        if self._open or np.isnan(end).any():
            problems.append("spans left open")
            return problems
        root_ids = {self._ids[name] for name in ROOTS if name in self._ids}
        orphans = (parent < 0) & ~np.isin(name_of, list(root_ids))
        if orphans.any():
            names = sorted({self.names[i] for i in name_of[orphans]})
            problems.append(f"spans without a parent: {names}")
        child = np.nonzero(parent >= 0)[0]
        up = parent[child]
        if (up >= child).any() or (start[child] < start[up]).any() or (end[child] > end[up]).any():
            problems.append("a span does not lie inside its parent")
        own = float(self.self_times().sum())
        roots = self.root_seconds()
        if abs(own - roots) > 1e-6 + 1e-9 * roots:
            problems.append(f"self times sum to {own:.6f}s, root spans to {roots:.6f}s")
        return problems

    def save(self, path: Path) -> None:
        start, end, parent, name_of = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, start=start, end=end, parent=parent, name_of=name_of,
                            names=np.array(json.dumps(self.names)))


def install(spans: Spans) -> Patches:
    """Wrap every traced entry point; ``restore()`` the result to undo."""
    patches = Patches()
    counts = spans.counts

    run_sim = spans.wrap("simulation.run", ClusterSimulator.run)

    def simulation_run(self: ClusterSimulator) -> SimulationResult:
        result = run_sim(self)
        counts["simulation.rounds"] += result.num_rounds
        counts["simulation.events"] += result.events_processed
        estimator = getattr(self.scheduler, "estimator", None)
        if estimator is not None:
            counts["core.fairness.carves"] += estimator.carve_count
        return result

    patches.set(ClusterSimulator, "run", simulation_run)

    run_auction = spans.wrap("core.auction.run", PartialAllocationAuction.run)

    def auction_run(self: PartialAllocationAuction, pool, bids, *args, **kwargs):
        estimator = self.estimator
        before = estimator.carve_count if estimator is not None else 0
        outcome = run_auction(self, pool, bids, *args, **kwargs)
        stats = self.last_stats
        if estimator is not None:
            carves = estimator.carve_count - before
            counts["core.auction.carves"] += carves
            # Work the solver files under re-scoring is work the
            # estimator did: the delta can never be smaller.
            if carves < stats.rescore_carves + stats.rescore_batched:
                counts["core.auction.hidden_carve_runs"] += 1
        counts["core.auction.bidders"] += len(bids)
        for field in ("moves", "pair_scores", "replayed_moves", "rescore_skipped",
                      "rescore_carves", "rescore_batched"):
            counts[f"core.auction.{field}"] += getattr(stats, field)
        return outcome

    patches.set(PartialAllocationAuction, "run", auction_run)

    for owner, attr, name in (
        (Arbiter, "offer_resources", "core.arbiter.offer_resources"),
        (Agent, "prepare_bid", "core.agent.prepare_bid"),
        (FairnessEstimator, "batch_prime", "core.fairness.batch_prime"),
        (LeaseManager, "grant", "core.leases.grant"),
        (LeaseManager, "revoke", "core.leases.revoke"),
        (Job, "advance_to", "workload.advance_to"),
    ):
        patches.set(owner, attr, spans.wrap(name, getattr(owner, attr)))
    for cls in scheduler_classes():
        patches.set(cls, "assign", spans.wrap("schedulers.assign", vars(cls)["assign"]))
    run_sweep = spans.wrap("sweep.run_sweep", repro.sweep.run_sweep)
    patches.set(repro.sweep, "run_sweep", run_sweep)
    patches.set(sweep_executor, "run_sweep", run_sweep)
    return patches


# ----------------------------------------------------------------------
# The one measurement untraced runs take: host time of each ``assign``
# ----------------------------------------------------------------------
#: Field a sweep worker adds to each result payload to carry its
#: ``assign`` latencies back to the parent.
_LATENCY_FIELD = "perfbench_assign_seconds"

#: The list the installed timers append to.  Pool workers fork from
#: the parent after ``time_assign`` ran, so they inherit the timers and
#: this binding; each worker empties its copy before every cell.
_samples: list[float] = []


def time_assign(samples: list[float]) -> Patches:
    """Append the host seconds of every ``assign`` call to ``samples``.

    Also routes the latencies of sweep cells that run in pool workers
    back to ``samples``, through the result payloads.
    """
    global _samples
    _samples = samples
    patches = Patches()
    for cls in scheduler_classes():
        patches.set(cls, "assign", _timed(vars(cls)["assign"], samples))
    patches.set(sweep_executor, "_execute_task_payload", _payload_with_latencies)
    patches.set(sweep_executor, "SimulationResult", _ResultWithLatencies)
    return patches


def _timed(fn: Callable, samples: list[float]) -> Callable:
    def timed(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(_clock() - start)

    return timed


_execute_payload = sweep_executor._execute_task_payload


def _payload_with_latencies(task):
    """Worker side: one cell's result payload plus its latencies."""
    del _samples[:]
    task_id, payload, error, seconds = _execute_payload(task)
    if payload is not None:
        payload[_LATENCY_FIELD] = list(_samples)
    return task_id, payload, error, seconds


class _ResultWithLatencies:
    """Parent side: strips the latencies off a payload before decoding it."""

    @staticmethod
    def from_json(payload: dict) -> SimulationResult:
        _samples.extend(payload.pop(_LATENCY_FIELD, ()))
        return SimulationResult.from_json(payload)
