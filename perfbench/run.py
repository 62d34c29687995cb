"""Benchmark of the Themis reproduction: host time, set-up, memory,
decision latency and the paper's fairness/efficiency outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload themis-contended --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, on two
worker processes (one per CPU).  ``--trace 1`` makes one such untraced
pass and then runs the same operations again in this process, with
spans wrapped around each layer's entry points, and reports the
per-layer table.

Every operation's result is checked: against the digests in
``perfbench/expected.json`` for the seeds recorded there, and for
every seed against a second, independent run of one operation (the
cold ``incremental=False`` replay for Themis workloads, the in-process
executor for the sweep), against its own repeats and against
invariants every finished replay holds.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclass
class Unit:
    """Every execution of one unit of the pass (see ``Bench.units``)."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    #: ``workloads.summarize`` of each operation's first result.
    summaries: list = field(default_factory=list)
    #: The sweep report of the first untraced execution.
    report: object = None


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_replay(workload, seed: int, op: int):
    """Replay one Themis trace in this process; returns (result, wall, cpu)."""
    import workloads

    simulator = workloads.build_simulator(workload, seed, op)
    cpu, wall = cpu_seconds(), time.perf_counter()
    result = simulator.run()
    return result, time.perf_counter() - wall, cpu_seconds() - cpu


def replay_in_worker(workload_name: str, seed: int, op: int) -> dict:
    """Worker side of an untraced Themis pass: one timed replay."""
    import spans
    import workloads

    samples: list[float] = []
    patches = spans.time_assign(samples)
    try:
        result, wall, cpu = timed_replay(workloads.WORKLOADS[workload_name], seed, op)
    finally:
        patches.restore()
    return {"summary": workloads.summarize(result), "wall": wall, "cpu": cpu,
            "samples": samples}


class Bench:
    """One workload at one seed: executes, checks and counts operations.

    Each of the workload's ``ops`` traces is one unit: a Themis replay,
    or one ``run_sweep`` call over the trace's seven baseline cells, as
    ``repro compare`` runs them.  Operations are counted per replay and
    per sweep cell.  An untraced pass keeps both CPUs busy: the sweep
    through its own pool, Themis replays on ``WORKERS`` processes.  The
    two CPUs of a shared host slow down independently of each other, so
    a pass over both is steadier than a pass over one.
    """

    def __init__(self, workload, seed: int, expected: dict) -> None:
        import workloads

        self.w = workload
        self.seed = seed
        self.lib = workloads
        self.expected = expected.get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.done: dict[int, Unit] = {}

    @property
    def units(self) -> range:
        return range(self.w.ops)

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def execute(self, unit: int, traced: bool):
        """Run one unit; returns (results, sweep report or None, wall, cpu)."""
        if self.w.is_sweep:
            import repro.sweep

            tasks = self.lib.sweep_tasks(self.w, self.seed, unit)
            workers = 1 if traced else self.lib.WORKERS
            cpu, wall = cpu_seconds(), time.perf_counter()
            report = repro.sweep.run_sweep(tasks, workers=workers)
            wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
            results = [report.results.get(task.task_id) for task in tasks]
            for record in report.failures():
                self.fail(f"sweep cell {record.task_id} failed: {record.error}")
            return results, report, wall, cpu
        result, wall, cpu = timed_replay(self.w, self.seed, unit)
        return [result], None, wall, cpu

    def run_unit(self, unit: int, traced: bool = False) -> float:
        """Execute and check one unit in this process; returns its wall.

        Failures are counted per operation, not raised.
        """
        try:
            results, report, wall, cpu = self.execute(unit, traced)
        except Exception as error:  # a failed operation is a measurement
            self.fail_unit(unit, error)
            return 0.0
        summaries = [None if result is None else self.lib.summarize(result)
                     for result in results]
        self.record(unit, summaries, wall, cpu, traced, report)
        return wall

    def fail_unit(self, unit: int, error: Exception) -> None:
        size = len(self.w.schedulers) if self.w.is_sweep else 1
        self.done.setdefault(unit, Unit())
        self.attempted += size
        self.failed += size
        self.fail(f"unit {unit} raised {type(error).__name__}: {error}")

    def record(self, unit: int, summaries: list, wall: float, cpu: float,
               traced: bool = False, report=None) -> None:
        """Check one execution of a unit against its reference digests."""
        done = self.done.setdefault(unit, Unit())
        self.attempted += len(summaries)
        if done.digests:
            reference = done.digests
        elif self.expected is not None:
            reference = self.expected[unit] if unit < len(self.expected) else []
        else:
            reference = None
        digests = []
        for index, summary in enumerate(summaries):
            if summary is None:
                problems = ["no result"]
                digests.append("")
            else:
                problems = list(summary["problems"])
                digests.append(summary["digest"])
                if reference is not None and reference[index:index + 1] != digests[-1:]:
                    problems.append(
                        "result differs from " + ("perfbench/expected.json" if not done.digests
                                                  else "the untraced run" if traced
                                                  else "an earlier run of the same op"))
            if problems:
                self.failed += 1
                self.fail(f"unit {unit} op {index}: " + "; ".join(problems))
        if not done.digests:
            done.digests, done.summaries = digests, summaries
        if not traced:
            done.walls.append(wall)
            done.cpus.append(cpu)
            done.report = done.report or report

    def due(self, submitted: int, start: float, seconds: float):
        """The unit to run next, or None once the pass is done and time is up."""
        unit = self.units[submitted % len(self.units)]
        if submitted >= len(self.units):
            done = self.done.get(unit)
            if done is None or not done.walls:
                return None
            if time.perf_counter() - start + done.walls[-1] > seconds:
                return None
        return unit

    def measure(self, seconds: float, samples: list[float]) -> None:
        """One untraced pass over the units, then more while they fit in
        ``seconds``; appends every ``assign`` latency to ``samples``."""
        import spans

        start = time.perf_counter()
        if self.w.is_sweep:
            patches = spans.time_assign(samples)
            try:
                submitted = 0
                while (unit := self.due(submitted, start, seconds)) is not None:
                    self.run_unit(unit)
                    submitted += 1
            finally:
                patches.restore()
            return
        running: dict = {}
        submitted = 0
        with ProcessPoolExecutor(self.lib.WORKERS, mp_context=get_context("spawn")) as pool:
            while True:
                while len(running) < self.lib.WORKERS:
                    unit = self.due(submitted, start, seconds)
                    if unit is None:
                        break
                    running[pool.submit(replay_in_worker, self.w.name, self.seed, unit)] = unit
                    submitted += 1
                if not running:
                    return
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    unit = running.pop(future)
                    try:
                        out = future.result()
                    except Exception as error:  # a failed operation is a measurement
                        self.fail_unit(unit, error)
                        continue
                    samples.extend(out["samples"])
                    self.record(unit, [out["summary"]], out["wall"], out["cpu"])

    def cross_check(self) -> None:
        """Compare op 0 with an independent run of it.

        That is the cold ``incremental=False`` replay for a Themis
        workload, and one cell run in-process for the sweep, whose pass
        ran the cell in a pool worker.
        """
        first = self.done.get(0)
        if first is None or not first.digests or not first.digests[0]:
            return
        if self.w.is_sweep:
            from repro.sweep import execute_task

            tasks = self.lib.sweep_tasks(self.w, self.seed, 0)
            cell = self.seed % len(tasks)
            result, _, _ = execute_task(tasks[cell])
            same = result is not None and self.lib.result_digest(result) == first.digests[cell]
            label = f"in-process run of cell {tasks[cell].task_id}"
        else:
            cold = self.lib.build_simulator(self.w, self.seed, 0, incremental=False).run()
            same = self.lib.result_digest(cold) == first.digests[0]
            label = "cold (incremental=False) replay"
        if not same:
            self.failed += 1
            self.fail(f"op 0 differs from its {label}")

    # ------------------------------------------------------------------
    def summaries(self) -> list[dict]:
        return [summary for unit in sorted(self.done) for summary in self.done[unit].summaries
                if summary is not None]

    def decision_metrics(self) -> dict[str, float]:
        """The simulated outputs, each a mean over the pass's operations."""
        summaries = self.summaries()
        if not summaries:
            return {}
        return {name: statistics.fmean(summary[name] for summary in summaries)
                for name in ("max_rho", "mean_jct_min", "gpu_util", "mean_placement_score")}

    def workload_facts(self) -> dict:
        summaries = self.summaries()
        if not summaries:
            return {}
        return {
            "peak_contention": max(summary["peak_contention"] for summary in summaries),
            "rounds_per_op": statistics.fmean(summary["rounds"] for summary in summaries),
        }


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of ``setup_s``: get a simulator ready to run, then exit."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    if workload.is_sweep:
        # What a pool worker does before its first cell runs.
        tasks = workloads.sweep_tasks(workload, seed, 0)
        scenario = tasks[0].scenario
        from repro.schedulers.registry import make_scheduler
        from repro.simulation.simulator import ClusterSimulator

        ClusterSimulator(cluster=scenario.build_cluster(), workload=scenario.build_trace(),
                         scheduler=make_scheduler(tasks[0].scheduler),
                         config=scenario.build_sim_config(),
                         perf_model=scenario.build_perf_model())
    else:
        workloads.build_simulator(workload, seed, 0)
    print("ready", flush=True)


def time_setup(workload_name: str, seed: int) -> list[float]:
    seconds = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                   "--workload", workload_name, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.stdout.read()
                code = child.wait(timeout=120)
            except BaseException:
                child.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code} before it was ready")
        seconds.append(elapsed)
    return seconds


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
def end_to_end(bench: Bench, seconds: float, lines: list[str]) -> dict[str, float]:
    try:
        setup = time_setup(bench.w.name, bench.seed)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        bench.fail(f"set-up probe: {error}")
        setup = []
    samples: list[float] = []
    bench.measure(seconds, samples)
    bench.cross_check()
    runs = [bench.done[unit] for unit in bench.units if unit in bench.done]
    measured = len(runs) == len(bench.units) and all(run.walls for run in runs)
    metrics = {
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - bench.failed / bench.attempted,
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    # A unit that ran more than once within ``seconds`` counts once, at
    # its median, so every run measures the same pass of traces.  The
    # pass is summarised by its median trace: one replay in a few costs
    # 3-5x the typical one, which a sum would let set the whole figure.
    if measured:
        walls = [statistics.median(run.walls) for run in runs]
        metrics["wall_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(statistics.median(run.cpus) for run in runs)
        lines.append("unit wall_s " + " ".join(f"{wall:.3f}" for wall in walls))
    if samples:
        metrics["round_p50_ms"] = 1e3 * statistics.median(samples)
    metrics.update(bench.decision_metrics())
    lines.append(f"operations {bench.attempted} ({bench.w.ops} traces per pass, "
                 f"{sum(len(run.walls) for run in runs)} units run), "
                 f"assign samples {len(samples)}, set-up probes {len(setup)}")
    return metrics


def per_layer(bench: Bench, lines: list[str]) -> dict[str, float]:
    import spans

    samples: list[float] = []
    bench.measure(0.0, samples)
    untraced = [bench.done[unit] for unit in bench.units if unit in bench.done]
    recorder = spans.Spans()
    patches = spans.install(recorder)
    traced_wall = 0.0
    try:
        for unit in bench.units:
            traced_wall += bench.run_unit(unit, traced=True)
    finally:
        patches.restore()
    bench.cross_check()
    for problem in recorder.check():
        bench.fail(f"span tree: {problem}")
    out = HERE / "out" / f"{bench.w.name}-seed{bench.seed}-spans.npz"
    recorder.save(out)

    table = recorder.table()
    counts = recorder.counts

    def span(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    moves = counts["core.auction.moves"]
    auctions = span("core.auction.run", "calls")
    if bench.w.is_sweep:
        reports = [run.report for run in untraced if run.report is not None]
        cells = [record.duration_seconds for report in reports for record in report.records]
        # The traced pass runs the cells serially in-process, so it is
        # compared with the untraced cells' serial-equivalent seconds.
        baseline = sum(cells)
        sweep = {
            "sweep.cell_p50_s": statistics.median(cells),
            "sweep.cell_max_s": max(cells),
            "sweep.pool_overhead_s": sum(
                report.wall_seconds - report.task_seconds() / report.workers for report in reports),
            "sweep.attempts": sum(record.attempts for report in reports
                                  for record in report.records),
        }
    else:
        # Per-replay host seconds either way: untraced on the workers,
        # traced here, one replay after another.
        baseline = sum(run.walls[0] for run in untraced if run.walls)
        sweep = dict.fromkeys(("sweep.cell_p50_s", "sweep.cell_max_s",
                               "sweep.pool_overhead_s", "sweep.attempts"), 0)
    metrics = {
        "simulation.self_s": span("simulation.run", "self_s"),
        "simulation.rounds": counts["simulation.rounds"],
        "simulation.events": counts["simulation.events"],
        "workload.advance_to.calls": span("workload.advance_to", "calls"),
        "workload.advance_to.self_s": span("workload.advance_to", "self_s"),
        "core.leases.grant.calls": span("core.leases.grant", "calls"),
        "core.leases.revoke.calls": span("core.leases.revoke", "calls"),
        "schedulers.assign.calls": span("schedulers.assign", "calls"),
        "schedulers.assign.self_s": span("schedulers.assign", "self_s"),
        "core.arbiter.offer_resources.self_s": span("core.arbiter.offer_resources", "self_s"),
        "core.arbiter.bidders_per_round": (counts["core.auction.bidders"] / auctions
                                           if auctions else 0),
        "core.agent.prepare_bid.calls": span("core.agent.prepare_bid", "calls"),
        "core.agent.prepare_bid.self_s": span("core.agent.prepare_bid", "self_s"),
        "core.fairness.batch_prime.calls": span("core.fairness.batch_prime", "calls"),
        "core.fairness.batch_prime.self_s": span("core.fairness.batch_prime", "self_s"),
        "core.fairness.carves": counts["core.fairness.carves"],
        "core.auction.run.calls": auctions,
        "core.auction.run.self_s": span("core.auction.run", "self_s"),
        "core.auction.moves": moves,
        "core.auction.pair_scores": counts["core.auction.pair_scores"],
        "core.auction.replayed_moves": counts["core.auction.replayed_moves"],
        "core.auction.rescore_skipped": counts["core.auction.rescore_skipped"],
        "core.auction.rescore_carves": counts["core.auction.rescore_carves"],
        "core.auction.rescore_batched": counts["core.auction.rescore_batched"],
        "core.auction.carves": counts["core.auction.carves"],
        "core.auction.carves_per_move": counts["core.auction.carves"] / moves if moves else 0,
        "sweep.run_sweep.self_s": span("sweep.run_sweep", "self_s"),
        **sweep,
        "obs.trace_overhead": traced_wall / baseline if baseline else 0,
        # The latency tail is set by a few rounds of a few traces, so it
        # swings 40-60% from seed to seed: reported here, without a bound.
        "round_p99_ms": 1e3 * nearest_rank(samples, 0.99) if samples else 0,
    }
    if counts["core.auction.hidden_carve_runs"]:
        bench.fail(f"{counts['core.auction.hidden_carve_runs']} auction runs counted fewer "
                   "estimator carves than rescore_carves + rescore_batched")

    root = recorder.root_seconds()
    lines.append(f"{'span':34} {'calls':>9} {'self_s':>9} {'share':>7}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"{name:34} {row['calls']:9d} {row['self_s']:9.3f} "
                     f"{row['self_s'] / root:7.1%}")
    lines.append(f"{'root spans':34} {'':9} {root:9.3f}  spans={len(recorder.start)} "
                 f"saved to {out.relative_to(ROOT)}")
    facts = bench.workload_facts()
    beyond = len(samples) - math.ceil(0.99 * len(samples))
    lines.append(f"assign samples {len(samples)} ({beyond} beyond p99)")
    lines.append(f"peak contention {facts.get('peak_contention', 0):.2f}, rounds per op "
                 f"{facts.get('rounds_per_op', 0):.0f}, traced wall {traced_wall:.3f}s "
                 f"over untraced {baseline:.3f}s")
    return metrics


def stop_children() -> None:
    """Wait for every process this one started, the multiprocessing
    resource tracker included, so none outlives the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    # A spawn-context pool starts the tracker; left alone it exits only
    # after this process has, orphaned.  Closing its pipe stops it now.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())["digests"]
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed,
                  expected.get(args.workload, {}))
    lines: list[str] = []
    if args.trace:
        values, declared = per_layer(bench, lines), spec["per_layer"]
    else:
        values, declared = end_to_end(bench, args.seconds, lines), spec["end_to_end"]
    metrics = {}
    for metric in declared:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    missing = [metric["name"] for metric in declared if metric["name"] not in metrics]
    if missing:
        bench.fail(f"metrics not measured: {missing}")
    for metric in declared:
        if metric["name"] in metrics:
            lines.append(f"{metric['name']:38} {metrics[metric['name']]['value']:14.6g} "
                         f"{metric['unit']}")
    for problem in bench.problems:
        lines.append(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
