"""The benchmark's workloads and the operations they run.

An *operation* is one whole trace replay (the Themis workloads) or one
sweep cell, one baseline policy on one trace (the sweep workload, which
runs each trace's seven cells as one ``run_sweep`` call).  A pass
covers ``ops`` traces, each drawn from ``--seed``: a single replay's
host time swings by tens of percent between traces of the same shape,
so a pass reports the median over many.

Every trace is drawn from the paper's generator distributions and then
rescaled to the workload's stated input size: job durations so that
the trace holds exactly ``gpu_minutes_per_app * num_apps`` GPU-minutes
of work, arrival times so that the last app arrives at
``num_apps * interarrival_minutes``.  The seed still decides every
app's jobs, models, demands and arrival pattern; the rescaling only
keeps the amount of work per pass the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace
from typing import Optional

# ``import repro.sweep`` as a process's first ``repro`` import raises
# ImportError (repro.sweep -> repro.experiments.figures -> repro.sweep);
# importing repro.experiments first resolves the cycle.
import repro.experiments  # noqa: F401  (must precede repro.sweep)
from repro.experiments.config import ScenarioConfig, hetero_scenario, sim_scenario
from repro.metrics.fairness import max_fairness
from repro.metrics.jct import average_jct
from repro.metrics.utilization import utilization
from repro.perf.bench import canonical_result_json
from repro.schedulers.registry import make_scheduler
from repro.simulation.failures import FailureInjector, FailureModel, sample_failures
from repro.simulation.simulator import ClusterSimulator, SimulationResult
from repro.sweep import SweepTask
from repro.workload.trace import Trace

#: The seven non-Themis policies of the registry.
BASELINES = ("gandiva", "tiresias", "slaq", "optimus", "strawman", "drf", "fifo")


#: Worker processes of an untraced pass: one per CPU of a 2-CPU host.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gpus: int
    num_apps: int
    interarrival_minutes: float
    gpu_minutes_per_app: float
    #: Traces per pass.
    ops: int
    hetero: bool = False
    lease_minutes: float = 20.0
    perf_matrix: str = ""
    migration: bool = False
    #: Outage process; its seed is replaced by each trace's seed.
    outages: Optional[FailureModel] = None
    #: Empty for Themis replays; the policies of each trace's cells for a sweep.
    schedulers: tuple[str, ...] = ()

    @property
    def is_sweep(self) -> bool:
        return bool(self.schedulers)


# Sizes: the run budget is about 30 s per run, and one replay's host
# time varies by 15-40% from trace to trace (a few cost 3-5x the median),
# so a pass needs a few dozen traces to be steady from seed to seed.  On
# two workers that caps a replay at about 1.3 s, which is what a 128-GPU
# cluster costs; a 256-GPU replay of the same contention costs 3-8 s and
# a 512-GPU one 10-40 s.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="themis-contended",
            why=(
                "homogeneous reference with bursty arrivals, >6x peak contention and "
                "60-min leases: auction solve and re-scoring are the largest share"
            ),
            gpus=128,
            num_apps=32,
            interarrival_minutes=0.25,
            gpu_minutes_per_app=300.0,
            ops=32,
            lease_minutes=60.0,
        ),
        Workload(
            name="themis-hetero-churn",
            why=(
                "V100/P100/K80 fleet with a perf matrix, migration and machine and "
                "rack outages: per-family carves, gang swaps, lease revocation"
            ),
            gpus=128,
            num_apps=16,
            interarrival_minutes=1.0,
            gpu_minutes_per_app=500.0,
            ops=32,
            hetero=True,
            perf_matrix="rate-inversion",
            migration=True,
            outages=FailureModel(mtbf_minutes=720.0, mttr_minutes=45.0,
                                 rack_mtbf_minutes=1440.0, horizon_minutes=150.0),
        ),
        Workload(
            name="sweep-baselines",
            why=(
                "the seven baseline policies through run_sweep on 2 workers: no "
                "auction runs; simulator, policies and executor do all the work"
            ),
            gpus=64,
            num_apps=12,
            interarrival_minutes=1.0,
            gpu_minutes_per_app=400.0,
            ops=20,
            schedulers=BASELINES,
        ),
    )
}


@dataclass(frozen=True)
class BenchScenario(ScenarioConfig):
    """A scenario whose trace is rescaled to a fixed input size."""

    gpu_minutes: float = 0.0
    arrival_window: float = 0.0

    def build_trace(self) -> Trace:
        return rescale(super().build_trace(), self.gpu_minutes, self.arrival_window,
                       self.generator.iterations_per_minute)


def rescale(trace: Trace, gpu_minutes: float, arrival_window: float,
            iterations_per_minute: float) -> Trace:
    """Stretch durations and arrivals so the trace has the stated size."""
    work = sum(job.duration_minutes * job.max_parallelism
               for app in trace.apps for job in app.jobs)
    work_factor = gpu_minutes / work
    time_factor = arrival_window / max(app.arrival_minutes for app in trace.apps)
    apps = []
    for app in trace.apps:
        jobs = []
        for job in app.jobs:
            duration = job.duration_minutes * work_factor
            jobs.append(replace(
                job,
                duration_minutes=duration,
                total_iterations=max(10, int(duration * iterations_per_minute)),
            ))
        apps.append(replace(app, arrival_minutes=round(app.arrival_minutes * time_factor, 4),
                            jobs=tuple(jobs)))
    return Trace(apps=tuple(apps), name=trace.name, seed=trace.seed,
                 metadata=dict(trace.metadata), perf_matrix=trace.perf_matrix)


def trace_seed(seed: int, op: int) -> int:
    """Generator seed of operation ``op`` of a pass drawn from ``seed``."""
    return seed * 1000 + op


def scenario_for(workload: Workload, seed: int, op: int) -> BenchScenario:
    builder = hetero_scenario if workload.hetero else sim_scenario
    base = builder(num_apps=workload.num_apps, seed=trace_seed(seed, op))
    scenario = BenchScenario(
        **{name: getattr(base, name) for name in base.__dataclass_fields__},
        gpu_minutes=workload.gpu_minutes_per_app * workload.num_apps,
        arrival_window=workload.interarrival_minutes * workload.num_apps,
    )
    scenario = scenario.replace(
        name=f"{workload.name}-s{seed}-op{op}",
        cluster_scale=workload.gpus / 256.0,  # relative to the paper's 256 GPUs
        downsample=256,
        lease_minutes=workload.lease_minutes,
        perf_matrix=workload.perf_matrix or (),
        migration=workload.migration,
    )
    # Exploration widths as in the repository's sim bench profiles.
    return scenario.with_generator(
        mean_interarrival_minutes=workload.interarrival_minutes,
        jobs_per_app_median=8.0,
        jobs_per_app_max=24,
    )


def build_simulator(workload: Workload, seed: int, op: int,
                    incremental: bool = True) -> ClusterSimulator:
    """A Themis simulator for one operation, ready to ``run()``."""
    scenario = scenario_for(workload, seed, op)
    cluster = scenario.build_cluster()
    simulator = ClusterSimulator(
        cluster=cluster,
        workload=scenario.build_trace(),
        scheduler=make_scheduler("themis"),
        config=replace(scenario.build_sim_config(), incremental=incremental),
        perf_model=scenario.build_perf_model(),
    )
    if workload.outages is not None:
        model = replace(workload.outages, seed=trace_seed(seed, op))
        FailureInjector(sample_failures(cluster, model)).install(simulator)
    return simulator


def sweep_tasks(workload: Workload, seed: int, op: int) -> list[SweepTask]:
    scenario = scenario_for(workload, seed, op)
    return [SweepTask(scenario=scenario, scheduler=name) for name in workload.schedulers]


def result_digest(result: SimulationResult) -> str:
    return hashlib.sha256(canonical_result_json(result).encode("utf-8")).hexdigest()


def summarize(result: SimulationResult) -> dict:
    """What the benchmark keeps of one finished operation.

    Small and picklable, so a worker process can send it back in place
    of the result.
    """
    return {
        "digest": result_digest(result),
        "problems": check_invariants(result),
        "max_rho": max_fairness(result.rhos()),
        "mean_jct_min": average_jct(result.completion_times()),
        "gpu_util": utilization(result),
        "mean_placement_score": statistics.fmean(result.placement_scores()),
        "peak_contention": result.peak_contention,
        "rounds": result.num_rounds,
    }


def check_invariants(result: SimulationResult) -> list[str]:
    """Properties every finished replay has, whatever the seed."""
    problems = []
    if not result.completed:
        problems.append("not every app finished")
    if result.num_rounds <= 0:
        problems.append("no scheduling round ran")
    for stats in result.app_stats:
        if stats.finished_at is None or not 0 < stats.rho < float("inf"):
            problems.append(f"app {stats.app_id} finished={stats.finished_at} rho={stats.rho}")
            break
    if result.total_gpu_time > result.cluster_gpus * result.makespan * (1 + 1e-9):
        problems.append("more GPU-minutes consumed than the cluster holds")
    return problems
