"""The benchmark's own test: is it still measuring what it claims?

Run from the root of a checkout::

    python3 perfbench/check.py            # check; exit status 1 on a failure
    python3 perfbench/check.py --write    # re-record perfbench/expected.json

For every workload and both recorded seeds it runs one untraced and one
traced pass (``run.py --trace 1``), then checks:

* every operation's digest equals the one in ``expected.json``, and op 0
  of each Themis workload replayed cold (``incremental=False``) gives
  the same digest, so the recorded digests are not merely whatever the
  incremental path produced (for the sweep: one cell run in-process
  matches its pool-worker run);
* the span tree is whole and every auction run counted at least
  ``rescore_carves + rescore_batched`` estimator carves (both inside
  ``run.py``'s traced pass);
* ``themis-contended`` peaks at 6x contention or more on every op;
* ``sweep-baselines`` never reaches ``PartialAllocationAuction.run``.

``--write`` records the digests and, per workload, the peak contention,
rounds per operation and bidders per auction round measured at the
default seed (each workload's reason is its ``why`` in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import sys

import run

#: The default seed and one seed held out while the benchmark was tuned.
SEEDS = (0, 7919)
EXPECTED = run.HERE / "expected.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    stored = json.loads(EXPECTED.read_text())
    contended = workloads.WORKLOADS["themis-contended"]
    names = args.workload or list(workloads.WORKLOADS)
    failures: list[str] = []
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in SEEDS:
            label = f"{name} seed {seed}"
            digests = {} if args.write else stored["digests"].get(name, {})
            if not args.write and str(seed) not in digests:
                failures.append(f"{label}: no digests recorded")
            bench = run.Bench(workload, seed, digests)
            lines: list[str] = []
            metrics = run.per_layer(bench, lines)
            failures += [f"{label}: {problem}" for problem in bench.problems]
            if workload.is_sweep and metrics["core.auction.run.calls"]:
                failures.append(f"{label}: the sweep reached the auction")
            peaks = [summary["peak_contention"] for summary in bench.summaries()]
            if workload is contended and min(peaks) < 6.0:
                failures.append(f"{label}: peak contention {min(peaks):.2f} < 6")
            print(f"{label}: {'ok' if not bench.problems else 'FAILED'}; "
                  f"peak contention {max(peaks):.2f}", flush=True)
            if args.write:
                stored["digests"].setdefault(name, {})[str(seed)] = [
                    bench.done[unit].digests for unit in bench.units]
                if seed == SEEDS[0]:
                    facts = bench.workload_facts()
                    stored["workloads"][name] = {
                        "peak_contention": round(facts["peak_contention"], 2),
                        "rounds_per_op": round(facts["rounds_per_op"], 1),
                        "bidders_per_round": round(
                            metrics["core.arbiter.bidders_per_round"], 2),
                    }
    if args.write and not failures:
        EXPECTED.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(run.ROOT)}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_children()
