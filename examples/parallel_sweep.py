"""Parallel, resumable sweep through the engine and its result store.

The paper's Phase 2 grid is 72 configurations; only the 8
(algorithm, size) profile executions cost real work, and the engine
fans those out across worker processes while streaming every completed
point into a resumable JSON-lines store.  Kill this script mid-run and
start it again: it completes only the missing points, then reloads and
classifies the full result from disk.  A second run over a finished
store prints one ``resumed`` line per group and profiles nothing.

Run:  python examples/parallel_sweep.py [workdir]

(Tip: REPRO_MAX_SIZE=32 python examples/parallel_sweep.py for a quick pass.)
"""

import sys
from pathlib import Path

from repro.core import ResultStore, SweepEngine, classify_result
from repro.core.study import resolve_config
from repro.harness import result_to_csv


def main() -> None:
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else ".cache/example")
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "phase2.jsonl"
    cache = workdir / "counts.json"

    def progress(event):
        if event["kind"] == "profile-done":
            print(f"  profiled {event['algorithm']}@{event['size']}^3 "
                  f"[{event['completed']}/{event['total']}]")
        elif event["kind"] == "group-skipped":
            print(f"  resumed  {event['algorithm']}@{event['size']}^3 from store")

    print(f"=== sweep phase2 into {store} ===")
    engine = SweepEngine(workers=4, store=store, profile_cache=cache, progress=progress)
    result = engine.run(resolve_config("phase2"))
    print(f"{len(result.points)} points for {len(result.algorithms)} algorithms")

    # A later analysis job needs none of the machinery above — just the file.
    print("\n=== reload and classify from disk ===")
    loaded = ResultStore.existing(store).load_result()
    for alg, c in classify_result(loaded, size=loaded.sizes[-1]).items():
        cap = c.first_slowdown_cap_w
        print(f"{alg:>10s}: {c.power_class.value:<18s} "
              f"(draw {c.natural_power_w:.0f}W, first slowdown at "
              f"{'none' if cap is None else f'{cap:.0f}W'})")

    # The sweep's ledger file prices the paper's tables without a kernel run.
    table1 = SweepEngine(workers=0, profile_cache=cache).run(resolve_config("table1"))
    result_to_csv(table1, workdir / "csv" / "table1.csv")
    print(f"\nwrote {workdir / 'csv' / 'table1.csv'}")


if __name__ == "__main__":
    main()
