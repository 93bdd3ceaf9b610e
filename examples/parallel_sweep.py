"""Parallel, resumable sweep through the stable facade.

The paper's Phase 3 grid is 288 configurations; only the 32
(algorithm, size) profile executions cost real work, and the engine
fans those out across worker processes while streaming every completed
point into a resumable JSON-lines store.  Kill this script mid-run and
start it again: it completes only the missing points, then reloads and
classifies the full result from disk.

Run:  python examples/parallel_sweep.py [workdir]

(Tip: REPRO_MAX_SIZE=32 python examples/parallel_sweep.py for a quick pass.)
"""

import sys
from pathlib import Path

import repro
from repro import api


def main() -> None:
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else ".cache/example")
    workdir.mkdir(parents=True, exist_ok=True)
    store = workdir / "phase2.jsonl"

    def progress(event):
        if event["kind"] == "profile-done":
            print(f"  profiled {event['algorithm']}@{event['size']}^3 "
                  f"[{event['completed']}/{event['total']}]")
        elif event["kind"] == "group-skipped":
            print(f"  resumed  {event['algorithm']}@{event['size']}^3 from store")

    print(f"=== sweep phase2 into {store} ===")
    result = repro.run_study(
        repro.StudyRequest(
            "phase2",
            workers=4,
            store=store,
            cache=workdir / "counts.json",
            progress=progress,
        )
    )
    print(f"{len(result.points)} points for {len(result.algorithms)} algorithms")

    # A later analysis job needs none of the machinery above — just the file.
    print("\n=== reload and classify from disk ===")
    loaded = repro.load_result(store)
    for alg, c in repro.classify_study(loaded).items():
        cap = c.first_slowdown_cap_w
        print(f"{alg:>10s}: {c.power_class.value:<18s} "
              f"(draw {c.natural_power_w:.0f}W, first slowdown at "
              f"{'none' if cap is None else f'{cap:.0f}W'})")

    # The same facade regenerates the paper's tables from the shared cache.
    api.regenerate_tables(("table1",), cache=workdir / "counts.json",
                          csv_dir=workdir / "csv")
    print(f"\nwrote {workdir / 'csv' / 'table1.csv'}")


if __name__ == "__main__":
    main()
