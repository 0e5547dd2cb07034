"""One workload process: import cyconf, then issue items in a closed loop.

Started fresh for every run (so cyconf's caches start cold, as in a CLI
call) with `src` on PYTHONPATH.  Prints READY and the CPU time used so
far, in nanoseconds, once cyconf is imported, then runs the items from
--items in order, one at a time, and stops at the first round boundary
after --seconds (0 runs every item).  Each item's wall and CPU time,
the speed gauge readings taken between items (speed.py), peak memory
and, with --spans, the per-function trace are written to --out as JSON.

With --probe it prints, after READY, one speed gauge and exits.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --items ITEMS.json --out OUT.json --seconds 20 [--spans SPANS.csv.gz]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from time import perf_counter_ns, process_time_ns

import cyconf
import cyconf.cli

READY = "READY"
GAUGE_EVERY_NS = 50_000_000
GAUGE_RUNS = 2


def _call(item: dict) -> dict:
    if item["call"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cyconf.cli.main(item["argv"])
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the run must go on; the item fails
            return {"error": repr(exc)}
        return {"rc": rc, "out": out.getvalue()}
    fn = getattr(cyconf, item["call"])
    try:
        value = fn(
            cyconf.CirculantMatrix(item["v"], tuple(item["s1"])),
            cyconf.CirculantMatrix(item["v"], tuple(item["s2"])),
        )
    except Exception as exc:  # noqa: BLE001
        return {"error": repr(exc)}
    if isinstance(value, tuple):
        value = [list(part) for part in value]
    return {"value": value}


def run_item(item: dict) -> dict:
    """Issue one item; ns is its wall time, cpu_ns the CPU time this process spent on it."""
    t0, c0 = perf_counter_ns(), process_time_ns()
    result = _call(item)
    result["cpu_ns"] = process_time_ns() - c0
    result["ns"] = perf_counter_ns() - t0
    return result


def run(items: list[dict], seconds: float) -> tuple[list[dict], list[list[int]], int]:
    """Issue items in order; return results, speed gauges and the loop's wall ns.

    The machine's speed is gauged before the first item, after the last,
    and between items whenever GAUGE_EVERY_NS of CPU time has passed; a
    gauge is the CPU ns of each of GAUGE_RUNS kernel runs.  Each result's
    "gauge" is the index of the last gauge before it.
    """
    import speed  # after READY, so that setup_s times cyconf's imports alone

    speed.kernel()  # fills the reference's caches, so every reading is warm
    gauges = [speed.readings(GAUGE_RUNS)]
    last_gauge = process_time_ns()
    results = []
    t0 = perf_counter_ns()
    deadline = t0 + int(seconds * 1e9) if seconds > 0 else None
    for i, item in enumerate(items):
        result = run_item(item)
        result["gauge"] = len(gauges) - 1
        results.append(result)
        if process_time_ns() - last_gauge >= GAUGE_EVERY_NS:
            gauges.append(speed.readings(GAUGE_RUNS))
            last_gauge = process_time_ns()
        last_of_round = i + 1 == len(items) or items[i + 1]["round"] != item["round"]
        if deadline is not None and last_of_round and perf_counter_ns() >= deadline:
            break
    gauges.append(speed.readings(GAUGE_RUNS))
    return results, gauges, perf_counter_ns() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="report READY and one speed gauge, then exit")
    parser.add_argument("--items")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace every cyconf function, write spans here")
    args = parser.parse_args()
    # The CPU time this process has used so far: interpreter start-up and imports.
    print(READY, process_time_ns(), flush=True)
    if args.probe:
        import speed

        speed.kernel()
        print(*speed.readings(GAUGE_RUNS), flush=True)
        return 0
    with open(args.items) as fh:
        items = json.load(fh)
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results, gauges, loop_ns = run(items, args.seconds)
    record = {
        "results": results,
        "gauges": gauges,
        "loop_ns": loop_ns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["extra"] = tracer.extra
        tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
