"""Run one cyconf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With --trace 0 the workload
runs untraced in a fresh process for --seconds (to the end of the round
in progress) and the end-to-end metrics are reported.  With --trace 1 a
fixed prefix of the same items runs three times, untraced, with every
cyconf function wrapped, and untraced again, and the per-layer metrics
are reported.  Times are the worker's CPU time, scaled to a reference
speed by the gauge in speed.py.  Every answer is checked; the last line
of standard output is one JSON object with keys correct, attempted,
failed and metrics.  Records and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import workloads
from check import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 14
WORKER_GRACE_S = 150

# (function, counters) per layer; self_s is the function's own span time
# minus its children's.  cli.main.self_s is the self time of every cli
# function, i.e. parsing, dispatch and formatting.
LAYER_METRICS = (
    ("residue_ring.mult_order", ("calls", "self_s")),
    ("residue_ring.factorization", ("self_s",)),
    ("baseline.enumerate_base_lines", ("self_s",)),
    ("baseline.canonical_form", ("calls", "self_s")),
    ("baseline.orbit_size", ("calls", "self_s")),
    ("baseline.affine_map_between", ("calls", "self_s")),
    ("counting.count_orbit_scan", ("calls", "self_s")),
    ("counting.count_unit_sum", ("self_s",)),
    ("counting.count_fixed_bruteforce", ("calls", "self_s")),
    ("configuration.lines", ("calls", "self_s")),
    ("configuration.line_set", ("calls", "self_s")),
    ("iso.isomorphic", ("calls", "self_s")),
    ("iso.exact_isomorphic", ("calls", "self_s")),
    ("iso.witness_valid", ("calls", "self_s")),
    ("iso.completeness_report", ("self_s",)),
    ("search.line_bijections", ("calls", "yields", "self_s")),
    ("solving_sets.solve_iso_pq", ("calls", "self_s")),
    ("solving_sets.solving_set", ("calls", "self_s")),
    ("circulant.characteristic_polynomial", ("calls", "self_s")),
    ("circulant.gram_similar", ("calls", "self_s")),
    ("circulant.paq_equivalent", ("calls", "self_s")),
    ("cli.main", ("calls",)),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------------ processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _launch(args: list[str]) -> tuple[subprocess.Popen, int, float]:
    """Start a worker; return it, its CPU ns until READY and the wall seconds.

    The CPU time is the worker's own, from its creation through interpreter
    start-up and the cyconf imports; unlike the wall time, it does not grow
    while other processes hold the cores.  -S skips site-packages
    processing, which cyconf does not need.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(WORKER), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_env(),
    )
    word, _, cpu_ns = proc.stdout.readline().partition(" ")
    wall = perf_counter() - t0
    if word != "READY":
        _finish(proc, 10)
        raise BenchError(f"worker did not start: {proc.stderr.read()[-2000:]}")
    return proc, int(cpu_ns), wall


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker to exit; return the rest of its standard output."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s and was killed") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err[-2000:]}")
    return out


def scaled_s(cpu_ns: float, *gauges: list[int]) -> float:
    """CPU time in seconds, scaled to the reference speed by the mean kernel run of gauges."""
    runs = [ns for gauge in gauges for ns in gauge]
    return cpu_ns * speed.REFERENCE_NS * len(runs) / sum(runs) / 1e9


def probe_setup() -> dict:
    """Scaled, CPU and wall seconds of one worker start-up."""
    proc, cpu_ns, wall = _launch(["--probe"])
    gauge = [int(ns) for ns in _finish(proc, 30).split()]
    return {"scaled": scaled_s(cpu_ns, gauge), "cpu": cpu_ns / 1e9, "wall": wall}


def run_worker(items: list[dict], tag: str, seconds: float, spans: Path | None = None):
    items_path = OUT / f"items-{tag}.json"
    out_path = OUT / f"result-{tag}.json"
    items_path.write_text(json.dumps(items))
    args = ["--items", str(items_path), "--out", str(out_path), "--seconds", str(seconds)]
    if spans is not None:
        args += ["--spans", str(spans)]
    try:
        proc, setup_cpu_ns, setup_wall = _launch(args)
        _finish(proc, seconds + WORKER_GRACE_S)
        record = json.loads(out_path.read_text())
    finally:
        items_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
    record["setup"] = {"scaled": scaled_s(setup_cpu_ns, record["gauges"][0]),
                       "cpu": setup_cpu_ns / 1e9, "wall": setup_wall}
    return record


# ------------------------------------------------------------------ checking


def digest(result: dict) -> str:
    payload = result.get("out", json.dumps(result.get("value", result.get("error"))))
    return hashlib.sha256(f"{result.get('rc')}|{payload}".encode()).hexdigest()[:16]


def judge(items: list[dict], results: list[dict], gauges: list[list[int]]) -> list[dict]:
    """Per-item record: class, latency, output digest and failure reason.

    ms is the item's CPU time scaled by the gauges just before and after
    it; cpu_ms and wall_ms are as measured.
    """
    rows = []
    for item, res in zip(items, results):
        around = gauges[res["gauge"]], gauges[res["gauge"] + 1]
        try:
            reason = check(item, res)
        except Exception as exc:  # noqa: BLE001 - an unparsable answer fails its item
            reason = f"check raised {exc!r}"
        rows.append(
            {"id": item["id"], "cls": item["cls"], "ms": scaled_s(res["cpu_ns"], *around) * 1e3,
             "cpu_ms": res["cpu_ns"] / 1e6, "wall_ms": res["ns"] / 1e6,
             "digest": digest(res), "fail": reason}
        )
    return rows


# ------------------------------------------------------------------ run facts


def facts(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu": cpu, "commit": commit,
        "src_lines": src_lines,
    }


def route_shares(items: list[dict], results: list[dict]) -> dict:
    """Share of issued iso items per (route, verdict printed)."""
    seen = Counter()
    for item, res in zip(items, results):
        if "route" in item:
            verdict = "NON-ISO" if res.get("out") == "NON-ISO\n" else "ISO" if res.get("rc") == 0 else "other"
            seen[f"{item['route']}/{verdict}"] += 1
    total = sum(seen.values())
    return {key: round(n / total, 4) for key, n in sorted(seen.items())} if total else {}


# ------------------------------------------------------------------- metrics


def latency_metrics(rows: list[dict]) -> dict:
    """Throughput and latency quantiles, in scaled CPU time.

    The worker is one single-threaded process doing no I/O, so on a core of
    its own its CPU time is its wall time; unlike wall time, it does not
    count the time other processes on the machine held the core.
    """
    ms = [r["ms"] for r in rows]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "items_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (p90, "ms"),
    }


def layer_metrics(trace: dict, extra: dict) -> dict:
    out = {}
    for fn, counters in LAYER_METRICS:
        entry = trace.get(fn, {"calls": 0, "yields": 0, "self_s": 0.0})
        for c in counters:
            out[f"{fn}.{c}"] = (entry[c], "s" if c == "self_s" else "count")
    cli_self = sum(e["self_s"] for name, e in trace.items() if name.startswith("cli."))
    out["cli.main.self_s"] = (cli_self, "s")
    calls = trace.get("iso.exact_isomorphic", {}).get("calls", 0)
    hits = extra.get("iso.exact_isomorphic.hits", 0)
    out["iso.exact_isomorphic.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    out["solving_sets.solving_set.perms"] = (extra.get("solving_sets.solving_set.perms", 0), "count")
    return out


def timed_run(workload: str, seed: int, seconds: float, tag: str):
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    items = workloads.generate(workload, seed, workloads.MAX_ROUNDS[workload])
    record = run_worker(items, tag, seconds)
    setups.append(record["setup"])
    results = record["results"]
    rows = judge(items, results, record["gauges"])
    metrics = {
        "setup_s": (statistics.median(s["scaled"] for s in setups), "s"),
        **latency_metrics(rows),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024, "MB"),
    }
    info = {"items_sha256": workloads.items_digest(items), "items_generated": len(items),
            "setup_samples": setups, "gauges_ns": record["gauges"],
            "loop_wall_s": record["loop_ns"] / 1e9,
            "loop_cpu_s": sum(r["cpu_ms"] for r in rows) / 1e3,
            "rounds_run": items[len(rows) - 1]["round"] + 1,
            "p90_samples_beyond": sum(r["ms"] > metrics["item_p90_ms"][0] for r in rows),
            "route_shares": route_shares(items, results)}
    return rows, metrics, info


def traced_run(workload: str, seed: int, tag: str):
    """Untraced, traced and untraced again over one fixed item list.

    The untraced passes bracket the traced one, so what drift in the
    machine's speed the gauge misses cancels out of trace.overhead_s.
    """
    items = workloads.generate(workload, seed, workloads.TRACE_ROUNDS[workload])
    spans = OUT / f"spans-{tag}.csv.gz"
    before = run_worker(items, tag + "-before", 0)
    traced = run_worker(items, tag + "-traced", 0, spans)
    after = run_worker(items, tag + "-after", 0)
    if any(len(run["results"]) != len(items) for run in (before, traced, after)):
        raise BenchError("a traced run did not complete its fixed item list")
    rows = judge(items, traced["results"], traced["gauges"])
    plain_rows = [judge(items, plain["results"], plain["gauges"]) for plain in (before, after)]
    for plain in plain_rows:
        for row, plain_row in zip(rows, plain):
            if row["fail"] is None and plain_row["fail"] is not None:
                row["fail"] = f"untraced run: {plain_row['fail']}"
            elif row["fail"] is None and row["digest"] != plain_row["digest"]:
                row["fail"] = "traced output differs from untraced output"
    untraced_s = [sum(r["ms"] for r in plain) / 1e3 for plain in plain_rows]
    traced_s = sum(r["ms"] for r in rows) / 1e3
    metrics = layer_metrics(traced["trace"], traced["extra"])
    metrics["trace.overhead_s"] = (traced_s - statistics.mean(untraced_s), "s")
    info = {"items_sha256": workloads.items_digest(items), "items_generated": len(items),
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans_file": str(spans.relative_to(ROOT)),
            "route_shares": route_shares(items, traced["results"])}
    return rows, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cyconf" / "__init__.py").is_file():
        print(f"error: no cyconf source tree under {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            rows, metrics, info = traced_run(args.workload, args.seed, tag)
        else:
            rows, metrics, info = timed_run(args.workload, args.seed, args.seconds, tag)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in rows if r["fail"] is not None]
    combined = hashlib.sha256("".join(r["digest"] for r in rows).encode()).hexdigest()
    record = {"facts": facts(args.workload, args.seed), **info, "output_sha256": combined,
              "fail_ratio": len(failed) / len(rows), "metrics": metrics, "items": rows}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for key, value in record["facts"].items():
        print(f"# {key}: {value}")
    for key in ("items_sha256", "output_sha256", "route_shares", "p90_samples_beyond"):
        if key in record:
            print(f"# {key}: {record[key]}")
    print(f"# items: {len(rows)} attempted, {len(failed)} failed, fail_ratio {record['fail_ratio']:.4f}")
    for r in failed[:10]:
        print(f"# FAIL item {r['id']} ({r['cls']}): {r['fail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
