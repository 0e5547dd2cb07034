"""Tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They cover the self-time arithmetic of the tracer, the binding of every
imported copy of a traced function, the answer checks (a tampered
witness and a flipped verdict must fail), the seeded generator and the
scaling of CPU time by the speed gauge.
"""

from __future__ import annotations

import importlib
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ tracer


class Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    c = Clock()
    monkeypatch.setattr(tracing, "perf_counter_ns", c)
    return c


def test_self_time_of_nested_calls(clock):
    t = tracing.Tracer()

    def inner():
        clock.now += 11

    inner = t.wrap("m.inner", inner)

    def outer():
        clock.now += 5
        inner()
        clock.now += 7
        inner()

    t.wrap("m.outer", outer)()
    s = t.summary()
    assert s["m.outer"] == {"calls": 1, "yields": 0, "self_s": 12e-9}
    assert s["m.inner"] == {"calls": 2, "yields": 0, "self_s": 22e-9}


def test_generator_is_timed_while_iterated(clock):
    t = tracing.Tracer()

    def gen():
        clock.now += 3
        yield 1
        clock.now += 4
        yield 2
        clock.now += 5

    gen = t.wrap("m.gen", gen)

    def consume_all():
        clock.now += 2
        for _ in gen():
            clock.now += 100

    def consume_first():
        for x in gen():
            return x

    t.wrap("m.all", consume_all)()
    s = t.summary()
    assert s["m.gen"] == {"calls": 1, "yields": 2, "self_s": 12e-9}
    assert s["m.all"]["self_s"] == 202e-9
    t.wrap("m.first", consume_first)()
    s = t.summary()
    assert s["m.gen"] == {"calls": 2, "yields": 3, "self_s": 15e-9}
    assert s["m.first"]["self_s"] == 0


@pytest.fixture
def traced_cyconf():
    """Install the tracer on cyconf and undo every rebinding afterwards."""
    import cyconf

    mods = [cyconf] + [importlib.import_module(f"cyconf.{m}") for m in tracing.MODULES]
    saved = [(m, dict(vars(m))) for m in mods]
    cls = cyconf.CyclicConfiguration
    methods = {name: cls.__dict__[name] for name in ("lines", "line_set")}
    t = tracing.Tracer()
    tracing.install(t)
    yield t
    for m, attrs in saved:
        for name, value in attrs.items():
            setattr(m, name, value)
    for name, fn in methods.items():
        setattr(cls, name, fn)


def test_every_imported_copy_is_wrapped(traced_cyconf):
    import cyconf
    from cyconf import baseline, circulant, cli, counting, iso, solving_sets

    for mod in (cyconf, counting, iso, cli):
        assert mod.canonical_form is baseline.canonical_form
    for mod in (iso, circulant):
        assert mod.affine_map_between is baseline.affine_map_between
    assert solving_sets.multiplier_equivalent is iso.multiplier_equivalent
    assert baseline.canonical_form.__wrapped__ is not baseline.canonical_form

    S1 = ref.random_base_line(random.Random(0), 45, 5)
    S2 = ref.affine(S1, 2, 7, 45)
    assert cli.main(["count", "--v", "13"]) == 0
    assert cli.main(["iso", "--v", "45", "--s1", ",".join(map(str, S1)),
                     "--s2", ",".join(map(str, S2))]) == 0
    s = traced_cyconf.summary()
    assert s["counting.count_orbit_scan"]["calls"] == 1
    assert s["baseline.canonical_form"]["calls"] >= 1  # through counting's binding
    assert s["iso.witness_valid"]["calls"] == 1  # through cli's binding
    assert s["search.line_bijections"]["yields"] >= 1
    assert s["configuration.lines"]["calls"] >= 2  # patched on the class


# ------------------------------------------------------------------ checker

ISO_ITEM = {"cls": "iso-multiplier", "call": "cli", "v": 21, "k": 3,
            "s1": [0, 1, 5], "s2": [0, 2, 10], "expect": "ISO"}
NON_ISO_ITEM = {**ISO_ITEM, "v": 13, "s1": [0, 1, 3], "s2": [0, 1, 4], "expect": "NON-ISO"}


def cli_result(rc, out):
    return {"ns": 1, "rc": rc, "out": out}


def test_checker_accepts_true_answers():
    assert check.check(ISO_ITEM, cli_result(0, "ISO multiplier a=2 b=0\n")) is None
    perm = ",".join(str(2 * x % 21) for x in range(21))
    assert check.check(ISO_ITEM, cli_result(0, f"ISO explicit {perm}\n")) is None
    assert check.check(NON_ISO_ITEM, cli_result(1, "NON-ISO\n")) is None


def test_checker_rejects_tampered_witness():
    # translations are automorphisms, so only a wrong multiplier breaks replay
    assert check.check(ISO_ITEM, cli_result(0, "ISO multiplier a=4 b=0\n")) == "witness fails replay"
    perm = [2 * x % 21 for x in range(21)]
    perm[3], perm[4] = perm[4], perm[3]
    out = "ISO explicit " + ",".join(map(str, perm)) + "\n"
    assert check.check(ISO_ITEM, cli_result(0, out)) == "witness fails replay"
    assert check.check(ISO_ITEM, cli_result(0, "ISO explicit 0,1,2\n")) == "witness fails replay"


def test_checker_rejects_flipped_verdict():
    assert check.check(ISO_ITEM, cli_result(1, "NON-ISO\n")) == "NON-ISO for an ISO pair"
    out = "ISO multiplier a=1 b=0\n"
    assert check.check(NON_ISO_ITEM, cli_result(0, out)) == "ISO for a NON-ISO pair"
    assert check.check(NON_ISO_ITEM, cli_result(0, "NON-ISO\n")) == "NON-ISO with exit code 0"


def test_checker_rejects_wrong_counts_and_outputs():
    item = {"cls": "count-all", "call": "cli", "v": 13}
    assert check.check(item, cli_result(0, "v=13 formula=2 sum=2 orbits=2 AGREE\n")) is None
    assert check.check(item, cli_result(1, "v=13 formula=2 sum=2 orbits=3 DISAGREE\n"))
    assert check.check({**item, "cls": "count-sum"}, cli_result(0, "3\n"))
    rec = "v=13 k=3 base_line={0} connected=true canonical={0} orbit_size={1}"
    good = rec.format("0,1,3", 156) + "\n" + rec.format("0,1,4", 52) + "\n"
    enum = {"cls": "enumerate-k3", "call": "cli", "v": 13, "k": 3}
    assert check.check(enum, cli_result(0, good)) is None
    assert "cover" in check.check(enum, cli_result(0, good.splitlines()[0] + "\n"))
    assert check.check(enum, cli_result(0, good.replace("52", "51")))


def test_checker_rejects_tampered_paq_witness():
    item = {"cls": "paq_equivalent-affine", "call": "paq_equivalent", "v": 8,
            "s1": [0, 1, 3, 4], "s2": [1, 2, 4, 5]}
    rows2 = {frozenset((s + j) % 8 for s in item["s2"]): j for j in range(8)}
    sigma = [(3 * x + 1) % 8 for x in range(8)]
    pi = [rows2[frozenset(sigma[(s + i) % 8] for s in item["s1"])] for i in range(8)]
    assert check.check(item, {"ns": 1, "value": [pi, sigma]}) is None
    pi[0], pi[1] = pi[1], pi[0]
    assert check.check(item, {"ns": 1, "value": [pi, sigma]}).startswith("PAQ witness fails")
    assert check.check(item, {"ns": 1, "value": None})


# ---------------------------------------------------------------- reference


def test_reference_canonical_form_matches_full_scan():
    for v, S in ((13, (0, 1, 4)), (21, (0, 3, 7)), (40, (0, 1, 3, 7))):
        full = min(
            tuple(sorted((a * s + b) % v for s in S))
            for a in ref.unit_list(v)
            for b in range(v)
        )
        assert ref.canonical(S, v) == full


def _levi(S, v):
    G = nx.Graph()
    for i in range(v):
        for s in S:
            G.add_edge(("p", (s + i) % v), ("l", i))
    nx.set_node_attributes(G, {n: n[0] for n in G}, "side")
    return G


def test_levi_invariant_agrees_with_vf2():
    pairs = [(13, (0, 1, 3), (0, 1, 4)), (13, (0, 1, 3), (0, 2, 6)),
             (15, (0, 1, 3), (0, 1, 5)), (15, (0, 1, 4), (0, 2, 8)),
             (19, (0, 1, 3), (0, 1, 5))]
    for v, S1, S2 in pairs:
        vf2 = nx.vf2pp_is_isomorphic(_levi(S1, v), _levi(S2, v), node_label="side")
        same = ref.levi_invariant(S1, v) == ref.levi_invariant(S2, v)
        assert vf2 or not same  # different invariants always mean NON-ISO
        assert not vf2 or same  # isomorphic configurations share the invariant


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    a = workloads.generate(workload, 5, 3)
    assert a == workloads.generate(workload, 5, 3)
    assert workloads.items_digest(a) == workloads.items_digest(workloads.generate(workload, 5, 3))
    assert a[: len(a) * 2 // 3] == workloads.generate(workload, 5, 2)
    assert workloads.items_digest(a) != workloads.items_digest(workloads.generate(workload, 6, 3))


def test_generated_iso_verdicts_hold():
    """ISO pairs are affine images; NON-ISO pairs are proven by the reference."""
    assert not any(ref.multiplier_complete(v, 5) for v in workloads.EXACT_V)
    for item in workloads.generate("iso-mix", 5, 2):
        v, S1, S2 = item["v"], tuple(item["s1"]), tuple(item["s2"])
        if item["expect"] == "ISO":
            assert ref.canonical(S1, v) == ref.canonical(S2, v)
        elif item["route"] == "exact":
            assert ref.levi_invariant(S1, v) != ref.levi_invariant(S2, v)
        else:
            assert ref.canonical(S1, v) != ref.canonical(S2, v)


# ------------------------------------------------------------ speed scaling


def test_item_time_is_scaled_by_the_gauges_around_it(monkeypatch):
    import run

    monkeypatch.setattr(run, "check", lambda item, res: None)
    unit = speed.REFERENCE_NS
    items = [{"id": 0, "cls": "a"}, {"id": 1, "cls": "b"}]
    results = [
        {"cpu_ns": 30_000_000, "ns": 31_000_000, "gauge": 0, "rc": 0, "out": ""},
        {"cpu_ns": 30_000_000, "ns": 31_000_000, "gauge": 1, "rc": 0, "out": ""},
    ]
    gauges = [[unit, unit], [unit, 3 * unit], [2 * unit, 2 * unit]]
    rows = run.judge(items, results, gauges)
    assert rows[0]["ms"] == pytest.approx(20.0)  # kernel runs around it average 1.5 units
    assert rows[1]["ms"] == pytest.approx(15.0)  # the kernel ran at half speed
    assert (rows[0]["cpu_ms"], rows[0]["wall_ms"]) == (30.0, 31.0)
    assert run.latency_metrics(rows)["items_per_s"][0] == pytest.approx(2 / 0.035)


def test_run_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
