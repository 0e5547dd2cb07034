from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import cyconf
from cyconf import baseline, cli, iso
from cyconf.baseline import _slice, canonical_form, enumerate_base_lines, slice_orbits
from cyconf.circulant import CirculantMatrix, incidence_text
from cyconf.cli import _parse_span, main, entry
from cyconf.counting import _slice_shift_keys, count_fixed_bruteforce


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_count_all_single(capsys):
    rc, out, _ = run(capsys, "count", "--v", "7")
    assert rc == 0
    assert out == "v=7 formula=1 sum=1 orbits=1 AGREE\n"


def test_count_formula_bare_int(capsys):
    rc, out, _ = run(capsys, "count", "--v", "13", "--mode", "formula")
    assert rc == 0
    assert out == "2\n"


def test_count_orbits_empty_modulus(capsys):
    rc, out, _ = run(capsys, "count", "--v", "6", "--mode", "orbits")
    assert rc == 0
    assert out == "0\n"


def test_count_range_lines(capsys):
    rc, out, _ = run(capsys, "count", "--v", "7..9", "--mode", "sum")
    assert rc == 0
    assert out.splitlines() == ["v=7 sum=1", "v=8 sum=1", "v=9 sum=1"]


def test_count_sum_reaches_the_formula_cap(capsys):
    # the unit sum runs over roots of unity, so it answers beyond 10**4
    for v in ("10001", "999999937"):
        rc, out, err = run(capsys, "count", "--v", v, "--mode", "sum")
        assert (rc, err) == (0, "")
        assert out == run(capsys, "count", "--v", v, "--mode", "formula")[1]
    rc, out, _ = run(capsys, "count", "--v", "10001..10003", "--mode", "sum")
    assert (rc, out) == (0, "v=10001 sum=1702\nv=10002 sum=3335\nv=10003 sum=1908\n")
    assert out == run(capsys, "count", "--v", "10001..10003", "--mode", "formula")[1].replace(
        "formula", "sum"
    )
    rc, out, err = run(capsys, "count", "--v", "1000000001", "--mode", "sum")
    assert (rc, out) == (2, "")
    assert err == "error: modulus 1000000001 exceeds the closed-form cap 1000000000\n"


def test_count_all_beyond_the_scan_cap_names_the_orbit_scan(capsys):
    rc, out, err = run(capsys, "count", "--v", "10001")
    assert (rc, out) == (2, "")
    assert err == "error: v=10001 exceeds the enumeration cap 300 for k=3\n"
    # the moduli below the cap are printed before the refusal
    rc, out, err = run(capsys, "count", "--v", "5..8", "--cap", "6")
    assert (rc, out) == (2, "v=5 formula=0 sum=0 orbits=0 AGREE\nv=6 formula=0 sum=0 orbits=0 AGREE\n")
    assert err == "error: v=7 exceeds the enumeration cap 6 for k=3\n"
    # the formula's own refusal comes before the cap's
    rc, out, err = run(capsys, "count", "--v", "3", "--cap", "2")
    assert (rc, out) == (2, "")
    assert err == "error: counts are defined for v > 4, got v=3\n"


def test_verify_beyond_the_scan_cap_checks_formula_against_sum(capsys):
    rc, out, err = run(capsys, "verify", "--v", "10001..10003")
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["v=10001 ok", "v=10002 ok", "v=10003 ok", "PASS 3 values checked"]


def test_count_orbits_k4(capsys):
    expected = len({canonical_form(S, 13) for S in enumerate_base_lines(13, 4)})
    rc, out, _ = run(capsys, "count", "--v", "13", "--k", "4", "--mode", "orbits")
    assert rc == 0
    assert out.strip() == str(expected)


def test_count_formula_rejects_k4(capsys):
    rc, _, err = run(capsys, "count", "--v", "13", "--k", "4", "--mode", "formula")
    assert rc == 2
    assert err.startswith("error:")


def test_count_formula_rejects_tiny_modulus(capsys):
    rc, _, err = run(capsys, "count", "--v", "4", "--mode", "formula")
    assert rc == 2
    assert err.startswith("error:")


def test_bad_span_arguments(capsys):
    for span in ("x", "9..7", "0..3", "7..x"):
        rc, _, err = run(capsys, "count", "--v", span)
        assert rc == 2, span
        assert err.startswith("error:"), span


def test_enumerate_sets(capsys):
    rc, out, _ = run(capsys, "enumerate", "--v", "7", "--format", "sets")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("0,") for line in lines)
    assert "0,1,3" in lines


def test_enumerate_reps(capsys):
    rc, out, _ = run(capsys, "enumerate", "--v", "7", "--reps", "--format", "sets")
    assert rc == 0
    assert out == "0,1,3\n"


def test_enumerate_record_fields(capsys):
    rc, out, _ = run(capsys, "enumerate", "--v", "7", "--reps")
    assert rc == 0
    assert out == "v=7 k=3 base_line=0,1,3 connected=true canonical=0,1,3 orbit_size=14\n"


def test_enumerate_nothing_below_seven(capsys):
    rc, out, _ = run(capsys, "enumerate", "--v", "6")
    assert rc == 0
    assert out == ""


@pytest.mark.parametrize(
    "v,extra", [(31, ()), (42, ()), (28, ("--connected",)), (37, ("--k", "4")), (45, ("--k", "4"))]
)
def test_enumerate_reps_records_match_recomputed_ones(capsys, v, extra):
    # the reference is the witnessed walk: each rep is its own canonical
    # form, counting (image, point) pairs two ways gives |orbit| * k =
    # |members| * v, and a rep holds 0, so it is connected iff gcd(v, *rep) = 1
    rc, out, _ = run(capsys, "enumerate", "--v", str(v), "--reps", *extra)
    assert rc == 0
    k = 4 if "--k" in extra else 3
    want = []
    for rep, members in slice_orbits(v, k, "--connected" in extra):
        points = ",".join(map(str, rep))
        connected = "true" if gcd(v, *rep) == 1 else "false"
        want.append(
            f"v={v} k={k} base_line={points} connected={connected}"
            f" canonical={points} orbit_size={len(members) * v // k}"
        )
    assert out.splitlines() == want


@pytest.mark.parametrize("argv", [("--v", "37", "--k", "4", "--reps"), ("--v", "26"), ("--v", "21")])
def test_each_record_runs_one_least_images_search(capsys, monkeypatch, argv):
    # the canonical form and the orbit size come from the same search
    searched = []
    least_images = baseline._least_images

    def counting(S, v):
        searched.append(tuple(S))
        return least_images(S, v)

    monkeypatch.setattr(baseline, "_least_images", counting)
    rc, out, _ = run(capsys, "enumerate", *argv)
    assert rc == 0
    bases = [r.split()[2].removeprefix("base_line=") for r in out.splitlines()]
    assert bases and searched == [tuple(map(int, b.split(","))) for b in bases]


def test_enumerate_reps_argument_errors(capsys):
    for argv, message in [
        (("--v", "7", "--k", "2"), "base lines need k >= 3, got k=2"),
        (("--v", "1000", "--k", "2", "--expand"), "base lines need k >= 3, got k=2"),
        (("--v", "1000", "--expand"), "expand and representatives_only are mutually exclusive"),
        (("--v", "50", "--cap", "40"), "v=50 exceeds the enumeration cap 40 for k=3"),
    ]:
        rc, out, err = run(capsys, "enumerate", "--reps", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_enumerate_expand_reps_conflict(capsys):
    rc, _, err = run(capsys, "enumerate", "--v", "7", "--expand", "--reps")
    assert rc == 2
    assert "mutually exclusive" in err


def test_enumerate_cap(capsys):
    rc, _, err = run(capsys, "enumerate", "--v", "301")
    assert rc == 2
    assert err.startswith("error:")
    rc, out, _ = run(capsys, "enumerate", "--v", "301", "--cap", "301", "--reps", "--format", "sets")
    assert rc == 0
    assert len(out.splitlines()) > 0


def test_iso_multiplier_verdict(capsys):
    rc, out, _ = run(capsys, "iso", "--v", "8", "--s1", "0,1,3", "--s2", "0,5,7")
    assert rc == 0
    assert out == "ISO multiplier a=5 b=0\n"


def test_iso_identity(capsys):
    rc, out, _ = run(capsys, "iso", "--v", "7", "--s1", "0,1,3", "--s2", "0,1,3")
    assert rc == 0
    assert out == "ISO multiplier a=1 b=0\n"


def test_iso_negative(capsys):
    rc, out, _ = run(capsys, "iso", "--v", "13", "--s1", "0,1,3", "--s2", "0,1,4")
    assert rc == 1
    assert out == "NON-ISO\n"


def test_iso_exact_gives_explicit_witness(capsys):
    rc, out, _ = run(capsys, "iso", "--v", "8", "--s1", "0,1,3", "--s2", "0,5,7", "--method", "exact")
    assert rc == 0
    assert out.startswith("ISO explicit ")
    table = [int(x) for x in out.split()[2].split(",")]
    assert sorted(table) == list(range(8))


def test_iso_solving_set_method(capsys):
    rc, out, _ = run(capsys, "iso", "--v", "21", "--s1", "0,1,5", "--s2", "0,2,10")
    assert rc == 0
    rc2, out2, _ = run(
        capsys, "iso", "--v", "21", "--s1", "0,1,5", "--s2", "0,2,10", "--method", "solving-set"
    )
    assert rc2 == 0
    assert out2.startswith("ISO ")


def test_iso_witness_replay_failure_raises(capsys, monkeypatch):
    monkeypatch.setattr(cli, "witness_valid", lambda C1, C2, w: False)
    argv = ["iso", "--v", "8", "--s1", "0,1,3", "--s2", "0,5,7"]
    with pytest.raises(RuntimeError, match="fails replay"):
        main(argv)
    # through the console script it is an internal error, not a verdict
    monkeypatch.setattr(sys, "argv", ["cyconf", *argv])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 3
    out = capsys.readouterr()
    assert out.out == "" and "fails replay" in out.err


@pytest.mark.parametrize("method", [(), ("--method", "exact")])
def test_exact_route_iso_builds_each_line_list_once(capsys, monkeypatch, method):
    # k = 5 at v = 28: auto compares refinement invariants, then both
    # routes search and the witness is replayed
    built = []
    translate_system = CirculantMatrix.translate_system

    def counting_translate_system(A):
        built.append(A.support)
        return translate_system(A)

    monkeypatch.setattr(CirculantMatrix, "translate_system", counting_translate_system)
    rc, out, _ = run(capsys, "iso", "--v", "28", "--s1", "0,1,3,8,19", "--s2", "1,5,6,8,14", *method)
    assert rc == 0 and out.startswith("ISO explicit ")
    assert sorted(built) == [(0, 1, 3, 8, 19), (1, 5, 6, 8, 14)]


def test_iso_answers_past_the_recursion_limit(capsys):
    pair = ("--v", "1000", "--s1", "0,708,815,862,966", "--s2", "3,357,381,455,488", "--cap", "1000")
    rc, out, err = run(capsys, "iso", *pair, "--method", "exact")
    assert rc == 0 and out.startswith("ISO explicit 0,19,38,") and err == ""
    assert run(capsys, "iso", *pair) == (rc, out, err)
    assert run(capsys, "iso", *pair, "--method", "multiplier") == (0, "ISO multiplier a=19 b=3\n", "")


def test_iso_refuses_a_cap_past_the_enumeration_cap_before_refining(capsys, monkeypatch):
    def refine(C):
        raise RuntimeError("refined past the cap")

    monkeypatch.setattr(iso, "_refinement_rounds", refine)
    pair = ("--v", "20000", "--s1", "0,3863,4402,8358,18651", "--s2", "7,5081,11596,13213,15960")
    assert run(capsys, "iso", *pair, "--cap", "20000") == (
        2, "", "error: v=20000 exceeds the exact search cap 10000\n"
    )


def test_parser_is_built_once_across_calls(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "count", "--v", "13", "--mode", "formula") == (0, "2\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["count", "--mode", "formula"])  # --v is required
    usage = capsys.readouterr()
    assert exc.value.code == 2 and usage.out == ""
    assert usage.err.startswith("usage: cyconf count") and "--v" in usage.err
    assert run(capsys, "count", "--v", "9..7")[0] == 2
    assert run(capsys, "count", "--v", "13", "--mode", "formula") == (0, "2\n", "")
    assert cli._build_parser.cache_info().misses == 1


def test_iso_rejects_non_base_line(capsys):
    rc, _, err = run(capsys, "iso", "--v", "7", "--s1", "0,1,2", "--s2", "0,1,3")
    assert rc == 2
    assert "not a base line" in err


def test_iso_rejects_colliding_residues(capsys):
    rc, _, err = run(capsys, "iso", "--v", "7", "--s1", "0,1,8", "--s2", "0,1,3")
    assert rc == 2
    assert "collide" in err


def test_export_incidence(capsys):
    rc, out, _ = run(capsys, "export", "--v", "7", "--s", "0,1,3", "--format", "incidence")
    assert rc == 0
    rows = out.strip().splitlines()
    assert len(rows) == 7
    assert rows[0] == "1101000"
    # written row by row, then the newline print adds
    for v, S in [(7, (0, 1, 3)), (50, (0, 1, 7, 19))]:
        argv = ("export", "--v", str(v), "--s", ",".join(map(str, S)), "--format", "incidence")
        assert run(capsys, *argv) == (0, incidence_text(CirculantMatrix(v, S)) + "\n", "")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_export_incidence_holds_one_row_at_a_time():
    # the whole text at v = 9973 is 99.5 MB; a child that held it would
    # peak past 200 MB, and a bare interpreter with cyconf is about 18 MB
    probe = (
        "import resource, subprocess, sys\n"
        "argv = ['export', '--v', '9973', '--s', '0,1,3', '--format', 'incidence']\n"
        "subprocess.run([sys.executable, '-m', 'cyconf', *argv], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cyconf_env(), timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 40 * 1024


def test_export_levi(capsys):
    rc, out, _ = run(capsys, "export", "--v", "7", "--s", "0,1,3", "--format", "levi")
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0] == "levi 7 3"
    assert len(rows) == 1 + 21


def test_export_record_default(capsys):
    rc, out, _ = run(capsys, "export", "--v", "7", "--s", "0,1,3")
    assert rc == 0
    assert out == "v=7 k=3 base_line=0,1,3 connected=true canonical=0,1,3 orbit_size=14\n"


def test_verify_small_sweep(capsys):
    rc, out, _ = run(capsys, "verify", "--v", "7..10")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:4] == ["v=7 ok", "v=8 ok", "v=9 ok", "v=10 ok"]
    assert lines[-1] == "PASS 4 values checked"


def test_a_span_of_moduli_keeps_one_cached_slice(capsys):
    _slice.cache_clear()
    rc, out, _ = run(capsys, "verify", "--v", "20..26")
    assert rc == 0 and out.endswith("PASS 7 values checked\n")
    assert _slice.cache_info().currsize == 1
    assert _slice.cache_info().hits > 0  # reused within each modulus
    _slice_shift_keys.cache_clear()
    for v in range(20, 27):
        for l in (1, v - 1):
            count_fixed_bruteforce(v, 3, l)
    assert _slice_shift_keys.cache_info().currsize == 1
    assert _slice_shift_keys.cache_info().hits == 7  # the second unit at each v


def test_verify_accepts_empty_moduli(capsys):
    rc, out, _ = run(capsys, "verify", "--v", "5..6")
    assert rc == 0
    assert out.splitlines()[-1] == "PASS 2 values checked"


def test_verify_floor(capsys):
    rc, _, err = run(capsys, "verify", "--v", "4..6")
    assert rc == 2
    assert "v >= 5" in err


def test_verify_jobs_output_identical(capsys):
    rc1, out1, _ = run(capsys, "verify", "--v", "7..12")
    rc2, out2, _ = run(capsys, "verify", "--v", "7..12", "--jobs", "2")
    assert (rc1, out1) == (rc2, out2)


class _CountingPool:
    """Stands in for ProcessPoolExecutor: runs each submission at once and
    counts the futures handed out but not yet read."""

    def __init__(self, max_workers):
        self.jobs = max_workers
        self.submitted = self.pending = self.peak = 0
        _CountingPool.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        self.submitted += 1
        self.pending += 1
        self.peak = max(self.peak, self.pending)
        return _CountedFuture(self, fn(arg))


class _CountedFuture:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.pending -= 1
        return self.value

    def cancel(self):
        return False


def test_verify_jobs_keeps_a_bounded_number_of_futures_pending(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    # a trivial check per modulus that fails at v=5000 alone
    monkeypatch.setattr(cli, "_verify_one", lambda p: (p[0], ["stub"] if p[0] == 5000 else []))
    rc, out, _ = run(capsys, "verify", "--v", "5..10004", "--jobs", "3")
    pool = _CountingPool.last
    assert rc == 1 and pool.jobs == 3
    assert pool.submitted == 10000 and pool.pending == 0
    assert pool.peak == 6  # 2 * jobs
    lines = out.splitlines()
    assert lines[0] == "v=5 ok" and lines[9999] == "v=10004 ok"
    assert lines[4995] == "v=5000 FAIL: stub"
    assert lines[-1] == "FAIL 1 of 10000 values mismatched" and len(lines) == 10001


def test_verify_prints_each_v_as_it_finishes(capsys, monkeypatch):
    seen = {}
    real = cli._verify_one

    def spy(payload):
        seen[payload[0]] = capsys.readouterr().out
        return real(payload)

    monkeypatch.setattr(cli, "_verify_one", spy)
    assert main(["verify", "--v", "7..9"]) == 0
    assert seen[7] == ""
    assert seen[8] == "v=7 ok\n"
    assert seen[9] == "v=8 ok\n"


def _off_by_one_at_8(real):
    return lambda v, *args, **kwargs: real(v, *args, **kwargs) + (v == 8)


def _oracle_off_by_one_at_8(real):
    def report(v, *args, **kwargs):
        out = real(v, *args, **kwargs)
        return {**out, "orbits": out["orbits"] + (v == 8)}

    return report


@pytest.mark.parametrize(
    "route, corrupt, count_line, verify_args, fails",
    [
        (
            "count_unit_sum", _off_by_one_at_8,
            "v=8 formula=1 sum=2 orbits=1 DISAGREE", (), ["formula 1 != unit sum 2"],
        ),
        (
            "count_orbit_scan", _off_by_one_at_8,
            "v=8 formula=1 sum=1 orbits=2 DISAGREE", (),
            ["orbit scan 2 != formula 1", "orbit identity fails: fixed sum 12, orbits 2"],
        ),
        (
            "completeness_report", _oracle_off_by_one_at_8,
            None, ("--oracle",), ["oracle sees 2 orbits, scan 1"],
        ),
    ],
    ids=["unit-sum", "orbit-scan", "oracle"],
)
def test_a_corrupted_route_fails_count_and_verify(
    capsys, monkeypatch, route, corrupt, count_line, verify_args, fails
):
    monkeypatch.setattr(cli, route, corrupt(getattr(cli, route)))
    rc, out, _ = run(capsys, "count", "--v", "7..9")
    lines = [f"v={v} formula=1 sum=1 orbits=1 AGREE" for v in (7, 8, 9)]
    if count_line is None:  # count runs no oracle
        assert (rc, out.splitlines()) == (0, lines)
    else:
        assert (rc, out.splitlines()) == (1, [lines[0], count_line, lines[2]])
    rc, out, _ = run(capsys, "verify", "--v", "7..9", *verify_args)
    assert rc == 1
    assert out.splitlines() == [
        "v=7 ok", *(f"v=8 FAIL: {f}" for f in fails), "v=9 ok", "FAIL 1 of 3 values mismatched"
    ]


def test_verify_refuses_k_below_3_before_any_worker_starts(capsys, monkeypatch):
    # above the fallback cap no route runs at such k, so verify used to pass
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # calling it would raise
    for k in ("2", "-7"):
        for jobs in ("1", "2"):
            rc, out, err = run(capsys, "verify", "--v", "41..43", "--k", k, "--jobs", jobs)
            assert (rc, out, err) == (2, "", f"error: base lines need k >= 3, got k={k}\n")
    rc, out, _ = run(capsys, "verify", "--v", "41")
    assert (rc, out) == (0, "v=41 ok\nPASS 1 values checked\n")


def test_verify_k4(capsys):
    rc, out, _ = run(capsys, "verify", "--v", "13..16", "--k", "4")
    assert rc == 0
    assert out.splitlines()[-1] == "PASS 4 values checked"


def test_verify_oracle(capsys):
    rc, out, _ = run(capsys, "verify", "--v", "7..9", "--oracle")
    assert rc == 0
    assert out.splitlines()[-1] == "PASS 3 values checked"


def test_output_is_deterministic(capsys):
    args = ("count", "--v", "7..30")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("enumerate", "--v", "13")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_entry_raises_systemexit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cyconf", "count", "--v", "7", "--mode", "formula"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert capsys.readouterr().out == "1\n"


def test_an_internal_error_exits_3_with_its_traceback(capsys, monkeypatch):
    def broken(argv=None):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "main", broken)
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: broken on purpose\n")


def test_parse_span_is_a_range():
    assert _parse_span("5..10") == range(5, 11)
    assert _parse_span("7") == range(7, 8)


def _cyconf_env():
    src = str(Path(cyconf.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_import_loads_neither_the_process_pool_nor_dataclasses():
    # no default command needs these, and together they took longer to
    # import than cyconf; verify --jobs N loads the pool only when N > 1
    probe = "import sys, cyconf, cyconf.cli; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=_cyconf_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "cyconf.cli" in loaded
    # counting divides in integers, so fractions and the decimal and
    # numbers modules it pulls in stay unloaded too
    forbidden = {"concurrent.futures", "dataclasses", "typing", "inspect",
                 "fractions", "decimal", "_decimal", "numbers"}
    assert loaded & forbidden == set()


def _python_m_cyconf(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cyconf", *argv],
        capture_output=True, text=True, env=_cyconf_env(), timeout=60,
    )


def test_python_m_cyconf():
    done = _python_m_cyconf("count", "--v", "7")
    assert done.returncode == 0
    assert done.stdout == "v=7 formula=1 sum=1 orbits=1 AGREE\n"
    done = _python_m_cyconf("count", "--v", "x")
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["levi", "incidence"])
def test_export_refuses_a_huge_modulus(fmt):
    # refused before a single row is built: no MemoryError, no endless print
    done = _python_m_cyconf("export", "--v", "999999937", "--s", "0,1,3", "--format", fmt)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: modulus 999999937 exceeds the enumeration cap 10000\n"


def test_broken_pipe_is_quiet():
    # about 400 KB of output, more than a pipe buffers: the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyconf", "enumerate", "--v", "300", "--format", "sets"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cyconf_env(),
    )
    assert proc.stdout.readline() == b"0,1,3\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


# every subcommand with valid arguments; the fuzz test spoils one at a time
VALID = {
    "count": ["--v=7"],
    "enumerate": ["--v=7"],
    "iso": ["--v=7", "--s1=0,1,3", "--s2=0,1,5"],
    "verify": ["--v=7"],
    "export": ["--v=7", "--s=0,1,3"],
}
BAD_INTS = ["", "x", "1.5", "0x10", "7..x", "--"]
MALFORMED = {
    "--v": BAD_INTS + ["0", "-1", "9..7", "..3", "7..7..7", "100000000000000000000"],
    "--s": ["", "x", "0,,1", "0,1", "0,1,2", "0,1,8", "0;1;3", "0,1,3,", "--"],
    "--k": BAD_INTS + ["2", "-1"],
    "--cap": BAD_INTS + ["7..9", "0", "-1"],
    "--jobs": BAD_INTS + ["7..9", "0", "-1"],  # all rejected before any worker starts
}


def _exit_code(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        rc = exc.code
    return rc, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(VALID))
def test_malformed_options_exit_2(capsys, command):
    for opt, values in MALFORMED.items():
        opts = ("--s1", "--s2") if opt == "--s" and command == "iso" else (opt,)
        for name in opts:
            for value in values:
                kept = [a for a in VALID[command] if not a.startswith(name + "=")]
                argv = [command, *kept, f"{name}={value}"]
                rc, out = _exit_code(capsys, argv)
                assert rc == 2, argv
                assert out.err.strip(), argv
                assert "Traceback" not in out.err, argv
