"""Command-line surface: count, enumerate, iso, verify, export.

Exit codes are a stable contract: 0 for success (including an ISO
verdict and a passing verify sweep), 1 for NON-ISO or a verify
mismatch, 2 for usage errors, 3 for an internal error (its traceback
goes to stderr), 141 when the reader closes stdout early.
Output is deterministic for identical flags; the verify sweep may fan
out over processes, with at most two moduli per process in flight, but
prints each v as it finishes, in ascending v.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import deque
from contextlib import nullcontext

from .baseline import (
    _require_k,
    canonical_form,
    ensure_enumerable,
    enumerate_base_lines,
    enumeration_cap,
    is_base_line,
    is_connected,
    orbit_size,
)
from .circulant import _incidence_rows
from .configuration import CyclicConfiguration, incidence_matrix, levi_graph, levi_text
from .counting import (
    _fixed_table,
    count_closed_formula,
    count_fixed_closed,
    count_orbit_scan,
    count_unit_sum,
)
from .iso import completeness_report, isomorphic, witness_valid
from .residue_ring import _residues, phi, units


class CliError(Exception):
    """Bad arguments discovered after parsing; mapped to exit code 2."""


def _parse_span(text: str) -> range:
    """'N' or 'A..B' (inclusive) to a range of moduli."""
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError(f"expected N or A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise CliError(f"bad range {text!r}")
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    """argparse type for --cap and --jobs."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_single(text: str) -> int:
    span = _parse_span(text)
    if len(span) != 1:
        raise CliError(f"expected a single modulus, got range {text!r}")
    return span[0]


def _parse_points(text: str, v: int) -> tuple[int, ...]:
    try:
        raw = [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"expected comma-separated residues, got {text!r}") from None
    pts = _residues(raw, v)
    if len(pts) != len(raw):
        raise CliError(f"residues collide mod {v}: {text!r}")
    return pts


def _parse_base_line(text: str, v: int) -> tuple[int, ...]:
    S = _parse_points(text, v)
    if not is_base_line(S, v):
        raise CliError(f"{text!r} is not a base line mod {v}")
    return S


def _fmt_points(S) -> str:
    return ",".join(str(x) for x in S)


def _record_line(v: int, S) -> str:
    # field order is part of the format: v, k, base_line, connected,
    # canonical, orbit_size
    return (
        f"v={v} k={len(S)}"
        f" base_line={_fmt_points(S)}"
        f" connected={'true' if is_connected(S, v) else 'false'}"
        f" canonical={_fmt_points(canonical_form(S, v))}"
        f" orbit_size={orbit_size(S, v)}"
    )


# ------------------------------------------------------------------ commands


def cmd_count(args: argparse.Namespace) -> int:
    span = _parse_span(args.v)
    if args.mode != "orbits" and args.k != 3:
        raise CliError(f"mode {args.mode!r} has a closed form only for k=3")
    disagreed = False
    for v in span:
        if args.mode == "all":
            nf, ns, no, failures = _cross_check(v, 3, args.cap)
            if no is None:
                ensure_enumerable(v, 3, args.cap)  # mode all needs the scan: refuse
            disagreed |= bool(failures)
            print(f"v={v} formula={nf} sum={ns} orbits={no} {'DISAGREE' if failures else 'AGREE'}")
            continue
        if args.mode == "formula":
            n = count_closed_formula(v)
        elif args.mode == "sum":
            n = count_unit_sum(v)
        else:
            n = count_orbit_scan(v, args.k, args.cap)
        print(n if len(span) == 1 else f"v={v} {args.mode}={n}")
    return 1 if disagreed else 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    v = _parse_single(args.v)
    lines = enumerate_base_lines(
        v,
        args.k,
        connected_only=args.connected,
        expand=args.expand,
        representatives_only=args.reps,
        cap=args.cap,
    )
    for S in lines:
        print(_fmt_points(S) if args.format == "sets" else _record_line(v, S))
    return 0


def cmd_iso(args: argparse.Namespace) -> int:
    v = _parse_single(args.v)
    S1 = _parse_base_line(args.s1, v)
    S2 = _parse_base_line(args.s2, v)
    C1 = CyclicConfiguration(v, S1)
    C2 = CyclicConfiguration(v, S2)
    w = isomorphic(C1, C2, method=args.method, cap=args.cap)
    if w is None:
        print("NON-ISO")
        return 1
    if not witness_valid(C1, C2, w):
        raise RuntimeError(f"the {w.kind} witness for {S1} ~ {S2} mod {v} fails replay")
    if w.kind == "multiplier":
        print(f"ISO multiplier a={w.a} b={w.b}")
    else:
        print(f"ISO explicit {_fmt_points(w.point_map)}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    v = _parse_single(args.v)
    S = _parse_base_line(args.s, v)
    C = CyclicConfiguration(v, S)
    if args.format == "incidence":
        sys.stdout.writelines(_incidence_rows(incidence_matrix(C)))  # one row held at a time
        print()
    elif args.format == "levi":
        print(levi_text(levi_graph(C)))
    else:
        print(_record_line(v, S))
    return 0


def _cross_check(v: int, k: int, cap: int | None):
    """(formula, unit sum, orbit scan, failures) at (v, k); None for a route not run.

    The formula and the sum run at k = 3, the scan wherever v is within
    the enumeration cap; failures is empty iff the routes that ran agree.
    """
    nf = count_closed_formula(v) if k == 3 else None
    ns = count_unit_sum(v) if k == 3 else None
    no = count_orbit_scan(v, k, cap) if v <= enumeration_cap(k, cap) else None
    failures = []
    if nf != ns:
        failures.append(f"formula {nf} != unit sum {ns}")
    if nf is not None and no is not None and no != nf:
        failures.append(f"orbit scan {no} != formula {nf}")
    return nf, ns, no, failures


def _verify_one(payload: tuple[int, int, bool, int | None]) -> tuple[int, list[str]]:
    """All checks for one modulus; returns (v, failure descriptions)."""
    v, k, oracle, cap = payload
    _, _, orbits, failures = _cross_check(v, k, cap)
    if k == 3 and orbits is not None:
        total = 0
        table = _fixed_table(v, 3)
        for l in units(v):
            nb = table[l]
            nc = count_fixed_closed(v, l)
            if nb != nc:
                failures.append(f"fixed counts split at l={l}: brute {nb}, closed {nc}")
            total += nb
        if total != 3 * phi(v) * orbits:
            failures.append(f"orbit identity fails: fixed sum {total}, orbits {orbits}")
    if oracle and orbits is not None:
        report = completeness_report(v, k, exact_members=2, cap=cap)
        if report["orbits"] != orbits:
            failures.append(f"oracle sees {report['orbits']} orbits, scan {orbits}")
        failures.extend(report["mismatches"])
    return v, failures


def _bounded_map(pool, fn, items, depth: int):
    """pool.map(fn, items) in order, with at most depth submissions pending."""
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:  # left early: drop what has not started
            future.cancel()


def cmd_verify(args: argparse.Namespace) -> int:
    span = _parse_span(args.v)
    if span[0] < 5:
        raise CliError("verify needs v >= 5")
    _require_k(args.k)  # else no route would run above the cap, and verify would pass
    payloads = ((v, args.k, args.oracle, args.cap) for v in span)
    bad = 0
    if args.jobs > 1:
        # imported here alone: loading the process pool costs about as much
        # as importing cyconf, and no other command needs it
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=args.jobs)
    else:
        executor = nullcontext()
    # both maps yield in ascending v as results come in
    with executor as pool:
        if pool:
            results = _bounded_map(pool, _verify_one, payloads, 2 * args.jobs)
        else:
            results = map(_verify_one, payloads)
        for v, failures in results:
            if failures:
                bad += 1
                for f in failures:
                    print(f"v={v} FAIL: {f}", flush=True)
            else:
                print(f"v={v} ok", flush=True)
    if bad:
        print(f"FAIL {bad} of {len(span)} values mismatched")
        return 1
    print(f"PASS {len(span)} values checked")
    return 0


# -------------------------------------------------------------------- parser


@functools.cache  # built on the first call, then shared: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyconf",
        description="Count, enumerate and compare cyclic combinatorial configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count isomorphism classes")
    p.add_argument("--v", required=True, help="modulus N or range A..B")
    p.add_argument("--k", type=int, default=3, help="line size (default 3)")
    p.add_argument(
        "--mode",
        choices=("formula", "sum", "orbits", "all"),
        default="all",
        help="closed formula, unit sum, brute-force orbit scan, or all three",
    )
    p.add_argument("--cap", type=_positive_int, default=None, help="enumeration cap override")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list base lines or orbit representatives")
    p.add_argument("--v", required=True, help="modulus")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--connected", action="store_true", help="connected base lines only")
    p.add_argument("--reps", action="store_true", help="one canonical representative per orbit")
    p.add_argument("--expand", action="store_true", help="all translates, not just sets through 0")
    p.add_argument("--format", choices=("record", "sets"), default="record")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("iso", help="decide isomorphism of two base lines")
    p.add_argument("--v", required=True, help="modulus")
    p.add_argument("--s1", required=True, help="first base line, comma-separated")
    p.add_argument("--s2", required=True, help="second base line, comma-separated")
    p.add_argument(
        "--method",
        choices=("auto", "multiplier", "exact", "solving-set"),
        default="auto",
    )
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify", help="self-verification sweep")
    p.add_argument("--v", required=True, help="modulus N or range A..B, values >= 5")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--oracle", action="store_true", help="cross-check against the exact oracle")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="serialize one configuration")
    p.add_argument("--v", required=True, help="modulus")
    p.add_argument("--s", required=True, help="base line, comma-separated")
    p.add_argument("--format", choices=("levi", "incidence", "record"), default="record")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(value, list) for value in vars(args).values()):
        # some argparse versions read "--v=--" as an empty list
        parser.error("an option is missing its value")
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        # CapExceeded subclasses ValueError, so caps land here too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        # the reader left early (say `| head`): end quietly, as SIGPIPE would,
        # with stdout pointed at devnull so the exit-time flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    except Exception:
        # an internal error is no verdict, so it exits with a code of its
        # own; traceback loads only here, off the start-up path
        import traceback

        traceback.print_exc()
        code = 3
    raise SystemExit(code)
