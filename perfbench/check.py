"""Answer checks that do not trust the code under test.

`check(item, result)` returns None when the program's answer is right
and a one-line reason otherwise.  Every reason counts as a failed item.
ISO witnesses are replayed here against both line sets, so the check
holds even under `python -O`, where the program's own replay assert is
gone.
"""

from __future__ import annotations

import re

import reference as ref

_ISO_MULT = re.compile(r"ISO multiplier a=(-?\d+) b=(-?\d+)\n\Z")
_ISO_EXPLICIT = re.compile(r"ISO explicit ([\d,]+)\n\Z")
_RECORD = re.compile(
    r"v=(\d+) k=(\d+) base_line=([\d,]+) connected=(true|false) canonical=([\d,]+) orbit_size=(\d+)\Z"
)


def _points(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def check_iso(item: dict, rc: int, out: str) -> str | None:
    v, S1, S2 = item["v"], item["s1"], item["s2"]
    if out == "NON-ISO\n":
        if rc != 1:
            return f"NON-ISO with exit code {rc}"
        return None if item["expect"] == "NON-ISO" else "NON-ISO for an ISO pair"
    if m := _ISO_MULT.match(out):
        a, b = int(m[1]), int(m[2])
        perm = [(a * x + b) % v for x in range(v)]
    elif m := _ISO_EXPLICIT.match(out):
        perm = list(_points(m[1]))
    else:
        return f"unparsable iso output {out[:60]!r}"
    if rc != 0:
        return f"ISO with exit code {rc}"
    if item["expect"] != "ISO":
        return "ISO for a NON-ISO pair"
    if not ref.maps_lines(perm, S1, S2, v):
        return "witness fails replay"
    return None


def check_enumerate(item: dict, out: str) -> str | None:
    v, k = item["v"], item["k"]
    reps = []
    covered = 0
    for line in out.splitlines():
        m = _RECORD.match(line)
        if not m or int(m[1]) != v or int(m[2]) != k:
            return f"bad record {line[:60]!r}"
        S = _points(m[3])
        if not ref.has_distinct_differences(S, v) or len(S) != k:
            return f"{S} is not a base line"
        if _points(m[5]) != S or ref.canonical(S, v) != S:
            return f"{S} is not canonical"
        if (m[4] == "true") != ref.is_connected(S, v):
            return f"wrong connectivity for {S}"
        if int(m[6]) != ref.orbit_size(S, v):
            return f"wrong orbit size for {S}"
        covered += int(m[6])
        reps.append(S)
    if reps != sorted(set(reps)):
        return "representatives repeat or are out of order"
    # canonical and distinct means one per orbit; full coverage means every orbit
    if covered != v * ref.slice_size(v, k) // k:
        return f"orbits cover {covered} base lines, expected {v * ref.slice_size(v, k) // k}"
    return None


def check_paq(item: dict, result) -> str | None:
    if result is None:
        return "no PAQ witness for an equivalent pair"
    v, S1, S2 = item["v"], item["s1"], item["s2"]
    pi, sigma = result
    if sorted(pi) != list(range(v)) or sorted(sigma) != list(range(v)):
        return "PAQ witness is not a pair of permutations"
    # A1[i][j] == A2[pi[i]][sigma[j]]: sigma carries row i of A1 onto row pi[i] of A2
    for i in range(v):
        if {sigma[(s + i) % v] for s in S1} != {(s + pi[i]) % v for s in S2}:
            return f"PAQ witness fails at row {i}"
    return None


def check(item: dict, result: dict) -> str | None:
    if "error" in result:
        return f"raised {result['error']}"
    cls = item["cls"]
    if item["call"] == "gram_similar":
        return None if result["value"] is True else "Gram matrices reported dissimilar"
    if item["call"] == "paq_equivalent":
        return check_paq(item, result["value"])
    rc, out = result["rc"], result["out"]
    if cls.startswith("iso-"):
        return check_iso(item, rc, out)
    if rc != 0:
        return f"exit code {rc}"
    if cls == "count-all":
        n = ref.class_count_formula(item["v"])
        expected = f"v={item['v']} formula={n} sum={n} orbits={n} AGREE\n"
        return None if out == expected else f"expected {expected!r}, got {out[:80]!r}"
    if cls in ("count-sum", "count-formula"):
        expected = f"{ref.class_count_formula(item['v'])}\n"
        return None if out == expected else f"expected {expected!r}, got {out[:80]!r}"
    if cls.startswith("enumerate-"):
        return check_enumerate(item, out)
    if cls.startswith("verify-"):
        span = range(item["lo"], item["hi"] + 1)
        expected = "".join(f"v={v} ok\n" for v in span) + f"PASS {len(span)} values checked\n"
        return None if out == expected else f"verify output {out[:80]!r}"
    return f"no check for class {cls}"
