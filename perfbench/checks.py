"""Correctness checks for CLI outputs that do not trust the code being timed.

Every check recomputes what it can from the op's input with its own code
(numpy or plain integers) and compares; none of them imports `permstats`.
`check` returns the problems it found, none when the output is correct.

`TAMPERS` holds one deliberate corruption per op kind.  The benchmark feeds
each check one tampered copy of a real output and requires a problem back, so
a check that cannot fail cannot read as a pass.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .workloads import Op


def _travel(w: np.ndarray) -> int:
    return int(np.abs(w - np.arange(1, len(w) + 1)).sum())


def _gaps(w: np.ndarray) -> np.ndarray:
    return np.abs(np.diff(w))


def _gap_product(w: np.ndarray) -> int:
    return math.prod(int(g) for g in _gaps(w))


def _is_perm(word: Any, n: int) -> bool:
    return (
        isinstance(word, list)
        and len(word) == n
        and all(isinstance(v, int) for v in word)
        and sorted(word) == list(range(1, n + 1))
    )


def _max_travel(n: int) -> int:
    # n * max displacement: n^2/2 for even n, (n^2 - 1)/2 for odd n.
    return n * n // 2


def _spread(w: np.ndarray) -> int:
    n = len(w)
    return min(int((d + np.abs(w[d:] - w[:-d])).min()) for d in range(1, n))


def _distinct_difference_pairs(w: np.ndarray) -> int:
    # Pairs (j - i, w_j - w_i) over i < j: one bitmap row per index distance.
    n = len(w)
    seen = np.zeros((n, 2 * n - 1), dtype=bool)
    for d in range(1, n):
        seen[d, w[d:] - w[:-d] + (n - 1)] = True
    return int(seen.sum())


def _check_verify(op: Op, r: dict[str, Any]) -> list[str]:
    checks = r["checks"]
    out = []
    if not checks:
        out.append("no checks reported")
    out += [f"check {c['name']} not ok" for c in checks if c["ok"] is not True]
    if r["failures"] != 0:
        out.append(f"failures = {r['failures']}")
    return out


def _check_sample(op: Op, r: dict[str, Any]) -> list[str]:
    n, trials = op.n, op.params["trials"]
    out = []
    if r["trials"] != trials or r["seed"] != op.params["seed"]:
        out.append("trials or seed differ from the request")
    if sum(row[2] for row in r["histogram"]) != trials:
        out.append("histogram counts do not sum to trials")
    eps = sorted(r["fractions"], key=Fraction)
    fracs = [Fraction(r["fractions"][e]) for e in eps]
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        out.append("fractions not monotone in eps")
    for e, f in zip(eps, fracs):
        bound = max(0.0, 1.0 - 4.0 * math.exp(-float(Fraction(e)) ** 2 * n / 64))
        if abs(r["bounds"][e] - bound) > 1e-12:
            out.append(f"bound at eps={e} is {r['bounds'][e]}, expected {bound}")
        if f < r["bounds"][e]:
            out.append(f"fraction at eps={e} below its bound")
    # Spearman's footrule: E = (n^2-1)/3, Var = (n+1)(2n^2+7)/45 (Diaconis-Graham).
    mean = (n * n - 1) / 3
    sd = math.sqrt((n + 1) * (2 * n * n + 7) / (45 * trials))
    if abs(r["mean"] * n - mean) > 6 * sd:
        out.append(f"mean footrule {r['mean'] * n} more than 6 sd from {mean}")
    return out


def _trajectory(op: Op, r: dict[str, Any]) -> tuple[list[str], list[np.ndarray]]:
    steps = r["trajectory"]
    out = []
    if r["steps"] != len(steps) - 1:
        out.append("steps does not match trajectory length")
    if not all(_is_perm(s["perm"], op.n) for s in steps):
        return out + ["a step is not a permutation of 1..n"], []
    return out, [np.array(s["perm"], dtype=np.int64) for s in steps]


def _check_improve_s_star(op: Op, r: dict[str, Any]) -> list[str]:
    out, words = _trajectory(op, r)
    if not words:
        return out
    first = list(words[0])
    start = first.index(op.params["word"][0])
    if tuple(first[start:] + first[:start]) != op.params["word"]:
        out.append("first step is not a rotation of the input word")
    products = []
    for s, w in zip(r["trajectory"], words):
        if s["value"]["root"] != op.n - 1:
            out.append("root is not n - 1")
        products.append(_gap_product(w))
        if int(s["value"]["product"]) != products[-1]:
            out.append("reported product differs from the gap product")
    if any(b <= a for a, b in zip(products, products[1:])):
        out.append("values do not strictly increase")
    return out


def _check_improve_disp(op: Op, r: dict[str, Any]) -> list[str]:
    out, words = _trajectory(op, r)
    if not words:
        return out
    n = op.n
    if tuple(words[0]) != op.params["word"]:
        out.append("first step is not the input word")
    travel = [_travel(w) for w in words]
    if any(Fraction(s["value"]) != Fraction(t, n) for s, t in zip(r["trajectory"], travel)):
        out.append("reported displacement differs from recomputed")
    if any(b <= a for a, b in zip(travel, travel[1:])):
        out.append("values do not strictly increase")
    if any(int((a != b).sum()) != 2 for a, b in zip(words, words[1:])):
        out.append("a step is not a single transposition")
    if travel[-1] != _max_travel(n):
        out.append("last step does not reach maximal displacement")
    return out


def _check_metrics(op: Op, r: dict[str, Any]) -> list[str]:
    n = op.n
    if r["perm"] != list(op.params["word"]):
        return ["perm differs from the input word"]
    w = np.array(r["perm"], dtype=np.int64)
    idx = np.arange(1, n + 1)
    out = []
    t = _travel(w)
    if Fraction(r["displacement"]) != Fraction(t, n):
        out.append("displacement")
    if Fraction(r["normalized_displacement"]) != Fraction(t, n * n):
        out.append("normalized_displacement")
    if r["min_delay"] != int(np.abs(w - idx).min()):
        out.append("min_delay")
    lo, hi = np.minimum(idx, w), np.maximum(idx, w)
    crossing = bool(lo.max() <= hi.min())  # 1-D Helly: pairwise meeting intervals
    if r["crossing"] is not crossing:
        out.append("crossing")
    if not crossing:
        i, j = r.get("witness", (0, 0))
        if not (1 <= i < j <= n and hi[i - 1] < lo[j - 1]):
            out.append("witness is not a disjoint pair")
    if Fraction(r["s_plus"]) != Fraction(int(_gaps(w).sum()), n - 1):
        out.append("s_plus")
    if r["s_star"]["root"] != n - 1 or int(r["s_star"]["product"]) != _gap_product(w):
        out.append("s_star")
    if r["spread"] != _spread(w):
        out.append("spread")
    if Fraction(r["dispersion"]) != Fraction(_distinct_difference_pairs(w), n * (n - 1) // 2):
        out.append("dispersion")
    return [f"{name} differs from recomputed" for name in out]


def _check_construct(op: Op, r: dict[str, Any]) -> list[str]:
    n = op.n
    if not _is_perm(r["perm"], n):
        return ["perm is not a permutation of 1..n"]
    target = Fraction(op.params["target"])
    achieved = Fraction(_travel(np.array(r["perm"], dtype=np.int64)), n * n)
    out = []
    if Fraction(r["target"]) != target or Fraction(r["achieved"]) != achieved:
        out.append("target or achieved differs from recomputed")
    if r["within_bound"] is not True or abs(achieved - target) > Fraction(2, n):
        out.append("not within 2/n of the target")
    return out


def _check_extremal_s_star(op: Op, r: dict[str, Any]) -> list[str]:
    n, m = op.n, op.n // 2
    want = m**m * (m + 1) ** (m - 1) if n % 2 == 0 else m**m * (m + 1) * (m + 2) ** (m - 1)
    out = []
    if r["max"]["root"] != n - 1 or int(r["max"]["product"]) != want:
        out.append("max differs from the closed form")
    words = r["maximizers"]
    if len(words) != (2 if n % 2 == 0 else 4) or words != sorted(words):
        out.append("wrong number or order of maximizers")
    for word in words:
        if not _is_perm(word, n) or _gap_product(np.array(word, dtype=np.int64)) != want:
            out.append("a maximizer does not attain the max")
    return out


def _check_extremal_s_plus(op: Op, r: dict[str, Any]) -> list[str]:
    n, m = op.n, op.n // 2
    want = Fraction(2 * m * m - 1, 2 * m - 1) if n % 2 == 0 else Fraction(2 * m * m + 2 * m - 1, 2 * m)
    out = []
    if Fraction(r["max"]) != want:
        out.append("max differs from the closed form")
    ex = r["example"]
    if not _is_perm(ex, n) or Fraction(int(_gaps(np.array(ex)).sum()), n - 1) != want:
        out.append("example does not attain the max")
    return out


def _check_extremal_disp(op: Op, r: dict[str, Any]) -> list[str]:
    n, m = op.n, op.n // 2
    out = []
    if Fraction(r["max"]) != Fraction(_max_travel(n), n):
        out.append("max differs from the closed form")
    f = math.factorial(m)
    if r["count"] != (f * f if n % 2 == 0 else n * f * f):
        out.append("count differs from the closed form")
    ex = r["example"]
    if not _is_perm(ex, n) or _travel(np.array(ex, dtype=np.int64)) != _max_travel(n):
        out.append("example does not attain the max")
    return out


_CHECKS: dict[str, tuple[str, Callable[[Op, dict[str, Any]], list[str]]]] = {
    "verify": ("verify", _check_verify),
    "sample": ("sample", _check_sample),
    "improve-s-star": ("improve", _check_improve_s_star),
    "improve-disp": ("improve", _check_improve_disp),
    "metrics": ("metrics", _check_metrics),
    "construct": ("construct", _check_construct),
    "extremal-s-star": ("extremal", _check_extremal_s_star),
    "extremal-s-plus": ("extremal", _check_extremal_s_plus),
    "extremal-disp": ("extremal", _check_extremal_disp),
}


def check_report(op: Op, report: dict[str, Any]) -> list[str]:
    """Problems with a parsed report for `op`; empty when it is correct."""
    command, fn = _CHECKS[op.kind]
    if (report.get("command"), report.get("n"), report.get("status")) != (command, op.n, "ok"):
        return ["command, n or status differs from the request"]
    try:
        return fn(op, report["results"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed results: {type(exc).__name__}: {exc}"]


def check(op: Op, code: int, stdout: str) -> tuple[list[str], dict[str, Any] | None]:
    """Problems with one op's exit code and stdout, and the parsed report."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], None
    return check_report(op, report), report


def _tamper_verify(r: dict[str, Any]) -> None:
    r["checks"][0]["ok"] = False


def _tamper_sample(r: dict[str, Any]) -> None:
    r["histogram"][0][2] += 1


def _tamper_trajectory(r: dict[str, Any]) -> None:
    # A repeated last step: consistent length, but not strictly increasing.
    r["trajectory"].append(copy.deepcopy(r["trajectory"][-1]))
    r["steps"] += 1


def _tamper_metrics(r: dict[str, Any]) -> None:
    r["spread"] += 1


def _tamper_construct(r: dict[str, Any]) -> None:
    r["perm"][0], r["perm"][-1] = r["perm"][-1], r["perm"][0]


def _tamper_extremal_s_star(r: dict[str, Any]) -> None:
    w = r["maximizers"][0]
    w[0], w[1] = w[1], w[0]


def _tamper_extremal_s_plus(r: dict[str, Any]) -> None:
    w = r["example"]
    w[0], w[1] = w[1], w[0]


def _tamper_extremal_disp(r: dict[str, Any]) -> None:
    r["count"] += 1


TAMPERS: dict[str, Callable[[dict[str, Any]], None]] = {
    "verify": _tamper_verify,
    "sample": _tamper_sample,
    "improve-s-star": _tamper_trajectory,
    "improve-disp": _tamper_trajectory,
    "metrics": _tamper_metrics,
    "construct": _tamper_construct,
    "extremal-s-star": _tamper_extremal_s_star,
    "extremal-s-plus": _tamper_extremal_s_plus,
    "extremal-disp": _tamper_extremal_disp,
}


def tamper_flagged(op: Op, report: dict[str, Any]) -> bool:
    """Whether the check of `op` flags a tampered copy of a correct report."""
    bad = copy.deepcopy(report)
    TAMPERS[op.kind](bad["results"])
    return bool(check_report(op, bad))
