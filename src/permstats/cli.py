"""Command-line interface.

One logical command per invocation:

  metrics    exact statistics of one permutation
  extremal   closed-form maxima and explicit maximizers
  construct  a permutation with a prescribed normalized displacement
  verify     closed forms vs. exhaustive enumeration (exit 1 on any failure)
  sample     seeded Monte Carlo displacement summary with concentration bounds
  improve    repeated local improvement, printing the trajectory

Exit codes: 0 success, 1 failed verification, 2 usage or input error.
Rationals are printed as "p/q", root-products as a product/root pair, and
permutations in a form that --perm accepts back verbatim.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Any

from .core import (
    Permutation,
    dispersion,
    displacement,
    min_delay,
    normalized_displacement,
    spread,
)
from .extremal import (
    construct_prescribed,
    count_max_displacement,
    improve_noncrossing,
    is_crossing,
    max_displacement,
)
from .cycles import best_unrolling, cycle_stat, find_improvement, perm_to_cycle
from .oracle import verify
from .sampling import ConcentrationBound, concentration_report, empirical_stats
from .stretch import (
    ProductValue,
    consecutive_pairs,
    max_additive_stretch,
    max_multiplicative_stretch,
    multiplicative_maximizers,
    stretch_additive,
    stretch_multiplicative,
)

__all__ = ["run", "main"]


class UsageError(Exception):
    """Bad flags or malformed input; maps to exit code 2."""


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _product(pv: ProductValue) -> dict[str, Any]:
    p = pv.product
    text = str(p.numerator) if p.denominator == 1 else _frac(p)
    return {"product": text, "root": pv.root}


def _word(p: Permutation) -> list[int]:
    return list(p.image)


def parse_permutation_text(text: str) -> Permutation:
    """Whitespace- or comma-separated integers, optional leading n= header.

    Bracketed renderings like "[2, 4, 1, 3]" are accepted too, so any
    permutation this tool prints parses back.
    """
    for ch in ",[]()":
        text = text.replace(ch, " ")
    tokens = text.split()
    if tokens and tokens[0].lower().startswith("n=") and tokens[0][2:].isdigit():
        tokens = tokens[1:]
    if not tokens:
        raise UsageError("empty permutation input")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise UsageError(
                f"malformed permutation: offending token {tok!r}"
            ) from None
    try:
        return Permutation(tuple(values))
    except ValueError as exc:
        raise UsageError(f"invalid permutation: {exc}") from None


def _input_permutation(args: argparse.Namespace) -> Permutation:
    if args.perm is not None:
        return parse_permutation_text(args.perm)
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return parse_permutation_text(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from None
    raise UsageError("a permutation is required: pass --perm or --input")


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed {what}: {text!r}") from None


# ---------------------------------------------------------------- commands


def _cmd_metrics(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    p = _input_permutation(args)
    crossing, witness = is_crossing(p)
    results: dict[str, Any] = {
        "perm": _word(p),
        "displacement": _frac(displacement(p)),
        "normalized_displacement": _frac(normalized_displacement(p)),
        "min_delay": min_delay(p),
        "crossing": crossing,
    }
    if witness is not None:
        results["witness"] = [witness.i, witness.j]
    if p.n >= 2:
        pairs = consecutive_pairs(p.n)
        results["s_plus"] = _frac(stretch_additive(pairs, p))
        results["s_star"] = _product(stretch_multiplicative(pairs, p))
        results["spread"] = spread(p)
        results["dispersion"] = _frac(dispersion(p))
    return 0, {"command": "metrics", "n": p.n, "results": results, "status": "ok"}


def _crossing_example(n: int) -> Permutation:
    if n % 2 == 0:
        return construct_prescribed(n, Fraction(1, 2))
    m = n // 2
    img = list(range(1, n + 1))
    for i in range(1, m + 1):
        img[i - 1] = i + m + 1
        img[i + m] = i
    return Permutation(tuple(img))


def _cmd_extremal(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    n = args.n
    if n is None:
        raise UsageError("extremal requires --n")
    if args.stat == "disp":
        if n < 1:
            raise UsageError(f"--n must be positive, got {n}")
        example = _crossing_example(n)
        results: dict[str, Any] = {
            "stat": "disp",
            "max": _frac(max_displacement(n)),
            "count": count_max_displacement(n),
            "example": _word(example),
        }
    elif args.stat == "s-plus":
        if n < 2:
            raise UsageError("stretch statistics need --n at least 2")
        results = {
            "stat": "s-plus",
            "max": _frac(max_additive_stretch(n)),
            "example": _word(multiplicative_maximizers(n)[0]),
        }
    else:
        if n < 2:
            raise UsageError("stretch statistics need --n at least 2")
        results = {
            "stat": "s-star",
            "max": _product(max_multiplicative_stretch(n)),
            "maximizers": [_word(p) for p in multiplicative_maximizers(n)],
        }
    return 0, {"command": "extremal", "n": n, "results": results, "status": "ok"}


def _cmd_construct(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if args.n is None:
        raise UsageError("construct requires --n")
    if args.displacement is None:
        raise UsageError("construct requires --displacement")
    target = _parse_fraction(args.displacement, "displacement")
    try:
        p = construct_prescribed(args.n, target)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    achieved = normalized_displacement(p)
    results = {
        "perm": _word(p),
        "target": _frac(target),
        "achieved": _frac(achieved),
        "max_error": _frac(Fraction(2, args.n)),
        "within_bound": abs(achieved - target) <= Fraction(2, args.n),
    }
    return 0, {"command": "construct", "n": args.n, "results": results, "status": "ok"}


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    try:
        checks = [asdict(c) for c in verify(args.max_n)]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    failures = sum(1 for c in checks if not c["ok"])
    report = {
        "command": "verify",
        "n": args.max_n,
        "results": {"checks": checks, "failures": failures},
        "status": "ok" if failures == 0 else "failed",
    }
    return (0 if failures == 0 else 1), report


def _parse_epsilons(text: str) -> list[Fraction]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(_parse_fraction(tok, "epsilon"))
    if not out:
        raise UsageError("no epsilons given")
    return out


def _cmd_sample(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if args.n is None:
        raise UsageError("sample requires --n")
    epsilons = _parse_epsilons(args.epsilons)
    try:
        stats = empirical_stats(args.n, args.trials, args.seed, epsilons)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = concentration_report(stats, ConcentrationBound())
    results = {
        "trials": stats.trials,
        "seed": stats.seed,
        "mean": stats.mean,
        "median": stats.median,
        "fractions": {_frac(eps): _frac(frac) for eps, frac, _ in rows},
        "bounds": {_frac(eps): bound for eps, _, bound in rows},
        "histogram": [[lo, hi, count] for lo, hi, count in stats.histogram],
    }
    return 0, {"command": "sample", "n": args.n, "results": results, "status": "ok"}


def _cmd_improve(args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    p = _input_permutation(args)
    stat = args.stat
    trajectory: list[dict[str, Any]]
    if stat == "disp":
        trajectory = [{"perm": _word(p), "value": _frac(displacement(p))}]
        while not is_crossing(p)[0]:
            p = improve_noncrossing(p)
            trajectory.append({"perm": _word(p), "value": _frac(displacement(p))})
    else:
        if p.n < 2:
            raise UsageError("s-star improvement needs n >= 2")
        cyc = perm_to_cycle(p)
        trajectory = [
            {"perm": _word(best_unrolling(cyc)), "value": _product(cycle_stat(cyc))}
        ]
        while (better := find_improvement(cyc)) is not None:
            cyc = better
            trajectory.append(
                {"perm": _word(best_unrolling(cyc)), "value": _product(cycle_stat(cyc))}
            )
    results = {
        "stat": stat,
        "steps": len(trajectory) - 1,
        "trajectory": trajectory,
    }
    return 0, {"command": "improve", "n": p.n, "results": results, "status": "ok"}


# ---------------------------------------------------------------- rendering


def _render_text(report: dict[str, Any]) -> str:
    cmd = report["command"]
    results = report["results"]
    lines = [f"{cmd} (n={report['n']}, status={report['status']})"]
    if cmd == "verify":
        for check in results["checks"]:
            tag = "PASS" if check["ok"] else "FAIL"
            lines.append(f"{tag} {check['name']}: {check['detail']}")
        lines.append(f"failures: {results['failures']}")
    elif cmd == "improve":
        for k, step in enumerate(results["trajectory"]):
            word = " ".join(str(v) for v in step["perm"])
            lines.append(f"step {k}: {word}  value {_render_value(step['value'])}")
        lines.append(f"steps: {results['steps']}")
    elif cmd == "sample":
        for key in ("trials", "seed", "mean", "median"):
            lines.append(f"{key}: {results[key]}")
        for eps in results["fractions"]:
            lines.append(
                f"eps {eps}: fraction {results['fractions'][eps]},"
                f" bound {results['bounds'][eps]:.6g}"
            )
        hist = results["histogram"]
        lines.append(
            f"histogram: {len(hist)} bins over [{hist[0][0]:.6g}, {hist[-1][1]:.6g}]"
        )
    else:
        for key, value in results.items():
            lines.append(f"{key}: {_render_value(value)}")
    return "\n".join(lines)


def _render_value(value: Any) -> str:
    if isinstance(value, dict) and set(value) == {"product", "root"}:
        return f"{value['product']}^(1/{value['root']})"
    if isinstance(value, list) and value and all(isinstance(v, int) for v in value):
        return " ".join(str(v) for v in value)
    if isinstance(value, list):
        return "; ".join(_render_value(v) for v in value)
    return str(value)


def _render_csv(report: dict[str, Any]) -> str:
    results = report["results"]
    if report["command"] == "sample":
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, count in results["histogram"]:
            lines.append(f"{lo!r},{hi!r},{count}")
        return "\n".join(lines)
    if report["command"] == "verify":
        lines = ["name,ok,detail"]
        for check in results["checks"]:
            detail = str(check["detail"]).replace(",", ";")
            lines.append(f"{check['name']},{str(check['ok']).lower()},{detail}")
        return "\n".join(lines)
    lines = ["key,value"]
    for key, value in results.items():
        text = _render_value(value).replace(",", ";")
        lines.append(f"{key},{text}")
    return "\n".join(lines)


def _emit(report: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        print(_render_csv(report))
    else:
        print(_render_text(report))


# ---------------------------------------------------------------- entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permstats",
        description="Exact displacement and stretch statistics of permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        return p

    p = add("metrics", "exact statistics of one permutation")
    p.add_argument("--perm", help="one-line word, e.g. '2 4 1 3'")
    p.add_argument("--input", help="file containing the one-line word")

    p = add("extremal", "closed-form maxima and maximizers")
    p.add_argument("--n", type=int)
    p.add_argument("--stat", choices=("disp", "s-plus", "s-star"), default="disp")

    p = add("construct", "permutation with a prescribed normalized displacement")
    p.add_argument("--n", type=int)
    p.add_argument("--displacement", help="target in [0, 1/2], decimal or p/q")

    p = add("verify", "closed forms vs. exhaustive enumeration")
    p.add_argument("--max-n", type=int, default=7, dest="max_n")

    p = add("sample", "seeded Monte Carlo displacement summary")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilons", default="0.02,0.1,0.3,0.5")

    p = add("improve", "iterate local improvements, printing the trajectory")
    p.add_argument("--perm")
    p.add_argument("--input")
    p.add_argument("--stat", choices=("disp", "s-star"), default="disp")

    return parser


_HANDLERS = {
    "metrics": _cmd_metrics,
    "extremal": _cmd_extremal,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "improve": _cmd_improve,
}


def run(argv: list[str]) -> int:
    """Parse argv, execute one command, emit its report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        code, report = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
