"""Command-line interface.

One logical command per invocation:

  metrics    exact statistics of one permutation
  extremal   closed-form maxima and explicit maximizers
  construct  a permutation with a prescribed normalized displacement
  verify     closed forms vs. exhaustive enumeration (exit 1 on any failure)
  sample     seeded Monte Carlo displacement summary with concentration bounds
  improve    repeated local improvement, printing the trajectory

Exit codes: 0 success, 1 failed verification or failed self-check (an
`InvariantError`, reported with status "failed"), 2 usage or input error.
Exit 2 covers argparse's rejections and every `ValueError`, `OverflowError`
or `MemoryError` raised while a command runs or its report is rendered: a
malformed or unreadable input, an n outside a closed form's range, or an n
too large to build a word for or to print.  It writes one `error:` line to
stderr and nothing to stdout.
Rationals are printed as "p/q", root-products as a product/root pair, and
permutations in a form that --perm accepts back verbatim.  JSON output is
the layout `json.dumps` writes with an indent of 2, byte for byte.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .core import (
    InvariantError,
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
from .cycles import (
    CycleWithStart, best_unrolling, cycle_stat, find_improvement, perm_to_cycle,
)
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


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _decimal(k: int) -> decimal.Decimal:
    """k >= 0 as an exact Decimal, in time near-linear in its digits.

    `Decimal(k)` is exact and not bound by CPython's int->str digit limit,
    which M* passes from n = 1497, but it is quadratic in the digit count.
    Above 2048 bits the halves of k are converted apart and joined as
    `lo + hi * 2**w2`, the scheme of CPython 3.12's `_pylong.int_to_decimal`;
    libmpdec multiplies large operands in near-linear time.
    """
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w
        return powers[w]

    def inner(k: int, w: int) -> decimal.Decimal:
        if w <= 2048:
            return decimal.Decimal(k)
        w2 = w >> 1
        hi = k >> w2
        return inner(k - (hi << w2), w2) + inner(hi, w - w2) * pow2(w2)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return inner(k, k.bit_length())


def _product(pv: ProductValue) -> dict[str, Any]:
    p = pv.product
    text = str(_decimal(p.numerator)) if p.denominator == 1 else _frac(p)
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
        raise ValueError("empty permutation input")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(
                f"malformed permutation: offending token {tok!r}"
            ) from None
    return Permutation(tuple(values))


def _input_permutation(args: argparse.Namespace) -> Permutation:
    if args.perm is not None:
        return parse_permutation_text(args.perm)
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {args.input}: {exc}") from None
        return parse_permutation_text(text)
    raise ValueError("a permutation is required: pass --perm or --input")


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed {what}: {text!r}") from None


# ---------------------------------------------------------------- commands


def _cmd_metrics(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
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
    return p.n, results, True


def _crossing_example(n: int) -> Permutation:
    # top half, the middle value when n is odd, then the bottom half
    m = n // 2
    return Permutation(
        (*range(n - m + 1, n + 1), *range(m + 1, n - m + 1), *range(1, m + 1))
    )


def _cmd_extremal(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
    # Each value is computed before the results dict so that a bad or huge n
    # fails on the range check or the word, before factorial(n // 2) or m**m.
    n = args.n
    if args.stat == "disp":
        maximum = _frac(max_displacement(n))
        example = _word(_crossing_example(n))
        results: dict[str, Any] = {
            "stat": "disp",
            "max": maximum,
            "count": count_max_displacement(n),
            "example": example,
        }
    elif args.stat == "s-plus":
        example = _word(multiplicative_maximizers(n)[0])
        results = {
            "stat": "s-plus",
            "max": _frac(max_additive_stretch(n)),
            "example": example,
        }
    else:
        maximizers = [_word(p) for p in multiplicative_maximizers(n)]
        results = {
            "stat": "s-star",
            "max": _product(max_multiplicative_stretch(n)),
            "maximizers": maximizers,
        }
    return n, results, True


def _cmd_construct(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
    target = _parse_fraction(args.displacement, "displacement")
    p = construct_prescribed(args.n, target)
    achieved = normalized_displacement(p)
    results = {
        "perm": _word(p),
        "target": _frac(target),
        "achieved": _frac(achieved),
        "max_error": _frac(Fraction(2, args.n)),
        "within_bound": abs(achieved - target) <= Fraction(2, args.n),
    }
    return args.n, results, True


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
    checks = [asdict(c) for c in verify(args.max_n)]
    failures = sum(1 for c in checks if not c["ok"])
    return args.max_n, {"checks": checks, "failures": failures}, failures == 0


def _parse_epsilons(text: str) -> list[Fraction]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(_parse_fraction(tok, "epsilon"))
    if not out:
        raise ValueError("no epsilons given")
    return out


def _cmd_sample(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
    epsilons = _parse_epsilons(args.epsilons)
    stats = empirical_stats(args.n, args.trials, args.seed, epsilons)
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
    return args.n, results, True


def _disp_entry(p: Permutation) -> dict[str, Any]:
    return {"perm": _word(p), "value": _frac(displacement(p))}


def _s_star_entry(c: CycleWithStart) -> dict[str, Any]:
    return {"perm": _word(best_unrolling(c)), "value": _product(cycle_stat(c))}


def _cmd_improve(args: argparse.Namespace) -> tuple[int, dict[str, Any], bool]:
    # Both local searches share one contract: step(state) is the next state,
    # or None once no move applies.
    p = _input_permutation(args)
    if args.stat == "disp":
        state, step, entry = p, improve_noncrossing, _disp_entry
    elif p.n < 2:
        raise ValueError("s-star improvement needs n >= 2")
    else:
        state, step, entry = perm_to_cycle(p), find_improvement, _s_star_entry
    trajectory = [entry(state)]
    while (state := step(state)) is not None:
        trajectory.append(entry(state))
    results = {
        "stat": args.stat,
        "steps": len(trajectory) - 1,
        "trajectory": trajectory,
    }
    return p.n, results, True


# ---------------------------------------------------------------- rendering


def _render_text(report: dict[str, Any]) -> str:
    cmd = report["command"]
    results = report["results"]
    lines = [f"{cmd} (n={report['n']}, status={report['status']})"]
    if "error" in results:
        lines.append(f"error: {results['error']}")
    elif cmd == "verify":
        for check in results["checks"]:
            tag = "PASS" if check["ok"] else "FAIL"
            lines.append(f"{tag} {check['name']}: {check['detail']}")
        lines.append(f"failures: {results['failures']}")
    elif cmd == "improve":
        for k, step in enumerate(results["trajectory"]):
            word = _render_value(step["perm"])
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
    cmd = None if "error" in results else report["command"]
    if cmd == "sample":
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, count in results["histogram"]:
            lines.append(f"{lo!r},{hi!r},{count}")
        return "\n".join(lines)
    if cmd == "verify":
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


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    # the encoder's own text for a non-string key: '{"k": 0}' less '{' and ': 0}'
    return json.dumps({key: 0})[1:-4]


@functools.cache
def _flat_encoder(depth: int) -> Callable[[Any], str]:
    # the C encoder, with the indented layout's newline and padding as its
    # item separator
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _json(obj: Any, depth: int = 0) -> str:
    """`json.dumps(obj)` indented by 2, with every container of scalars in one C call.

    With `indent` set CPython encodes in pure Python.  JSON escapes each
    newline inside a string, so in a container of scalars the item separator
    is the only newline, and the C encoder writes the indented items.
    """
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    pad = "  " * (depth + 1)
    if any(map(isinstance, values, repeat((dict, list, tuple)))):
        if isinstance(obj, dict):
            items = [_json_key(k) + ": " + _json(v, depth + 1) for k, v in obj.items()]
        else:
            items = [_json(v, depth + 1) for v in obj]
        inner = (",\n" + pad).join(items)
    else:
        inner = _flat_encoder(depth)(obj)[1:-1]
    return f"{brackets[0]}\n{pad}{inner}\n{'  ' * depth}{brackets[1]}"


def _render(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json(report)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=("disp", "s-plus", "s-star"), default="disp")

    p = add("construct", "permutation with a prescribed normalized displacement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--displacement", required=True, help="target in [0, 1/2], decimal or p/q"
    )

    p = add("verify", "closed forms vs. exhaustive enumeration")
    p.add_argument("--max-n", type=int, default=7, dest="max_n")

    p = add("sample", "seeded Monte Carlo displacement summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--epsilons",
        default="0.02,0.1,0.3,0.5",
        help="comma-separated, decimal or p/q; write a list that starts with a"
        " minus as --epsilons=-0.5,0.3",
    )

    p = add("improve", "iterate local improvements, printing the trajectory")
    p.add_argument("--perm")
    p.add_argument("--input")
    p.add_argument("--stat", choices=("disp", "s-star"), default="disp")

    return parser


# Each handler returns (n, results, ok); run wraps them in the report envelope.
_HANDLERS = {
    "metrics": _cmd_metrics,
    "extremal": _cmd_extremal,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "improve": _cmd_improve,
}


def run(argv: list[str]) -> int:
    """Parse argv, execute one command, emit its report; returns the exit code.

    The one place where exceptions become exit codes (see the module docstring).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        try:
            n, results, ok = _HANDLERS[args.command](args)
        except InvariantError as exc:
            # a self-check failed: a failed run, reported like a failed verification
            n = getattr(args, "n", getattr(args, "max_n", None))
            results, ok = {"error": str(exc)}, False
        report = {
            "command": args.command,
            "n": n,
            "results": results,
            "status": "ok" if ok else "failed",
        }
        text = _render(report, args.format)
    except (ValueError, OverflowError, MemoryError) as exc:
        # only a bare MemoryError() comes without a message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): send the unwritten rest
        # to devnull, so the interpreter's last flush is silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
