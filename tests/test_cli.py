"""End-to-end command-line behavior: formats, exit codes, round trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permstats
from permstats import cli, extremal, oracle
from permstats.cli import _crossing_example, parse_permutation_text, run
from permstats.core import Permutation, displacement
from permstats.sampling import ConcentrationBound, displacement_sums
from permstats.stretch import max_multiplicative_stretch


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def reference_crossing_example(n):
    # Independent construction: the balanced prescribed word for even n, and
    # for odd n the top half, the middle value, then the bottom half, placed
    # one position pair at a time.
    if n % 2 == 0:
        return extremal.construct_prescribed(n, Fraction(1, 2))
    m = n // 2
    img = list(range(1, n + 1))
    for i in range(1, m + 1):
        img[i - 1] = i + m + 1
        img[i + m] = i
    return Permutation(tuple(img))


class TestParsePermutationText:
    def test_plain_and_csv_and_brackets(self):
        want = Permutation((2, 4, 1, 3))
        for text in ("2 4 1 3", "2,4,1,3", "[2, 4, 1, 3]", "(2, 4, 1, 3)"):
            assert parse_permutation_text(text) == want

    def test_header_token(self):
        assert parse_permutation_text("n=4 2 4 1 3") == Permutation((2, 4, 1, 3))

    def test_offending_token_named(self):
        with pytest.raises(Exception, match="x7"):
            parse_permutation_text("1 2 x7")

    def test_empty(self):
        with pytest.raises(Exception, match="empty"):
            parse_permutation_text("  ,, ")


class TestMetrics:
    def test_json_fields(self, capsys):
        code, report = invoke_json(capsys, "metrics", "--perm", "2 4 1 3")
        assert code == 0
        assert report["command"] == "metrics"
        assert report["n"] == 4
        assert report["status"] == "ok"
        r = report["results"]
        assert r["perm"] == [2, 4, 1, 3]
        assert r["displacement"] == "3/2"
        assert r["normalized_displacement"] == "3/8"
        assert r["min_delay"] == 1
        assert r["crossing"] is False
        assert r["witness"] == [1, 4]
        assert r["s_plus"] == "7/3"
        assert r["s_star"] == {"product": "12", "root": 3}
        assert r["spread"] == 3
        assert r["dispersion"] == "2/3"

    def test_crossing_has_no_witness(self, capsys):
        code, report = invoke_json(capsys, "metrics", "--perm", "3 4 1 2")
        assert code == 0
        assert report["results"]["crossing"] is True
        assert "witness" not in report["results"]

    def test_output_parses_back(self, capsys):
        code, report = invoke_json(capsys, "metrics", "--perm", "3 1 4 2")
        rendered = str(report["results"]["perm"])  # "[3, 1, 4, 2]"
        assert parse_permutation_text(rendered) == Permutation((3, 1, 4, 2))

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("n=5 3 5 1 4 2\n")
        code, report = invoke_json(capsys, "metrics", "--input", str(path))
        assert code == 0 and report["results"]["perm"] == [3, 5, 1, 4, 2]

    def test_text_format(self, capsys):
        code, out, err = invoke(capsys, "metrics", "--perm", "2 4 1 3")
        assert code == 0
        assert "displacement: 3/2" in out
        assert "s_star: 12^(1/3)" in out

    def test_csv_format(self, capsys):
        code, out, err = invoke(
            capsys, "metrics", "--perm", "2 4 1 3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "displacement,3/2" in out

    def test_missing_perm(self, capsys):
        code, out, err = invoke(capsys, "metrics")
        assert code == 2 and "perm" in err

    def test_malformed_perm(self, capsys):
        code, out, err = invoke(capsys, "metrics", "--perm", "1 2 zz")
        assert code == 2 and "zz" in err

    def test_not_a_permutation(self, capsys):
        code, out, err = invoke(capsys, "metrics", "--perm", "1 1 2")
        assert code == 2

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "metrics", "--input", "/no/such/file")
        assert code == 2


class TestExtremal:
    def test_disp(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "6", "--stat", "disp")
        assert code == 0
        r = report["results"]
        assert r["max"] == "3/1"
        assert r["count"] == 36
        example = Permutation(tuple(r["example"]))
        from permstats.extremal import is_crossing

        assert is_crossing(example)[0]

    def test_disp_odd(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "7", "--stat", "disp")
        assert report["results"]["max"] == "24/7"
        assert report["results"]["count"] == 252
        example = Permutation(tuple(report["results"]["example"]))
        from permstats.extremal import is_crossing

        assert is_crossing(example)[0]

    def test_s_plus(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "5", "--stat", "s-plus")
        assert code == 0
        r = report["results"]
        assert r["max"] == "11/4"
        from permstats.stretch import consecutive_pairs, stretch_additive

        example = Permutation(tuple(r["example"]))
        assert stretch_additive(consecutive_pairs(5), example) == Fraction(11, 4)

    def test_s_star(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "4", "--stat", "s-star")
        r = report["results"]
        assert r["max"] == {"product": "12", "root": 3}
        assert r["maximizers"] == [[2, 4, 1, 3], [3, 1, 4, 2]]

    def test_s_star_odd(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "5", "--stat", "s-star")
        r = report["results"]
        assert r["max"] == {"product": "48", "root": 4}
        assert len(r["maximizers"]) == 4

    def test_requires_n(self, capsys):
        code, out, err = invoke(capsys, "extremal")
        assert code == 2

    def test_stretch_needs_two(self, capsys):
        code, out, err = invoke(capsys, "extremal", "--n", "1", "--stat", "s-plus")
        assert code == 2

    def test_crossing_example_equals_reference(self):
        for n in [*range(1, 601), 1400, 1401, 2000, 2001]:
            assert _crossing_example(n) == reference_crossing_example(n), n

    @pytest.mark.parametrize("n", [1400, 1401])
    def test_crossing_example_attains_maximum(self, n):
        example = _crossing_example(n)
        assert extremal.is_crossing(example)[0]
        assert displacement(example) == extremal.max_displacement(n)


class TestConstruct:
    def test_basic(self, capsys):
        code, report = invoke_json(
            capsys, "construct", "--n", "1000", "--displacement", "1/4"
        )
        assert code == 0
        r = report["results"]
        assert r["target"] == "1/4"
        assert r["within_bound"] is True
        assert r["max_error"] == "1/500"  # Fraction(2, 1000) in lowest terms
        p = Permutation(tuple(r["perm"]))
        num, den = r["achieved"].split("/")
        from permstats.core import normalized_displacement

        assert normalized_displacement(p) == Fraction(int(num), int(den))

    def test_decimal_target(self, capsys):
        code, report = invoke_json(
            capsys, "construct", "--n", "100", "--displacement", "0.3"
        )
        assert code == 0 and report["results"]["within_bound"] is True

    def test_out_of_range(self, capsys):
        code, out, err = invoke(
            capsys, "construct", "--n", "10", "--displacement", "0.7"
        )
        assert code == 2

    def test_malformed_target(self, capsys):
        code, out, err = invoke(
            capsys, "construct", "--n", "10", "--displacement", "a/b"
        )
        assert code == 2 and "malformed" in err


VERIFY_NAMES = [
    "average-displacement",
    "extreme-displacement",
    "additive-stretch",
    "multiplicative-stretch",
    "cycle-correspondence",
    "balanced-partition",
    "noncrossing-improvement",
]


class TestVerify:
    def test_json_all_pass(self, capsys):
        code, report = invoke_json(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert report["status"] == "ok"
        checks = report["results"]["checks"]
        assert [c["name"] for c in checks] == VERIFY_NAMES
        assert all(c["ok"] for c in checks)
        assert report["results"]["failures"] == 0

    def test_text(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-n", "4")
        assert code == 0
        for name in VERIFY_NAMES:
            assert f"PASS {name}:" in out
        assert "failures: 0" in out

    def test_csv(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,ok,detail"
        assert len(lines) == 1 + len(VERIFY_NAMES)

    def test_rejects_over_cap(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-n", "12")
        assert code == 2 and "11" in err

    def test_rejects_nonpositive(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-n", "0")
        assert code == 2

    def test_same_output_under_optimize(self):
        argv = ["-m", "permstats.cli", "verify", "--max-n", "6", "--format", "json"]
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            for flags in ([], ["-O"])
        )
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout


class TestVerifyFailures:
    # Faults injected into the names the verifier looks up.  The expected
    # details are those the verifier printed for the same faults when it
    # still lived in cli.py.

    def assert_only_failure(self, capsys, name, detail):
        code, report = invoke_json(capsys, "verify", "--max-n", "6")
        assert code == 1 and report["status"] == "failed"
        assert report["results"]["failures"] == 1
        failed = [c for c in report["results"]["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "detail": detail}]

    def test_count_off_by_one(self, capsys, monkeypatch):
        count = oracle.count_max_displacement
        monkeypatch.setattr(oracle, "count_max_displacement", lambda n: count(n) + (n == 5))
        self.assert_only_failure(capsys, "extreme-displacement", "n=5: count 20 != 21")

    def test_additive_maximizer_wrong_on_one_word(self, capsys, monkeypatch):
        test, word = oracle.is_additive_maximizer, Permutation((2, 4, 1, 3))
        monkeypatch.setattr(oracle, "is_additive_maximizer", lambda p: test(p) != (p == word))
        self.assert_only_failure(
            capsys,
            "additive-stretch",
            "n=4: maximizer test disagrees with argmax at (2, 4, 1, 3)",
        )


    def test_improver_error_fails_its_check(self, capsys, monkeypatch):
        # is_crossing wrongly calls crossing words starting with 1 non-crossing,
        # while improve_noncrossing, which runs the real test, returns None
        crossing = oracle.is_crossing

        def faulty(p):
            found, witness = crossing(p)
            return found and p.image[0] != 1, witness

        monkeypatch.setattr(oracle, "is_crossing", faulty)
        code, report = invoke_json(capsys, "verify", "--max-n", "6")
        assert code == 1 and report["status"] == "failed"
        checks = {c["name"]: c for c in report["results"]["checks"]}
        assert checks["noncrossing-improvement"] == {
            "name": "noncrossing-improvement",
            "ok": False,
            "detail": "n=1: improver disagrees with crossing test at (1,)",
        }

    def test_improver_moves_a_crossing_word(self, capsys, monkeypatch):
        improve = oracle.improve_noncrossing
        monkeypatch.setattr(oracle, "improve_noncrossing", lambda p: improve(p) or p)
        self.assert_only_failure(
            capsys,
            "noncrossing-improvement",
            "n=1: improver disagrees with crossing test at (1,)",
        )


SAMPLE_ARGV = ["sample", "--n", "20", "--trials", "50", "--seed", "3"]


class TestSample:
    def test_json(self, capsys):
        code, report = invoke_json(
            capsys,
            "sample",
            "--n", "50",
            "--trials", "300",
            "--seed", "5",
            "--epsilons", "0.1,0.5",
        )
        assert code == 0
        r = report["results"]
        assert r["trials"] == 300 and r["seed"] == 5
        assert set(r["fractions"]) == {"1/10", "1/2"}
        assert set(r["bounds"]) == {"1/10", "1/2"}
        assert len(r["histogram"]) == 50
        assert sum(row[2] for row in r["histogram"]) == 300
        sums = displacement_sums(50, 300, 5)
        assert r["mean"] == float(Fraction(int(sums.sum()), 300 * 50))

    def test_deterministic(self, capsys):
        a = invoke(capsys, "sample", "--n", "30", "--trials", "100", "--seed", "7")
        b = invoke(capsys, "sample", "--n", "30", "--trials", "100", "--seed", "7")
        assert a == b

    def test_csv_histogram(self, capsys):
        code, out, err = invoke(
            capsys,
            "sample",
            "--n", "20",
            "--trials", "120",
            "--seed", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 51
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 120

    def test_text(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "20", "--trials", "80", "--seed", "3"
        )
        assert code == 0
        assert "mean: " in out and "histogram: 50 bins" in out

    @pytest.mark.parametrize("fmt, first, line", [
        ("json", "{", '"-1/2": 0.0'),
        ("text", "sample (n=1000, status=ok)", "eps -1/2: fraction 0/1, bound 0"),
        ("csv", "bin_lo,bin_hi,count", None),
    ], ids=["json", "text", "csv"])
    def test_negative_epsilon(self, capsys, fmt, first, line):
        code, out, err = invoke(capsys, "sample", "--n", "1000", "--trials", "100",
                                "--epsilons=-0.5", "--format", fmt)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == first
        assert line is None or line in out

    def test_leading_minus_list_needs_equals_form(self, capsys):
        code, report = invoke_json(capsys, "sample", "--n", "1000", "--trials", "100",
                                   "--epsilons=-0.5,0.3")
        assert code == 0
        assert report["results"]["fractions"]["-1/2"] == "0/1"
        assert report["results"]["bounds"]["-1/2"] == 0
        # argparse reads a value that starts with "-" and is not a plain
        # number as a missing value
        code, out, err = invoke(capsys, "sample", "--n", "10", "--trials", "5",
                                "--epsilons", "-0.5,0.3")
        assert code == 2 and "expected one argument" in err

    @pytest.mark.parametrize("eps", ["1e200", "1e400"])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_huge_epsilon(self, capsys, eps, fmt):
        code, out, err = invoke(capsys, "sample", "--n", "10", "--trials", "5",
                                "--epsilons", eps, "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            assert json.loads(out)["results"]["bounds"] == {f"{10 ** int(eps[2:])}/1": 1.0}

    def test_requires_n(self, capsys):
        code, out, err = invoke(capsys, "sample")
        assert code == 2

    def test_bad_seed(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "10", "--trials", "10", "--seed", "-1"
        )
        assert code == 2

    def test_no_epsilons(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "10", "--trials", "10", "--epsilons", " , "
        )
        assert code == 2

    def test_out_of_memory_is_usage_error(self):
        # The address-space limit makes the allocation fail whatever the
        # machine's overcommit policy, so nothing large is ever touched.
        resource = pytest.importorskip("resource")
        limit = 2**31

        proc = subprocess.run(
            [sys.executable, "-m", "permstats.cli",
             "sample", "--n", "100000000000", "--trials", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_bound_violation_fails(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(ConcentrationBound, "bound", lambda self, eps, n: 1.0)
        code, out, err = invoke(capsys, *SAMPLE_ARGV, "--format", fmt)
        assert code == 1 and err == ""
        assert "below guaranteed bound 1.0" in out
        if fmt == "json":
            report = json.loads(out)
            assert report["status"] == "failed"
            assert report["results"]["error"].startswith("measured fraction ")
        elif fmt == "text":
            assert out.startswith("sample (n=20, status=failed)\nerror: measured fraction ")
        else:
            assert out.startswith("key,value\nerror,measured fraction ")

    def test_bound_violation_fails_under_optimize(self):
        # -O strips assert statements; the concentration check must survive
        code = (
            "import sys; from permstats import cli, sampling; "
            "sampling.ConcentrationBound.bound = lambda self, eps, n: 1.0; "
            f"sys.exit(cli.run({SAMPLE_ARGV + ['--format', 'json']!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["status"] == "failed"
        assert "below guaranteed bound 1.0" in report["results"]["error"]


WORD_60 = (
    "13 34 30 37 45 43 48 6 8 51 56 59 24 28 29 60 1 2 42 39 15 16 52 47 21 36 11 46 12 4"
    " 18 58 22 5 41 50 10 35 54 40 7 44 19 9 53 14 38 23 31 20 26 32 33 17 3 27 57 49 25 55"
)
WORD_30 = "4 11 19 18 6 1 8 27 30 15 21 26 22 3 20 5 24 7 12 23 10 29 16 17 9 2 14 25 13 28"


class TestImprove:
    def test_disp_trajectory(self, capsys):
        code, report = invoke_json(capsys, "improve", "--perm", "1 2 3 4")
        assert code == 0
        r = report["results"]
        steps = r["trajectory"]
        assert r["steps"] == len(steps) - 1 >= 1
        values = [Fraction(s["value"]) for s in steps]
        assert all(a < b for a, b in zip(values, values[1:]))
        final = Permutation(tuple(steps[-1]["perm"]))
        from permstats.extremal import is_crossing, max_displacement
        from permstats.core import displacement

        assert is_crossing(final)[0]
        assert displacement(final) == max_displacement(4)

    def test_disp_already_maximal(self, capsys):
        code, report = invoke_json(capsys, "improve", "--perm", "3 4 1 2")
        assert report["results"]["steps"] == 0

    def test_s_star_trajectory(self, capsys):
        code, report = invoke_json(
            capsys, "improve", "--perm", "1 2 3 4 5 6", "--stat", "s-star"
        )
        assert code == 0
        steps = report["results"]["trajectory"]
        assert report["results"]["steps"] >= 1
        products = [int(s["value"]["product"]) for s in steps]
        assert all(s["value"]["root"] == 5 for s in steps)
        assert all(a < b for a, b in zip(products, products[1:]))
        # displayed words really carry the displayed value
        from permstats.stretch import ProductValue, consecutive_pairs, stretch_multiplicative

        for s in steps:
            word = Permutation(tuple(s["perm"]))
            assert stretch_multiplicative(consecutive_pairs(6), word) == ProductValue(
                Fraction(int(s["value"]["product"])), 5
            )

    def test_s_star_small_has_no_steps(self, capsys):
        code, report = invoke_json(
            capsys, "improve", "--perm", "2 3 1", "--stat", "s-star"
        )
        assert code == 0 and report["results"]["steps"] == 0

    def test_s_plus_unsupported(self, capsys):
        code, out, err = invoke(
            capsys, "improve", "--perm", "1 2 3", "--stat", "s-plus"
        )
        assert code == 2
        assert "invalid choice" in err

    @pytest.mark.parametrize("stat", ["s-star", "disp"])
    def test_same_output_under_optimize(self, stat):
        # -O strips assert statements; the search must not depend on one
        argv = ["-m", "permstats.cli", "improve", "--stat", stat,
                "--perm", "7 3 11 1 9 12 5 2 10 4 8 6", "--format", "json"]
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            for flags in ([], ["-O"])
        )
        assert plain.returncode == optimized.returncode == 0
        assert json.loads(plain.stdout)["results"]["steps"] > 0
        assert optimized.stdout == plain.stdout

    def test_strict_gain_check_fires_under_optimize(self):
        code = (
            "import permstats.cycles as m; m.two_opt = lambda c, a, b: c; "
            "m.find_improvement(m.CycleWithStart(4, (2, 3, 4, 1), 1))"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1
        assert "InvariantError: rewiring (1, 3) failed to improve" in proc.stderr

    @pytest.mark.parametrize("stat, word, digest", [
        ("disp", WORD_60, "0d7343e56ed10947512659882f1415ffde09b87d71cd5d4e642fbcfc7814056e"),
        ("s-star", WORD_30, "94bfe1d364164ad7fa0fc2693e59ec0cd5d62ea4148a8590d8ff3a3b6189870e"),
    ], ids=["disp", "s-star"])
    def test_pinned_output(self, capsys, stat, word, digest):
        # digests of the output before both searches shared one step loop
        code, out, err = invoke(capsys, "improve", "--stat", stat, "--perm", word,
                                "--format", "json")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_disp_scans_once_per_step(self, capsys, monkeypatch):
        # one crossing scan per improvement step, plus the one that finds none
        scans = []
        disjoint_pair = extremal._disjoint_pair

        def counting(p):
            scans.append(p)
            return disjoint_pair(p)

        monkeypatch.setattr(extremal, "_disjoint_pair", counting)
        code, report = invoke_json(capsys, "improve", "--stat", "disp", "--perm", WORD_60)
        assert code == 0
        assert len(scans) == report["results"]["steps"] + 1 == 154

    def test_text(self, capsys):
        code, out, err = invoke(capsys, "improve", "--perm", "2 1 3 4")
        assert code == 0
        assert out.startswith("improve (n=4")
        assert "step 0: 2 1 3 4" in out


class TestInvariantFailures:
    # A failed self-check anywhere in a command is exit 1 with status "failed"
    # and the message as the only result, never a traceback.
    ARGVS = {
        "metrics": ["metrics", "--perm", "2 1 3"],
        "improve": ["improve", "--stat", "disp", "--perm", "2 1 3"],
        "verify": ["verify", "--max-n", "3"],
    }
    MESSAGE = "interval test and image-set test disagree on "

    @pytest.fixture
    def disagreeing(self, monkeypatch):
        by_image_sets = extremal._crossing_by_image_sets
        monkeypatch.setattr(extremal, "_crossing_by_image_sets", lambda p: not by_image_sets(p))

    @pytest.mark.parametrize("command", ARGVS)
    def test_json(self, capsys, disagreeing, command):
        code, report = invoke_json(capsys, *self.ARGVS[command])
        assert code == 1
        assert report == {
            "command": command,
            "n": 3 if command == "verify" else None,
            "results": {"error": report["results"]["error"]},
            "status": "failed",
        }
        assert report["results"]["error"].startswith(self.MESSAGE)

    @pytest.mark.parametrize("command", ARGVS)
    def test_text_and_csv(self, capsys, disagreeing, command):
        code, out, err = invoke(capsys, *self.ARGVS[command], "--format", "text")
        assert code == 1 and err == ""
        n = 3 if command == "verify" else None
        assert out.startswith(f"{command} (n={n}, status=failed)\nerror: {self.MESSAGE}")
        assert out.count("\n") == 2
        code, out, err = invoke(capsys, *self.ARGVS[command], "--format", "csv")
        assert code == 1 and err == ""
        assert out.startswith(f"key,value\nerror,{self.MESSAGE}")
        assert out.count("\n") == 2

    @pytest.mark.parametrize("command", ["metrics", "improve"])
    def test_under_optimize(self, command):
        # -O strips assert statements; the self-check must survive it
        code = (
            "import sys; from permstats import cli, extremal; "
            "f = extremal._crossing_by_image_sets; "
            "extremal._crossing_by_image_sets = lambda p: not f(p); "
            f"sys.exit(cli.run({self.ARGVS[command] + ['--format', 'json']!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 1 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["status"] == "failed"
        assert report["results"]["error"].startswith(self.MESSAGE)


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


HUGE_N = str(10**30)  # no word of this size fits in an index
MEMORY_N = str(10**15)  # indexable, but far beyond a 2 GiB address space


class TestUsageBoundary:
    # Every ValueError, OverflowError or MemoryError out of a command or its
    # rendering is exit 2 with one stderr line, whatever raised it.

    @pytest.fixture
    def no_closed_form(self, monkeypatch):
        # at a huge n these closed forms run for minutes; the word must fail first
        def forbidden(n):
            pytest.fail(f"closed form computed before the word at n={n}")

        monkeypatch.setattr(cli, "count_max_displacement", forbidden)
        monkeypatch.setattr(cli, "max_multiplicative_stretch", forbidden)

    @pytest.mark.parametrize("argv", [
        ["construct", "--n", HUGE_N, "--displacement", "1/4"],
        ["extremal", "--n", HUGE_N, "--stat", "disp"],
        ["extremal", "--n", HUGE_N, "--stat", "s-plus"],
        ["extremal", "--n", HUGE_N, "--stat", "s-star"],
    ], ids=["construct", "disp", "s-plus", "s-star"])
    def test_n_too_large_for_a_word(self, capsys, no_closed_form, argv):
        assert_usage_error(*invoke(capsys, *argv, "--format", "json"))

    def test_undecodable_input_file(self, capsys, tmp_path):
        path = tmp_path / "word.bin"
        path.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, "metrics", "--input", str(path))
        assert_usage_error(code, out, err)
        assert str(path) in err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_unprintable_count(self, capsys, fmt):
        # count_max_displacement(2000) has more digits than CPython prints
        count = extremal.count_max_displacement(2000)
        assert type(count) is int and count.bit_length() > 4300 * math.log2(10)
        assert_usage_error(
            *invoke(capsys, "extremal", "--n", "2000", "--stat", "disp", "--format", fmt)
        )

    @pytest.mark.parametrize("argv", [
        ["construct", "--n", MEMORY_N, "--displacement", "1/4"],
        ["extremal", "--n", MEMORY_N, "--stat", "disp"],
        ["extremal", "--n", MEMORY_N, "--stat", "s-plus"],
    ], ids=["construct", "disp", "s-plus"])
    def test_out_of_memory(self, argv):
        # the limit makes the allocation fail whatever the machine's
        # overcommit policy, as in TestSample::test_out_of_memory_is_usage_error
        resource = pytest.importorskip("resource")
        limit = 2**31
        proc = subprocess.run(
            [sys.executable, "-m", "permstats.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=60,
        )
        assert_usage_error(proc.returncode, proc.stdout, proc.stderr)


class TestProductDigits:
    # Products past CPython's 4300-digit int->str limit print exactly; the
    # digits are compared as Decimal, since int(text) hits the limit as well.

    def test_metrics_random_word(self, capsys, random_word):
        word = random_word(0, 2000).image
        code, report = invoke_json(capsys, "metrics", "--perm", " ".join(map(str, word)))
        assert code == 0
        s_star = report["results"]["s_star"]
        product = math.prod(abs(a - b) for a, b in zip(word, word[1:]))
        assert s_star["root"] == 1999
        assert Decimal(s_star["product"]) == product
        assert len(s_star["product"]) > 4300

    def test_extremal_s_star(self, capsys):
        code, report = invoke_json(capsys, "extremal", "--n", "2000", "--stat", "s-star")
        assert code == 0
        r = report["results"]
        assert r["max"]["root"] == 1999
        assert Decimal(r["max"]["product"]) == 1000**1000 * 1001**999
        for word in r["maximizers"]:
            gaps = math.prod(abs(a - b) for a, b in zip(word, word[1:]))
            assert Decimal(r["max"]["product"]) == gaps


    @pytest.mark.parametrize("n", [30, 1400, 5000, 20000])
    def test_decimal_digits_of_m_star(self, n):
        product = max_multiplicative_stretch(n).product.numerator
        assert str(cli._decimal(product)) == str(Decimal(product))


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.sampled_from(["", "a\nb", "\u00e9\u2028", "\x00\x1f\t\"\\"])
)
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


class TestJsonLayout:
    # cli._json is json.dumps(..., indent=2) without the pure-Python encoder

    @given(st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_KEYS, inner, max_size=4),
        max_leaves=20,
    ))
    @settings(max_examples=200)
    def test_equals_stdlib_layout(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", [
        ["metrics", "--perm", "2 4 1 3"],
        ["metrics", "--perm", "1"],
        ["extremal", "--n", "7", "--stat", "disp"],
        ["extremal", "--n", "7", "--stat", "s-plus"],
        ["extremal", "--n", "7", "--stat", "s-star"],
        ["construct", "--n", "9", "--displacement", "1/4"],
        ["verify", "--max-n", "4"],
        ["sample", "--n", "10", "--trials", "200", "--epsilons", "0.1,-1,100"],
        ["improve", "--perm", "3 1 4 2 5", "--stat", "disp"],
        ["improve", "--perm", "3 1 4 2 5 6", "--stat", "s-star"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
    def test_every_command(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# src/ holding the package under test, and the repo root holding pyproject.toml;
# found from the imported package so that the working directory does not matter.
SRC_DIR = Path(permstats.__file__).resolve().parents[1]
PYPROJECT = SRC_DIR.parent / "pyproject.toml"


def child_env():
    """Environment in which a child Python imports the same permstats as this one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    return env


def console_script(name):
    """Command that runs the [project.scripts] entry `name` of pyproject.toml.

    It does what an installer's wrapper script does with a `module:func`
    target, so the declared entry point is checked without installing it.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            [*console_script("permstats"),
             "metrics", "--perm", "2 4 1 3", "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["displacement"] == "3/2"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permstats.cli", "verify", "--max-n", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "failures: 0" in proc.stdout

    def test_unknown_command(self):
        proc = subprocess.run(
            [*console_script("permstats"), "frobnicate"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2


class TestClosedStdout:
    # A reader that stops early (`permstats ... | head -c 20`) gets no
    # traceback and no "Exception ignored" line at shutdown, and the exit code
    # stays the one the command computed.
    MODULE = [sys.executable, "-m", "permstats.cli"]
    FAILING = [sys.executable, "-c", (
        "from permstats import cli, extremal; "
        "f = extremal._crossing_by_image_sets; "
        "extremal._crossing_by_image_sets = lambda p: not f(p); "
        "cli.main()"
    )]

    @staticmethod
    def read_then_close(argv, keep):
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
        )
        head = proc.stdout.read(keep)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return head, proc.returncode, err

    def test_closed_mid_report(self):
        # about 250 kB of json, far more than a pipe buffers
        head, code, err = self.read_then_close(
            [*self.MODULE, "extremal", "--n", "20000", "--stat", "s-plus",
             "--format", "json"],
            20,
        )
        assert head == b'{\n  "command": "extr'
        assert (code, err) == (0, b"")

    @pytest.mark.parametrize("argv, expected", [
        (MODULE + ["extremal", "--n", "5"], 0),
        (FAILING + ["improve", "--stat", "disp", "--perm", "2 1 3"], 1),
    ], ids=["ok", "failed"])
    def test_closed_before_report(self, argv, expected):
        head, code, err = self.read_then_close(argv, 0)
        assert (code, err) == (expected, b"")
