"""End-to-end command-line behavior: formats, exit codes, round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import permstats
from permstats import oracle
from permstats.cli import parse_permutation_text, run
from permstats.core import Permutation
from permstats.sampling import displacement_sums


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


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

    def test_s_star_same_output_under_optimize(self):
        # -O strips assert statements; the search must not depend on one
        argv = ["-m", "permstats.cli", "improve", "--stat", "s-star",
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
        assert "AssertionError: rewiring (1, 3) failed to improve" in proc.stderr

    def test_text(self, capsys):
        code, out, err = invoke(capsys, "improve", "--perm", "2 1 3 4")
        assert code == 0
        assert out.startswith("improve (n=4")
        assert "step 0: 2 1 3 4" in out


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
