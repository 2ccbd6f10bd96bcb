"""CLI contract: determinism, formats, exit codes."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rootsums
from rootsums.cli import build_parser, main

README = Path(__file__).parents[1] / "README.md"


def run(argv):
    return main(argv)


def outputs_at_blas_thread_counts(argv, tmp_path) -> list[bytes]:
    """The --out bytes of one command run in a fresh interpreter at 1 and at 2 BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out_{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(rootsums.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-c", "import sys; from rootsums.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(out)],
            env=env, capture_output=True, check=True,
        )
        outputs.append(out.read_bytes())
    return outputs


class TestSums:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "sums.csv"
        assert run(["sums", "--qmax", "30", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"q", "max_salie_err", "max_gauss_err"} <= set(rows[0])
        assert [int(r["q"]) for r in rows] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert all(float(r["max_salie_err"]) < 1e-9 for r in rows)

    def test_size_guard_exit_code(self, capsys):
        assert run(["sums", "--qmin", "4099", "--qmax", "4099"]) == 3
        assert "refused" in capsys.readouterr().err

    def test_csv_identical_across_blas_thread_counts(self, tmp_path):
        """No column of sums depends on how many threads BLAS runs."""
        outputs = outputs_at_blas_thread_counts(["sums", "--qmax", "200"], tmp_path)
        assert outputs[0] == outputs[1]


class TestEnergy:
    @pytest.mark.parametrize("q", [5, 3])
    def test_j_values_are_distinct(self, q, tmp_path):
        """The drawn j never repeats one already taken, so no (q, j, N) row is written twice."""
        out = tmp_path / "energy.csv"
        assert run(["energy", "--qset", str(q), "--jcount", "3", "--out", str(out)]) == 0
        with out.open() as fh:
            keys = [(r["q"], r["j"], r["N"]) for r in csv.DictReader(fh)]
        assert len(keys) == len(set(keys))
        assert len({j for _, j, _ in keys}) == min(3, q - 1)

    def test_draws_without_a_repeat_are_kept_in_order(self, tmp_path):
        """Runs that draw no repeat keep their j values and order, so their bytes do not change."""
        out = tmp_path / "energy.csv"
        assert run(["energy", "--qset", "101,211", "--weights", "pm1", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["N"] == "1"]
        assert [(r["q"], r["j"]) for r in rows] == [
            ("101", "1"), ("101", "50"), ("101", "88"), ("211", "1"), ("211", "76"), ("211", "68")
        ]


class TestBilinear:
    def test_csv_identical_across_blas_thread_counts(self, tmp_path):
        """No cell of the bilinear sweep depends on how many threads BLAS runs."""
        argv = ["bilinear", "sweep", "--qset", "101,499,1009", "--instances", "2", "--seed", "42"]
        outputs = outputs_at_blas_thread_counts(argv, tmp_path)
        assert outputs[0].count(b"\n") == 1087  # the header and 1,086 cells
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("weights", ["foo", "pm1,phase,pm1"], ids=["unknown", "repeated"])
    def test_weights_must_be_distinct_known_classes(self, weights, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bilinear", "sweep", "--qset", "5", "--instances", "1", "--weights", weights])
        assert exc.value.code == 2
        assert "is unknown or repeated" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bilinear", "sweep", "--qset", "101", "--weights", "pm1", "--seed", "42",
                "--instances", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bilinear", "sweep", "--qset", "101", "--weights", "pm1", "--instances", "2"]
        run(base + ["--seed", "1", "--out", str(a)])
        run(base + ["--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_action(self, capsys):
        for command in ("bilinear", "split", "discrepancy"):
            with pytest.raises(SystemExit) as exc:
                run([command, "frobnicate"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_summary_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        argv = ["bilinear", "sweep", "--qset", "101", "--weights", "pm1,phase", "--instances", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        lines = captured.err.splitlines()
        assert [line.split(" cells=")[0] for line in lines] == ["q=101 kind=phase", "q=101 kind=pm1"]
        pm1 = [r for r in rows if r["kind"] == "pm1"]
        assert f"cells={len(pm1)} " in lines[1]
        assert f"max_ratio1={max(float(r['ratio1']) for r in pm1):.6g} " in lines[1]
        assert "kind=" not in captured.out


class TestSplit:
    def test_thm12_csv(self, tmp_path):
        out = tmp_path / "split.csv"
        assert run(["split", "thm12", "--qmax", "300", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["q"] for r in rows][:3] == ["67", "83", "131"]
        assert all(r["pass"] == "True" for r in rows)
        assert list(rows[0]) == ["q", "t", "omega", "bound", "pass"]

    def test_thm12_summary_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "split.csv"
        assert run(["split", "thm12", "--qmax", "300", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        worst = min(rows, key=lambda r: int(r["omega"]) - float(r["bound"]))
        margin = int(worst["omega"]) - float(worst["bound"])
        assert captured.err.strip() == f"{len(rows)} moduli, min margin {margin:.3f} at q={worst['q']}"
        assert "margin" not in captured.out

    @pytest.mark.parametrize("q", ["15", "2", "9"])
    def test_count_needs_an_odd_prime(self, q, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["split", "count", "--q", q])
        assert exc.value.code == 2
        assert "not an odd prime" in capsys.readouterr().err

    def test_count_json(self, tmp_path):
        out = tmp_path / "count.json"
        assert run(["split", "count", "--q", "23", "--P", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["split_count"] == 2
        assert payload["least_split_prime"] == 2

    def test_probe_rows(self, tmp_path):
        out = tmp_path / "probe.csv"
        assert run(["split", "probe", "--qmin", "1000", "--qmax", "2000", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["ratio"]) > 0 for r in rows)


class TestOthers:
    def test_energy_columns(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert run(["energy", "--qset", "31", "--out", str(out)]) == 0
        with out.open() as fh:
            header = fh.readline().strip().split(",")
        assert header == ["q", "j", "N", "energy", "fourth_moment", "envelope", "ratio", "seed"]

    def test_discrepancy_columns(self, tmp_path):
        out = tmp_path / "disc.csv"
        assert run(["discrepancy", "--qset", "211", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["ratio"]) < 1 for r in rows)

    def test_discrepancy_fixed_cutoff(self, tmp_path):
        out = tmp_path / "disc.csv"
        assert run(["discrepancy", "--qset", "211", "--P", "50", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["P"] for r in rows] == ["50"]

    def test_coverage_action(self, tmp_path):
        out = tmp_path / "cov.json"
        assert run(["discrepancy", "coverage", "--qset", "101", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fraction"] == 1.0 and payload["missing_count"] == 0

    def test_bilinear_cell_restriction(self, tmp_path):
        out = tmp_path / "cell.csv"
        assert run(["bilinear", "sweep", "--qset", "101", "--weights", "pm1",
                    "--instances", "2", "--M", "4", "--N", "8", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["M"] == "4" and r["N"] == "8" for r in rows)

    def test_lattice_rows(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run(["lattice", "--qmax", "101", "--samples", "25", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert all(r["minkowski_ok"] == "True" for r in rows)

    def test_forms_rows(self, tmp_path):
        out = tmp_path / "forms.csv"
        assert run(["forms", "--qmin", "1000", "--count", "3", "--truncation", "100000",
                    "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for r in rows:
            assert abs(float(r["l_direct"]) - float(r["l_exact"])) < 1e-3

    def test_forms_summary_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "forms.csv"
        assert run(["forms", "--qmin", "1000", "--count", "3", "--truncation", "1000",
                    "--out", str(out)]) == 0
        captured = capsys.readouterr()
        with out.open() as fh:
            fractions = [float(r["heegner_fraction"]) for r in csv.DictReader(fh)]
        mean = sum(fractions) / 3
        assert captured.err.startswith(f"mean heegner_fraction {mean:.5f} over 3 moduli, ")
        assert "target 27/(10 pi) = 0.85944" in captured.err
        assert "heegner" not in captured.out

    def test_usage_error_exit(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["bilinear", "sweep", "--qset", "100"], ["energy", "--qset", "100"],
         ["discrepancy", "--qset", "100"]],
        ids=["bilinear", "energy", "discrepancy"],
    )
    def test_qset_needs_odd_primes(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "100 is not an odd prime" in capsys.readouterr().err

    def test_coverage_needs_one_modulus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["discrepancy", "coverage", "--qset", "101,211"])
        assert exc.value.code == 2
        assert "one modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["energy", "bilinear", "discrepancy"])
    def test_slack_exponent_is_not_an_option(self, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--slack-exponent", "2"])
        assert exc.value.code == 2


class TestVerify:
    def test_quick_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--quick", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.count("[PASS]") == 12
        payload = json.loads(out.read_text())
        assert len(payload) == 12

    def test_recalibrate_to_explicit_path(self, tmp_path):
        out = tmp_path / "calib.json"
        from rootsums import calibration

        # a constant of a family no longer in FAMILIES must not survive
        stale = {"frozen": 1.0, "measured": 1.0}
        out.write_text(json.dumps({"constants": {"retired_family": stale}}))
        assert run(["verify", "--recalibrate", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["constants"]) == set(calibration.FAMILIES)
        for entry in payload["constants"].values():
            assert entry["frozen"] >= entry["measured"]
        # the shipped fixture is exactly what a fresh deterministic rerun writes
        assert out.read_bytes() == calibration._fixture_path().read_bytes()


def readme_commands() -> list[str]:
    """Every ``rootsums ...`` line of the README's code blocks, comments stripped."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    return [
        line.split("#")[0].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("rootsums ")
    ]


def test_readme_commands_parse():
    """The README's examples are the runnable list; each must still parse (nothing runs)."""
    commands = readme_commands()
    assert len(commands) >= 13
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command)[1:]
        args = parser.parse_args(argv)
        assert callable(args.func), command


class TestSetup:
    def test_setup_imports_no_sweep_modules(self):
        """Importing the CLI and loading the fixture leaves the sweep modules unimported."""
        code = (
            "import sys\n"
            "import rootsums.cli, rootsums.calibration\n"
            "rootsums.calibration.load()\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rootsums.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert "rootsums.calibration" in out
        for name in ("bilinear", "lattice", "equidist", "quadforms", "expsums",
                     "splitprimes", "acceptance"):
            assert f"rootsums.{name}" not in out

    def test_benchmark_selftest_passes(self):
        """The benchmark's own checks, so that renaming or un-caching a traced function fails here."""
        root = Path(rootsums.__file__).parents[2]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
            cwd=root, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert re.search(r"\b7 passed\b", result.stdout), result.stdout
