"""CLI contract: determinism, formats, exit codes."""

import csv
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rootsums
from rootsums import bilinear, equidist, lattice, splitprimes
from rootsums.cli import build_parser, main

README = Path(__file__).parents[1] / "README.md"
SUMS_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference" / "sums.csv"
WEYL_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference" / "weyl-large.json"


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
        assert run(["sums", "--qmin", "299603", "--qmax", "299603"]) == 3
        assert "refused" in capsys.readouterr().err

    def test_refuses_before_the_first_row(self, monkeypatch, capsys):
        """A range whose largest prime is above ALL_PAIRS_LIMIT is refused before any sweep runs."""
        import rootsums.expsums

        def never(q):
            raise AssertionError(f"swept q={q} before refusing")

        monkeypatch.setattr(rootsums.expsums, "gauss_all", never)
        monkeypatch.setattr(rootsums.expsums, "salie_all", never)
        assert run(["sums", "--qmin", "3", "--qmax", "300000"]) == 3
        captured = capsys.readouterr()
        assert "refused: all-pairs evaluation refused for q=299993 > 299593" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["sums", "--qmax", "100000000000"],
                                      ["lattice", "--qmax", "100000000000", "--samples", "1"],
                                      ["sums", "--qmin", str(10**20), "--qmax", str(10**20 + 10)]])
    def test_huge_qmax_is_refused_before_its_sieve(self, argv, capsys, heap_peak):
        """A prime window of 10^11 integers is refused before its 93 GiB mask is allocated,
        and a window of 11 at 10^20 before the 10^10-entry mask of its base primes."""
        code, peak = heap_peak(run, argv)
        assert code == 3
        assert capsys.readouterr().err.startswith("refused: prime window [")
        assert peak < 1 << 20

    def test_summary_names_the_worst_error(self, tmp_path, capsys):
        """One stderr line: moduli, the worst max_*_err/sqrt(q) with its q and column, and
        the margin to the identity budget; stdout and the CSV stay the rows alone."""
        from rootsums.expsums import IDENTITY_BUDGET

        out = tmp_path / "sums.csv"
        assert run(["sums", "--qmax", "30", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote 9 rows to {out}\n"
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        errors = ["max_salie_err", "max_gauss_err", "max_gauss_modulus_err"]
        worst, q, column = max((float(r[c]) / math.sqrt(int(r["q"])), int(r["q"]), c)
                               for r in rows for c in errors)
        assert captured.err == (
            f"9 moduli, worst {column}/sqrt(q) {worst:.3e} at q={q}, "
            f"margin {IDENTITY_BUDGET - worst:.6e} to the identity budget 1e-09\n"
        )
        assert run(["sums", "--qmax", "30"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_bytes().decode()
        assert captured.err.startswith("9 moduli, worst ")

    def test_csv_identical_across_blas_thread_counts(self, tmp_path):
        """No column of sums depends on how many threads BLAS runs."""
        outputs = outputs_at_blas_thread_counts(["sums", "--qmax", "200"], tmp_path)
        assert outputs[0] == outputs[1]

    def test_matches_the_benchmark_reference(self, tmp_path):
        """The benchmark's sums check at q <= 200: q, incomplete_max and incomplete_ratio
        equal the reference text, and every max_*_err is within 1e-9 sqrt(q)."""
        out = tmp_path / "sums.csv"
        assert run(["sums", "--qmax", "200", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        with SUMS_REFERENCE.open() as fh:
            want = [r for r in csv.DictReader(fh) if int(r["q"]) <= 200]
        assert [{c: r[c] for c in want[0]} for r in rows] == want
        for r in rows:
            errs = [float(r[c]) for c in ("max_salie_err", "max_gauss_err", "max_gauss_modulus_err")]
            assert max(errs) <= 1e-9 * math.sqrt(int(r["q"])), r


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
        """No cell of the bilinear sweep depends on how many threads BLAS runs: neither the
        group-read cells of q <= 1009, of every weight class, nor a 1024 x 1024 cell,
        streamed in eight column blocks of 128."""
        argv = ["bilinear", "sweep", "--qset", "101,499,1009", "--weights", "indicator,pm1,phase",
                "--instances", "2", "--seed", "42"]
        outputs = outputs_at_blas_thread_counts(argv, tmp_path)
        assert outputs[0].count(b"\n") == 1087  # the header and 3 x 362 cells
        assert outputs[0] == outputs[1]
        argv = ["bilinear", "sweep", "--qset", "4001", "--M", "1024", "--N", "1024", "--instances", "2"]
        outputs = outputs_at_blas_thread_counts(argv, tmp_path)
        assert outputs[0].count(b"\n") == 7
        assert outputs[0] == outputs[1]

    def test_streamed_cells_match_the_benchmark_reference(self, tmp_path):
        """The largest cells of the benchmark's weyl-large sweep, each streamed in 8 or 32
        column blocks (of 128 or 64 columns), give the reference's rows: the same digest for
        each (q, M, N) group."""
        reference = json.loads(WEYL_REFERENCE.read_text())
        got = {}
        for qset, start in (("4001,8009", "1024"), ("8009", "2048")):
            out = tmp_path / f"cells_{start}.csv"
            assert run(["bilinear", "sweep", "--qset", qset, "--weights", "indicator,pm1,phase",
                        "--instances", "4", "--seed", "0", "--M", start, "--N", start,
                        "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == reference["header"]
            for line in lines[1:]:
                got.setdefault(",".join(line.split(",")[:3]), []).append(line)
        assert sorted(got) == ["4001,1024,1024", "8009,1024,1024", "8009,2048,2048"]
        for key, rows in got.items():
            digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
            assert [len(rows), digest] == reference["groups"][key], key

    @pytest.mark.parametrize("argv", [["--qset", "101", "--M", "3"], ["--qset", "101", "--N", "0"],
                                      ["--qset", "101,211", "--M", "128", "--N", "1"]],
                             ids=["not-dyadic", "zero", "beyond-every-modulus"])
    def test_cell_must_be_a_dyadic_start(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bilinear", "sweep", "--instances", "1", *argv])
        assert exc.value.code == 2
        assert "is not a dyadic start of any modulus in --qset" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["foo", "pm1,phase,pm1"], ids=["unknown", "repeated"])
    def test_weights_must_be_distinct_known_classes(self, weights, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bilinear", "sweep", "--qset", "5", "--instances", "1", "--weights", weights])
        assert exc.value.code == 2
        assert "is unknown or repeated" in capsys.readouterr().err

    def test_refused_modulus_leaves_no_partial_csv(self, tmp_path, capsys):
        """The rows are written as the groups are reached, so every --qset modulus is checked
        at the start: 16777259 > TABLE_LIMIT is refused before q = 101's first row."""
        out = tmp_path / "f.csv"
        argv = ["bilinear", "sweep", "--qset", "101,16777259", "--instances", "1", "--out", str(out)]
        assert run(argv) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err == "refused: Weyl sweep refused for q=16777259 > 16777216\n"
        assert captured.out == ""

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
        # each ratio's worst cell is named M,N,seed; a tie goes to the first row
        for ratio in ("ratio1", "ratio2"):
            worst = max(pm1, key=lambda r: float(r[ratio]))
            assert f"worst{ratio[-1]}={worst['M']},{worst['N']},{worst['seed']}" in lines[1].split()
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

    def test_count_refuses_a_modulus_above_the_table_limit(self, capsys, heap_peak):
        """16777259 is the least prime above 2^24: its Legendre table is refused, before it is built."""
        code, peak = heap_peak(run, ["split", "count", "--q", "16777259", "--P", "100"])
        assert code == 3
        assert capsys.readouterr().err == "refused: legendre_table refused for 16777259 > 16777216\n"
        assert peak < 1 << 20  # the table alone would be 16 MiB of int8

    @pytest.mark.parametrize("cutoff", ["-1", "-0.5", "nan", "inf", "-inf", "1e400"])
    def test_count_cutoff_is_finite_and_non_negative(self, cutoff, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["split", "count", "--q", "23", f"--P={cutoff}"])
        assert exc.value.code == 2
        assert "not finite and non-negative" in capsys.readouterr().err

    def test_count_json(self, tmp_path):
        out = tmp_path / "count.json"
        assert run(["split", "count", "--q", "23", "--P", "5", "--out", str(out)]) == 0
        assert '"P": 5.0,' in out.read_text()  # the cutoff stays a float
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
    @pytest.mark.parametrize("command,sweep,parameter", [
        ("lattice", lattice.dichotomy_sweep, "seed"),
        ("bilinear", bilinear.weyl_sweep, "q_values"),
        ("discrepancy", equidist.gamma_sweep, "q_values"),
        ("split", splitprimes.asymptotic_probe_rows, "q_max"),
    ])
    def test_help_names_the_calibrated_default(self, command, sweep, parameter, monkeypatch, capsys):
        """Where a CLI default differs from the sweep that calibration.json freezes, --help
        states the sweep's default, as its signature reads."""
        default = inspect.signature(sweep).parameters[parameter].default
        value = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert f"the calibrated {sweep.__name__} uses {value}" in " ".join(capsys.readouterr().out.split())

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

    def test_discrepancy_reads_many_prime_pairs(self, tmp_path):
        """pi(100) * pi(3 * 10^6) = 25 * 216816 prime pairs are counted, not listed: the row is delta_q's."""
        from rootsums.cli import _fmt
        from rootsums.equidist import delta_q, residue_counts

        out = tmp_path / "disc.csv"
        assert run(["discrepancy", "--qset", "101", "--P", "100", "--R", "3000000", "--out", str(out)]) == 0
        with out.open() as fh:
            row = list(csv.DictReader(fh))[-1]
        report = delta_q(*residue_counts(100, (101,)), *residue_counts(3000000, (101,)), 100, 3000000)
        assert row["R"] == "3000000" and row["n_points"] == str(report.n_points)
        assert [row["D"], row["envelope"], row["ratio"]] == [
            _fmt(report.value), _fmt(report.envelope), _fmt(report.ratio)
        ]

    # sha256 of the --out bytes, computed before the discrepancy command read residue histograms
    DISCREPANCY_DIGESTS = {
        "gamma-and-delta": (
            ["discrepancy", "--qset", "101,211", "--R", "500"],
            "4ea83cf17f2096e5a54eddf1e5f8cfd5026a894de2bdeaa6ec2f3aa1fc68592d",
        ),
        "fixed-cutoffs": (
            ["discrepancy", "--qset", "101", "--P", "2000", "--R", "2000"],
            "ccd9dc1538f231c6623f064c230d4c4663623eabe354249bd2226f1a440f95f1",
        ),
        "coverage": (
            ["discrepancy", "coverage", "--qset", "101"],
            "c5cd6cae2c1147331e26d204fde4dd77ec43d06c2a479240dcf93290e59e285e",
        ),
    }

    @pytest.mark.parametrize("name", list(DISCREPANCY_DIGESTS))
    def test_discrepancy_bytes_are_pinned(self, name, tmp_path):
        argv, digest = self.DISCREPANCY_DIGESTS[name]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,walks",
        [
            (["discrepancy", "--qset", "101,211", "--P", "1000000", "--R", "1000000"], [10**6]),
            (["discrepancy", "--qset", "101,211", "--P", "1000000", "--R", "2000000"], [10**6, 2 * 10**6]),
            (["discrepancy", "--qset", "101,211", "--R", "500"], [25, 51, 101, 500, 42, 95, 211]),
            (["discrepancy", "coverage", "--qset", "101"], [101]),
        ],
        ids=["P=R", "P<R", "exponents", "coverage"],
    )
    def test_discrepancy_walks_each_cutoff_once(self, argv, walks, prime_walks, tmp_path):
        """One walk of the primes per distinct cutoff, shared by every modulus that reads it."""
        assert run(argv + ["--out", str(tmp_path / "out")]) == 0
        assert prime_walks == walks

    @pytest.mark.parametrize(
        "argv",
        [["discrepancy", "--P", "-5"], ["discrepancy", "--R", "-3"],
         ["discrepancy", "coverage", "--qset", "101", "--S", "-2"],
         ["discrepancy", "--p-exponents", "0.7,-1"]],
        ids=["P", "R", "S", "p-exponents"],
    )
    def test_discrepancy_refuses_negative_cutoffs(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_discrepancy_writes_each_cutoff_once(self, tmp_path, capsys):
        """At q = 3 the exponents 0.85 and 1.0 both round to P = 3, which gives one row;
        the cutoffs keep their first-seen order."""
        out = tmp_path / "disc.csv"
        assert run(["discrepancy", "--qset", "3", "--out", str(out)]) == 0
        with out.open() as fh:
            assert [r["P"] for r in csv.DictReader(fh)] == ["2", "3"]
        assert capsys.readouterr().err.startswith("rows=2 ")
        assert run(["discrepancy", "--qset", "101", "--p-exponents", "1.0,0.5,1.0", "--out", str(out)]) == 0
        with out.open() as fh:
            assert [r["P"] for r in csv.DictReader(fh)] == ["101", "10"]

    def test_discrepancy_summary_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "disc.csv"
        assert run(["discrepancy", "--qset", "101,211", "--R", "500", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        worst = max(rows, key=lambda r: float(r["ratio"]))  # a tie goes to the first row
        assert captured.err.splitlines() == [
            f"rows=12 max_ratio={float(worst['ratio']):.6g} worst={worst['q']},{worst['P']},{worst['R']}"
        ]
        assert "max_ratio" not in captured.out
        # without --out, stdout is the CSV alone
        assert run(["discrepancy", "--qset", "101,211", "--R", "500"]) == 0
        captured = capsys.readouterr()
        assert captured.out.replace("\r\n", "\n") == out.read_text().replace("\r\n", "\n")
        assert captured.err.startswith("rows=12 ")

    def test_coverage_action(self, tmp_path):
        out = tmp_path / "cov.json"
        assert run(["discrepancy", "coverage", "--qset", "101", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fraction"] == 1.0 and payload["missing_count"] == 0

    def test_bilinear_cell_restriction(self, tmp_path, monkeypatch):
        """--M and --N give the rows of the full sweep at that cell, computing no others:
        64 is a dyadic start of 211 only, so q = 101 adds no row."""
        full, cell = tmp_path / "full.csv", tmp_path / "cell.csv"
        base = ["bilinear", "sweep", "--qset", "101,211", "--weights", "pm1", "--instances", "2"]
        assert run(base + ["--out", str(full)]) == 0
        computed = []
        group_sums = bilinear.weyl_group_sums

        def spy(q, c, m_start, n_start, alpha, beta):
            computed.extend((q, m_start, n_start) for _ in c)
            return group_sums(q, c, m_start, n_start, alpha, beta)

        monkeypatch.setattr(bilinear, "weyl_group_sums", spy)
        assert run(base + ["--M", "64", "--N", "8", "--out", str(cell)]) == 0
        assert computed == [(211, 64, 8)] * 2
        lines = full.read_text().splitlines()
        selected = [line for line in lines[1:] if line.split(",")[1:3] == ["64", "8"]]
        assert len(selected) == 2
        assert cell.read_text().splitlines() == [lines[0], *selected]

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

    def test_forms_certifies_h_at_the_default_qmin(self, tmp_path):
        """The series columns come after the others, and at --qmin 100003 the series'
        bound leaves h_series within 0.5 of h, whatever the truncation of l_direct."""
        out = tmp_path / "forms.csv"
        assert run(["forms", "--count", "3", "--truncation", "1000", "--out", str(out)]) == 0
        with out.open() as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["q", "h", "l_direct", "l_exact", "tail_bound",
                                     "heegner_fraction", "h_series", "series_bound"]
        assert [int(r["q"]) for r in rows] == [100003, 100019, 100043]
        for r in rows:
            assert float(r["tail_bound"]) > 0.5
            assert abs(float(r["h_series"]) - int(r["h"])) + float(r["series_bound"]) < 0.5

    def test_forms_truncation_above_the_limit_is_refused(self, tmp_path, capsys, heap_peak):
        """T = 2^27 + 1 is refused before any term is summed or any row written."""
        out = tmp_path / "forms.csv"
        code, peak = heap_peak(run, ["forms", "--qmin", "1000", "--count", "2",
                                     "--truncation", "134217729", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "refused: L-series truncation refused for 134217729 > 134217728\n"
        assert not out.exists()
        assert peak < 1 << 20

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

    @pytest.mark.parametrize(
        "argv",
        [["bilinear", "sweep", "--qset", "5,5", "--instances", "1", "--weights", "pm1"],
         ["energy", "--qset", "101,211,101"], ["discrepancy", "--qset", "211,211"]],
        ids=["bilinear", "energy", "discrepancy"],
    )
    def test_qset_moduli_must_be_distinct(self, argv, capsys):
        """A repeated modulus is a usage error, not a second copy of its rows."""
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_instances_must_be_positive(self, instances, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bilinear", "sweep", "--qset", "101", "--instances", instances])
        assert exc.value.code == 2
        assert "argument --instances: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["bilinear", "sweep", "--qset", "101", "--seed", "-1"], ["lattice", "--seed", "-3"],
         ["energy", "--seed", "-1"]],
        ids=["bilinear", "lattice", "energy"],
    )
    def test_seed_must_be_non_negative(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["forms", "--truncation", "-5"], ["forms", "--truncation", "0"], ["forms", "--count", "0"],
         ["forms", "--count", "-2"], ["lattice", "--samples", "-1"], ["lattice", "--samples", "0"],
         ["energy", "--jcount", "0"], ["energy", "--jcount", "-3"]],
        ids=["truncation-neg", "truncation-0", "count-0", "count-neg", "samples-neg", "samples-0",
             "jcount-0", "jcount-neg"],
    )
    def test_counts_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: {argv[-1]} is less than 1" in capsys.readouterr().err

    @pytest.mark.parametrize("qmax", ["10", "2", "-1"])
    def test_lattice_needs_a_prime_from_11(self, qmax, capsys):
        """The lattice sweep draws its moduli from the primes in [11, --qmax]."""
        with pytest.raises(SystemExit) as exc:
            run(["lattice", "--qmax", qmax])
        assert exc.value.code == 2
        assert "--qmax" in capsys.readouterr().err

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

    def test_benchmark_names_resolve_in_the_package(self):
        """Every per-layer metric of BENCHMARK.json names module.attr[.attr] plus a kind;
        the tracer's work counters and the two run-level extras name no attribute."""
        root = Path(rootsums.__file__).parents[2]
        spec = json.loads((root / "BENCHMARK.json").read_text())
        loader = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(tracer)
        skipped = set(tracer.WORK_METRICS) | {"trace.overhead_s", "csv_rows_thread_variant"}
        names = [m["name"] for m in spec["per_layer"] if m["name"] not in skipped]
        assert len(skipped) == 5 and "weights.WeightVector.make.self_s" in names
        for name in names:
            module, *attrs, _kind = name.split(".")
            obj = importlib.import_module(f"rootsums.{module}")
            for attr in attrs:
                assert hasattr(obj, attr), name
                obj = getattr(obj, attr)
            assert callable(obj), name

    def test_benchmark_selftest_passes(self):
        """The benchmark's own checks, so that renaming or un-caching a traced function fails here."""
        root = Path(rootsums.__file__).parents[2]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
            cwd=root, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert re.search(r"\b7 passed\b", result.stdout), result.stdout
