"""Self-tests of the benchmark's own code (not part of the rootsums suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
from run import Runner, layer_value  # noqa: E402
from workloads import REF, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """A scratch directory inside the source tree, removed afterwards."""
    path = ROOT / ".perfbench_runs" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bindings(modules: dict) -> dict:
    """Every attribute the tracer may rebind, keyed by (owner, attribute)."""
    owners = [sys.modules["rootsums"], *modules.values(), modules["weights"].WeightVector]
    return {(owner.__name__, attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_rebinds_and_restores_every_binding():
    modules = tracing.package_modules()
    before = _bindings(modules)
    tracer = tracing.Tracer(modules).install()
    try:
        during = _bindings(modules)
        changed = {key for key in before if during[key] is not before[key]}
        # one function, rebound wherever a module imported it by name
        for mod in ("expsums", "bilinear", "equidist"):
            assert (f"rootsums.{mod}", "sqrt_phase_table") in changed
        for mod in ("modular", "expsums", "quadforms", "splitprimes"):
            assert (f"rootsums.{mod}", "kronecker") in changed
        assert ("rootsums", "kronecker") in changed
        assert ("WeightVector", "make") in changed
        assert ("rootsums.acceptance", "ALL_CRITERIA") in changed
        # the wrapper delegates, so the cache still answers
        assert modules["expsums"].sqrt_phase_table.cache_info() is not None
    finally:
        tracer.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0, 10]; 1 [1, 4] and 2 [3, 6] overlap; 3 [8, 12] sticks out of
    # the root; 4 [2, 3] is a grandchild under 1; 5 is a second root.
    parents = [-1, 0, 0, 0, 1, -1]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0, 20.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 21.5]
    got = tracing.self_times(parents, starts, ends)
    # root: 10 minus the union [1, 6] (5) minus the clipped [8, 10] (2)
    assert got == [3.0, 2.0, 3.0, 4.0, 1.0, 1.5]


def test_self_times_of_a_traced_call_add_up_to_its_root(workdir):
    import rootsums.cli

    with tracing.Tracer() as tracer:
        assert rootsums.cli.main(["sums", "--qmax", "40", "--out", str(workdir / "sums.csv")]) == 0
    report = tracer.report()
    funcs = report["functions"]
    assert funcs["cli.main"]["calls"] == 1
    assert funcs["expsums.gauss_all"]["calls"] == 11  # the odd primes up to 40
    assert funcs["modular.kronecker"]["calls"] == 0
    total_self = sum(f.get("self_s", 0.0) for f in funcs.values())
    assert abs(total_self - funcs["cli.main"]["total_s"]) < 1e-9
    flops = sum(8 * (q - 1) * q * q + 8 * (q - 1) ** 3 for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert report["work"]["expsums.matmul_flops"] == flops


def test_names_follow_the_pattern_and_are_unique():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_every_per_layer_metric_resolves():
    modules = tracing.package_modules()
    with tracing.Tracer(modules) as tracer:
        pass
    caches = tracing.cache_counters(tracing.lru_caches(modules))
    extras = {"trace.overhead_s": 0.0, "csv_rows_thread_variant": 0}
    report = tracer.report()
    for metric in SPEC["per_layer"]:
        assert isinstance(layer_value(metric["name"], report, caches, extras), (int, float)), metric["name"]


def test_checks_count_wrong_operations(workdir):
    sums = WORKLOADS["sums"]
    rows = list(csv.DictReader(io.StringIO(sums.ref_path.read_text())))
    columns = ["q", "max_salie_err", "max_gauss_err", "max_gauss_modulus_err", "incomplete_max", "incomplete_ratio"]

    def write_sums(edit):
        text = io.StringIO()
        writer = csv.DictWriter(text, columns, lineterminator="\n")
        writer.writeheader()
        for i, row in enumerate(rows):
            full = dict(row, max_salie_err="1e-14", max_gauss_err="1e-14", max_gauss_modulus_err="1e-14")
            writer.writerow(edit(i, full))
        (workdir / "sums.csv").write_text(text.getvalue())
        return sums.check(workdir / "sums.csv")

    assert write_sums(lambda i, row: row) == (len(rows), 0)
    assert write_sums(lambda i, row: dict(row, incomplete_max="7") if i == 5 else row) == (len(rows), 1)
    assert write_sums(lambda i, row: dict(row, max_gauss_err="0.5") if i < 3 else row) == (len(rows), 3)
    assert sums.check(workdir / "missing.csv") == (len(rows), len(rows))

    verify = WORKLOADS["verify"]
    ref = json.loads((REF / "verify.json").read_text())
    out = workdir / "verify.json"
    out.write_text(json.dumps({name: dict(entry, seconds=1.0) for name, entry in ref.items()}))
    assert verify.check(out) == (12, 0)
    name = sorted(ref)[0]
    out.write_text(json.dumps({**ref, name: dict(ref[name], passed=False)}))
    assert verify.check(out) == (12, 1)
    # rounding error is held to its budget, not to the reference's digits
    gauss = "gauss evaluation identity"
    out.write_text(json.dumps({**ref, gauss: dict(ref[gauss], max_err_over_sqrtq="3.1e-15")}))
    assert verify.check(out) == (12, 0)
    out.write_text(json.dumps({**ref, gauss: dict(ref[gauss], max_err_over_sqrtq="2.0e-9")}))
    assert verify.check(out) == (12, 1)


def test_traced_and_untraced_runs_write_identical_outputs(workdir):
    runner = Runner(workdir, deadline=time.monotonic() + 120)
    for argv in (["sums", "--qmax", "60"], ["bilinear", "sweep", "--qset", "101", "--instances", "2", "--seed", "3"]):
        outputs = []
        for flags in ([], ["--trace"]):
            out = workdir / f"out-{len(outputs)}"
            sample = runner.spawn(flags, argv + ["--out", str(out)])
            assert sample["ok"]
            assert ("trace" in sample) == bool(flags)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
