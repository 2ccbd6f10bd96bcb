"""The benchmark's workloads: the CLI call each one makes and how its output is checked.

Every workload is one ``rootsums`` CLI call.  Its output is compared with the
references under ``reference/``, recorded from the commit that introduced the
benchmark (``make_refs.py`` regenerates them).  An *operation* is one unit of
that output: a criterion of ``verify`` or a CSV row of a sweep.  Every
workload has fixed inputs, so the benchmark's ``--seed`` does not change them.

Each workload has a ``name`` and four methods:

* ``argv(out)``: the CLI arguments, writing the output to ``out``;
* ``check(out)``: (attempted, failed) operations against the reference;
  a missing output file fails every operation;
* ``records(out)``: operation key -> output text, to compare two runs;
* ``reference(out)``: what ``make_refs.py`` stores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REF = Path(__file__).resolve().parent / "reference"

# weyl-large: 4 instances per cell is about 6 s on 2 cores, so a run of the
# benchmark's length repeats it several times.  The sweep's master seed is
# fixed, so every benchmark seed runs the same cells against one reference.
WEYL_QSET = "4001,8009"
WEYL_INSTANCES = 4
WEYL_SEED = 0

# README: identity checks budget 1e-9 * sqrt(q).
IDENTITY_BUDGET = 1e-9

# verify detail fields that hold floating-point rounding error, with the most
# each may read.  Reordered sums (another BLAS thread count, a rewritten
# kernel) change their digits, so they are held to a budget, not to the
# reference text.  The first three are already divided by sqrt(q), so the
# identity budget applies as is; oracle_gap is held to its criterion's own
# tolerance.
VERIFY_ERROR_FIELDS = {
    "max_err_over_sqrtq": IDENTITY_BUDGET,
    "max_modulus_err": IDENTITY_BUDGET,
    "max_vanish": IDENTITY_BUDGET,
    "oracle_gap": 1e-12,
}


def _read_lines(path: Path) -> list[str] | None:
    try:
        return path.read_text().splitlines()
    except FileNotFoundError:
        return None


class Verify:
    """The full acceptance battery; every criterion must pass with the
    reference's detail fields (all but ``seconds``), the rounding-error fields
    of ``VERIFY_ERROR_FIELDS`` within their budgets and the rest as text."""

    name = "verify"
    ref_path = REF / "verify.json"

    def argv(self, out):
        return ["verify", "--out", str(out)]

    def _entries(self, out: Path) -> dict | None:
        try:
            payload = json.loads(out.read_text())
        except FileNotFoundError:
            return None
        return {name: {k: v for k, v in entry.items() if k != "seconds"} for name, entry in payload.items()}

    def records(self, out):
        entries = self._entries(out)
        return None if entries is None else {name: json.dumps(e, sort_keys=True) for name, e in entries.items()}

    @staticmethod
    def _matches(got: dict | None, want: dict | None) -> bool:
        if not got or not want or got.get("passed") is not True or got.keys() != want.keys():
            return False
        for key, value in got.items():
            budget = VERIFY_ERROR_FIELDS.get(key)
            if budget is None:
                if value != want[key]:
                    return False
            elif not float(value) <= budget:
                return False
        return True

    def check(self, out):
        ref = json.loads(self.ref_path.read_text())
        got = self._entries(out) or {}
        names = ref.keys() | got.keys()
        failed = sum(1 for name in names if not self._matches(got.get(name), ref.get(name)))
        return len(names), failed

    def reference(self, out):
        return self._entries(out)


class Sums:
    """``rootsums sums --qmax 1000``: q, incomplete_max and incomplete_ratio must
    equal the reference byte for byte; every max_*_err must stay within the
    identity budget 1e-9*sqrt(q)."""

    name = "sums"
    exact = ("q", "incomplete_max", "incomplete_ratio")
    ref_path = REF / "sums.csv"

    def argv(self, out):
        return ["sums", "--qmax", "1000", "--out", str(out)]

    def records(self, out):
        lines = _read_lines(out)
        return None if lines is None else {line.split(",", 1)[0]: line for line in lines[1:]}

    def _rows(self, path: Path) -> dict[str, dict]:
        try:
            with open(path, newline="") as fh:
                return {row["q"]: row for row in csv.DictReader(fh)}
        except FileNotFoundError:
            return {}

    def check(self, out):
        ref = self._rows(self.ref_path)
        got = self._rows(out)
        failed = 0
        for q in ref.keys() | got.keys():
            row, want = got.get(q), ref.get(q)
            if row is None or want is None or any(row.get(c) != want[c] for c in self.exact):
                failed += 1
                continue
            budget = IDENTITY_BUDGET * math.sqrt(int(q))
            errs = [float(v) for k, v in row.items() if k.startswith("max_") and k.endswith("_err")]
            if len(errs) != 3 or not all(e <= budget for e in errs):
                failed += 1
        return len(ref.keys() | got.keys()), failed

    def reference(self, out):
        rows = self._rows(out)
        lines = [",".join(self.exact)] + [",".join(row[c] for c in self.exact) for row in rows.values()]
        return "\n".join(lines) + "\n"


class WeylLarge:
    """``rootsums bilinear sweep`` over the few large cells of q = 4001, 8009: the
    CSV must equal the reference byte for byte.  The reference stores a digest
    per (q, M, N) group of rows; every row of a group that differs fails."""

    name = "weyl-large"
    ref_path = REF / "weyl-large.json"

    def argv(self, out):
        return [
            "bilinear", "sweep", "--qset", WEYL_QSET, "--weights", "indicator,pm1,phase",
            "--instances", str(WEYL_INSTANCES), "--seed", str(WEYL_SEED), "--out", str(out),
        ]

    def records(self, out):
        lines = _read_lines(out)
        if lines is None:
            return None
        # q, M, N, kind, seed (the instance) identify a row
        return {",".join(line.split(",")[:5]): line for line in lines[1:]}

    @staticmethod
    def _groups(lines: list[str]) -> dict[str, list]:
        grouped: dict[str, list[str]] = {}
        for line in lines[1:]:
            grouped.setdefault(",".join(line.split(",")[:3]), []).append(line)
        return {key: [len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]]
                for key, rows in grouped.items()}

    def check(self, out):
        ref = json.loads(self.ref_path.read_text())
        want = ref["groups"]
        lines = _read_lines(out)
        if lines is None or not lines or lines[0] != ref["header"]:
            total = sum(n for n, _ in want.values())
            return total, total
        got = self._groups(lines)
        attempted = failed = 0
        for key in want.keys() | got.keys():
            rows = max(want.get(key, [0])[0], got.get(key, [0])[0])
            attempted += rows
            if want.get(key) != got.get(key):
                failed += rows
        return attempted, failed

    def reference(self, out):
        lines = _read_lines(out)
        return {"header": lines[0], "groups": self._groups(lines)}


WORKLOADS = {w.name: w for w in (Verify(), WeylLarge(), Sums())}


def rows_differing(a: dict | None, b: dict | None) -> int:
    """Operations whose output text differs between two runs (missing counts)."""
    a, b = a or {}, b or {}
    return sum(1 for key in a.keys() | b.keys() if a.get(key) != b.get(key))
