"""Command-line surface: reproducible experiments with CSV/JSON reports.

Every sweep is seeded and deterministic: identical flags and seed produce
byte-identical output files at a fixed BLAS thread count.  The ``sums`` CSV
is also byte-identical at 1 and at 2 BLAS threads, since no BLAS call
computes it.
Rows are emitted in sorted key order with a fixed column set, '.' decimals
and no locale dependence.  ``bilinear sweep``, ``split thm12`` and ``forms``
also print a short summary of their rows (worst ratios, least margin, mean
window fraction) to stderr, so stdout and the --out file hold the rows
alone.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 refused by a size guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .errors import SizeGuardError

EXIT_FAILURE = 1
EXIT_REFUSED = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


def _write_rows(rows: list[dict], columns: list[str], out: str | None) -> None:
    handle = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
    finally:
        if out:
            handle.close()
            print(f"wrote {len(rows)} rows to {out}")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _summary(text: str) -> None:
    """A sweep's one-line summary, on stderr so that stdout and --out stay the rows alone."""
    print(text, file=sys.stderr)


def _odd_prime(text: str) -> int:
    from .primes import is_prime

    q = int(text)
    if q % 2 == 0 or not is_prime(q):
        raise argparse.ArgumentTypeError(f"{q} is not an odd prime")
    return q


def _qset(text: str) -> tuple[int, ...]:
    return tuple(_odd_prime(part) for part in text.split(","))


WEIGHT_CLASSES = ("indicator", "pm1", "phase")


def _weight_classes(text: str) -> tuple[str, ...]:
    kinds = tuple(text.split(","))
    for i, kind in enumerate(kinds):
        if kind not in WEIGHT_CLASSES or kind in kinds[:i]:
            raise argparse.ArgumentTypeError(f"weight class {kind!r} is unknown or repeated")
    return kinds


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_sums(args) -> int:
    import numpy as np

    from .expsums import gauss_all, incomplete_sqrt_max, salie_all
    from .primes import primes_between

    rows = []
    for q in primes_between(max(3, args.qmin), args.qmax).tolist():
        sd, sc = salie_all(q)
        max_salie_err = float(np.max(np.abs(sd - sc)))
        del sd, sc  # not held through gauss_all and the next salie_all: a lower peak RSS
        gd, gc = gauss_all(q)
        inc = incomplete_sqrt_max(1, 1, q)
        rows.append(
            {
                "q": q,
                "max_salie_err": max_salie_err,
                "max_gauss_err": float(np.max(np.abs(gd - gc))),
                "max_gauss_modulus_err": float(np.max(np.abs(np.abs(gd) - math.sqrt(q)))),
                "incomplete_max": inc,
                "incomplete_ratio": inc / (math.sqrt(q) * math.log(q)),
            }
        )
    _write_rows(
        rows,
        ["q", "max_salie_err", "max_gauss_err", "max_gauss_modulus_err", "incomplete_max", "incomplete_ratio"],
        args.out,
    )
    return 0


def cmd_energy(args) -> int:
    import numpy as np

    from .weights import (
        WeightVector,
        dyadic_starts,
        energy_envelope_short,
        q_table,
        table_energy,
        table_fourth_moment,
    )

    rows = []
    for q in args.qset:
        rng_master = np.random.default_rng([args.seed, q])
        j_values = dict.fromkeys([1])  # insertion-ordered, so a repeated draw adds nothing
        while len(j_values) < min(args.jcount, q - 1):
            j_values[int(rng_master.integers(1, q))] = None
        for start in dyadic_starts(q):
            for j in j_values:
                rng = np.random.default_rng([args.seed, q, start, j])
                beta = WeightVector.make(args.weights, q, start, rng)
                table = q_table(beta, j)
                e_val = table_energy(table)
                fourth = table_fourth_moment(table)
                env = energy_envelope_short(beta.norm_inf, beta.norm1, start, q)
                rows.append(
                    {
                        "q": q,
                        "j": j,
                        "N": start,
                        "energy": abs(e_val),
                        "fourth_moment": fourth,
                        "envelope": env,
                        "ratio": abs(e_val) / env if env else 0.0,
                        "seed": args.seed,
                    }
                )
    _write_rows(rows, ["q", "j", "N", "energy", "fourth_moment", "envelope", "ratio", "seed"], args.out)
    return 0


def cmd_lattice(args) -> int:
    from .lattice import dichotomy_sweep

    rows = dichotomy_sweep(args.qmax, args.samples, seed=args.seed)
    for row in rows:
        row["seed"] = args.seed
    _write_rows(
        rows,
        ["sample", "q", "s", "h", "H", "count", "dense_ratio", "structured_ratio", "needed", "minkowski_ok", "seed"],
        args.out,
    )
    return 0


def cmd_bilinear(args) -> int:
    from .bilinear import weyl_sweep

    rows = weyl_sweep(
        q_values=args.qset,
        kinds=args.weights,
        instances=args.instances,
        seed=args.seed,
    )
    if args.M:
        rows = [r for r in rows if r["M"] == args.M]
    if args.N:
        rows = [r for r in rows if r["N"] == args.N]
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        row["master_seed"] = args.seed
        cells.setdefault((row["q"], row["kind"]), []).append(row)
    _write_rows(
        rows,
        ["q", "M", "N", "kind", "seed", "a", "h", "measured", "envelope1", "envelope2", "ratio1", "ratio2", "master_seed"],
        args.out,
    )
    for (q, kind), group in sorted(cells.items()):
        _summary(
            f"q={q} kind={kind} cells={len(group)} "
            f"max_ratio1={max(r['ratio1'] for r in group):.6g} "
            f"max_ratio2={max(r['ratio2'] for r in group):.6g}"
        )
    return 0


def cmd_forms(args) -> int:
    from .quadforms import (
        DUKE_LIMIT_FRACTION,
        class_number,
        class_number_tail_bound,
        form_moduli,
        heegner_fraction,
        l_value_direct,
        l_value_exact,
    )

    rows = [
        {
            "q": q,
            "h": class_number(q),
            "l_direct": l_value_direct(q, args.truncation),
            "l_exact": l_value_exact(q),
            "tail_bound": class_number_tail_bound(q, args.truncation),
            "heegner_fraction": heegner_fraction(q),
        }
        for q in form_moduli(args.qmin, args.count)
    ]
    _write_rows(rows, ["q", "h", "l_direct", "l_exact", "tail_bound", "heegner_fraction"], args.out)
    if rows:
        mean = sum(r["heegner_fraction"] for r in rows) / len(rows)
        _summary(
            f"mean heegner_fraction {mean:.5f} over {len(rows)} moduli, "
            f"target 27/(10 pi) = {DUKE_LIMIT_FRACTION:.5f}, "
            f"deviation {abs(mean - DUKE_LIMIT_FRACTION):.5f}"
        )
    return 0


def cmd_split(args) -> int:
    if args.action == "thm12":
        from .splitprimes import effective_sweep

        reports = effective_sweep(max(67, args.qmin), args.qmax)
        rows = [{**vars(r), "pass": r.passed} for r in reports]
        _write_rows(rows, ["q", "t", "omega", "bound", "pass"], args.out)
        if reports:
            worst = min(reports, key=lambda r: r.omega - r.bound)
            margin = worst.omega - worst.bound
            _summary(f"{len(reports)} moduli, min margin {margin:.3f} at q={worst.q}")
        return 0
    if args.action == "count":
        from .splitprimes import count_split, least_nonresidue, least_split_prime

        payload = {
            "q": args.q,
            "P": args.P,
            "split_count": count_split(args.P, args.q),
            "least_split_prime": least_split_prime(args.q),
            "least_nonresidue": least_nonresidue(args.q),
        }
        _write_json(payload, args.out)
        return 0
    # probe, report-only: the asymptotic lower bound has an ineffective constant
    from .splitprimes import asymptotic_probe_rows

    rows = asymptotic_probe_rows(max(args.qmin, 10**3), args.qmax)
    _write_rows(rows, ["q", "P", "split_count", "envelope", "ratio"], args.out)
    return 0


def cmd_discrepancy(args) -> int:
    from .equidist import delta_q, eos_coverage, gamma_q

    if args.action == "coverage":
        (q,) = args.qset
        report = eos_coverage(
            q, args.P or q, args.R or q, args.S or q
        )
        _write_json(
            {
                "q": report.q,
                "covered": report.covered,
                "fraction": report.fraction,
                "missing_count": len(report.missing),
                "threshold_ratio": report.threshold_ratio,
            },
            args.out,
        )
        return 0
    rows = []
    for q in args.qset:
        p_values = [args.P] if args.P else [int(round(q**e)) for e in args.p_exponents]
        for p_limit in p_values:
            reports = [("", gamma_q(p_limit, q))]
            if args.R:
                reports.append((args.R, delta_q(p_limit, args.R, q)))
            rows += [
                {
                    "q": q,
                    "P": p_limit,
                    "R": r,
                    "n_points": report.n_points,
                    "D": report.value,
                    "envelope": report.envelope,
                    "ratio": report.ratio,
                }
                for r, report in reports
            ]
    _write_rows(rows, ["q", "P", "R", "n_points", "D", "envelope", "ratio"], args.out)
    return 0


def cmd_verify(args) -> int:
    from . import acceptance, calibration

    if args.recalibrate:
        payload = calibration.recalibrate(args.out)
        print(f"recalibrated {len(payload['constants'])} constants")
        return 0
    results = acceptance.run_all(quick=args.quick)
    if args.out:
        _write_json(
            {r.name: {"passed": r.passed, "seconds": r.seconds, **r.detail} for r in results},
            args.out,
        )
    return 0 if all(r.passed for r in results) else EXIT_FAILURE


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsums",
        description="Exponential sums over prime fields: identities, envelopes and discrepancy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--out", help="output file (CSV for sweeps, JSON for single queries)")
        if seed:
            p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("sums", help="Gauss/Salie identity deviations per modulus")
    p.add_argument("--qmin", type=int, default=3)
    p.add_argument("--qmax", type=int, default=200)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("energy", help="additive energy and fourth moments over dyadic windows")
    p.add_argument("--qset", type=_qset, default="101")
    p.add_argument("--jcount", type=int, default=3)
    p.add_argument("--weights", default="indicator", choices=WEIGHT_CLASSES)
    add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("lattice", help="congruence dichotomy and Minkowski sweep")
    p.add_argument("--qmax", type=int, default=499)
    p.add_argument("--samples", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("bilinear", help="bilinear Weyl-sum envelope sweeps")
    p.add_argument("action", nargs="?", default="sweep", choices=["sweep"])
    p.add_argument("--qset", type=_qset, default="101,211,499")
    p.add_argument("--weights", type=_weight_classes, default="indicator,pm1,phase")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--M", type=int, default=0, help="restrict to one dyadic M")
    p.add_argument("--N", type=int, default=0, help="restrict to one dyadic N")
    add_common(p)
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("forms", help="class numbers, L(1,chi) both ways, window fractions")
    p.add_argument("--qmin", type=int, default=100003)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--truncation", type=int, default=10**6)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("split", help="split-prime counting and the effective construction")
    p.add_argument("action", nargs="?", default="thm12", choices=["thm12", "count", "probe"])
    p.add_argument("--q", type=_odd_prime, default=67)
    p.add_argument("--P", type=float, default=100.0)
    p.add_argument("--qmin", type=int, default=67)
    p.add_argument("--qmax", type=int, default=10**4)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("discrepancy", help="discrepancy of root sequences vs envelopes")
    p.add_argument("action", nargs="?", default="gamma", choices=["gamma", "coverage"])
    p.add_argument("--qset", type=_qset, default="503,1009")
    p.add_argument(
        "--p-exponents",
        default="0.7,0.85,1.0",
        type=lambda s: tuple(float(x) for x in s.split(",")),
        dest="p_exponents",
    )
    p.add_argument("--P", type=int, default=0, help="fixed prime cutoff (overrides exponents)")
    p.add_argument("--R", type=int, default=0)
    p.add_argument("--S", type=int, default=0, help="square cutoff for the coverage action")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--recalibrate", action="store_true")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "discrepancy" and args.action == "coverage" and len(args.qset) != 1:
        parser.error("discrepancy coverage takes one modulus in --qset")
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
