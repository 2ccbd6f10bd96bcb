"""Command-line surface: reproducible experiments with CSV/JSON reports.

Every sweep is seeded and deterministic: identical flags and seed produce
byte-identical output files at a fixed BLAS thread count.  The ``sums`` CSV
is also byte-identical at 1 and at 2 BLAS threads, since no BLAS call
computes it.  The ``bilinear sweep`` contraction runs on one BLAS thread
whatever OPENBLAS_NUM_THREADS says, where numpy's bundled OpenBLAS is found
(``bilinear.weyl_group_sums``), and gives the bits of a 2-thread run.
Rows are emitted in sorted key order with a fixed column set, '.' decimals
and no locale dependence.  ``bilinear sweep`` writes each (q, M, N) group's
rows as the group is computed, once every modulus has passed its size guard,
so a refused --qset leaves no partial file.  ``sums``, ``bilinear sweep``,
``split thm12``, ``forms`` and ``discrepancy`` also print a short summary of
their rows (worst ratios, least margin, mean window fraction) to stderr, so
stdout and the --out file hold the rows alone.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 refused by a size guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Iterable

from .errors import SizeGuardError
from .weights import WEIGHT_CLASSES, dyadic_starts

EXIT_FAILURE = 1
EXIT_REFUSED = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


def _write_rows(rows: Iterable[dict], columns: list[str], out: str | None) -> None:
    """Write ``rows``, any iterable read once, as they arrive; count them for the --out line."""
    handle = open(out, "w", newline="") if out else sys.stdout
    count = 0
    try:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for count, row in enumerate(rows, 1):
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
    finally:
        if out:
            handle.close()
            print(f"wrote {count} rows to {out}")


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
    qs = tuple(_odd_prime(part) for part in text.split(","))
    for i, q in enumerate(qs):
        if q in qs[:i]:
            raise argparse.ArgumentTypeError(f"modulus {q} is repeated")
    return qs


def _int_from(low: int):
    """The argparse type of an int >= low: 0 for cutoffs and seeds, 1 for counts."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)

    parse.__name__ = "int"  # so that a non-integer reads "invalid int value"
    return parse


def _non_negative(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not finite and non-negative")
    return value


_non_negative.__name__ = "float"  # so that a non-number reads "invalid float value"


def _exponents(text: str) -> tuple[float, ...]:
    return tuple(_non_negative(part) for part in text.split(","))


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
    from .expsums import IDENTITY_BUDGET, check_all_pairs, gauss_all, incomplete_sqrt_max, salie_all
    from .primes import primes_between

    moduli = primes_between(max(3, args.qmin), args.qmax).tolist()
    if moduli:
        check_all_pairs(moduli[-1])  # refuse before the first row, not at the first modulus too large
    rows = []
    for q in moduli:
        max_salie_err, _ = salie_all(q)
        max_gauss_err, max_gauss_modulus_err = gauss_all(q)
        inc = incomplete_sqrt_max(1, 1, q)
        rows.append(
            {
                "q": q,
                "max_salie_err": max_salie_err,
                "max_gauss_err": max_gauss_err,
                "max_gauss_modulus_err": max_gauss_modulus_err,
                "incomplete_max": inc,
                "incomplete_ratio": inc / (math.sqrt(q) * math.log(q)),
            }
        )
    errors = ["max_salie_err", "max_gauss_err", "max_gauss_modulus_err"]
    _write_rows(rows, ["q", *errors, "incomplete_max", "incomplete_ratio"], args.out)
    if rows:
        worst, q, column = max((r[c] / math.sqrt(r["q"]), r["q"], c) for r in rows for c in errors)
        _summary(
            f"{len(rows)} moduli, worst {column}/sqrt(q) {worst:.3e} at q={q}, "
            f"margin {IDENTITY_BUDGET - worst:.6e} to the identity budget {IDENTITY_BUDGET:.0e}"
        )
    return 0


def cmd_energy(args) -> int:
    import numpy as np

    from .weights import (
        WeightVector,
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
        only_m=args.M,
        only_n=args.N,
    )
    # (q, kind) -> [cells, worst row by ratio1, worst row by ratio2]; a tie keeps the first row
    worst: dict[tuple, list] = {}

    def tally(rows):
        for row in rows:
            row["master_seed"] = args.seed
            entry = worst.setdefault((row["q"], row["kind"]), [0, row, row])
            entry[0] += 1
            if row["ratio1"] > entry[1]["ratio1"]:
                entry[1] = row
            if row["ratio2"] > entry[2]["ratio2"]:
                entry[2] = row
            yield row

    _write_rows(
        tally(rows),
        ["q", "M", "N", "kind", "seed", "a", "h", "measured", "envelope1", "envelope2", "ratio1", "ratio2", "master_seed"],
        args.out,
    )
    for (q, kind), (cells, worst1, worst2) in sorted(worst.items()):
        _summary(
            f"q={q} kind={kind} cells={cells} "
            f"max_ratio1={worst1['ratio1']:.6g} max_ratio2={worst2['ratio2']:.6g} "
            f"worst1={worst1['M']},{worst1['N']},{worst1['seed']} "
            f"worst2={worst2['M']},{worst2['N']},{worst2['seed']}"
        )
    return 0


def cmd_forms(args) -> int:
    from .quadforms import (
        DUKE_LIMIT_FRACTION,
        class_number,
        class_number_series,
        class_number_tail_bound,
        form_moduli,
        heegner_fraction,
        l_value_exact,
        l_values,
    )

    moduli = form_moduli(args.qmin, args.count)
    rows = []
    for q, l_direct in zip(moduli, l_values(moduli, args.truncation)):
        h_series, series_bound = class_number_series(q)
        rows.append(
            {
                "q": q,
                "h": class_number(q),
                "l_direct": l_direct,
                "l_exact": l_value_exact(q),
                "tail_bound": class_number_tail_bound(q, args.truncation),
                "heegner_fraction": heegner_fraction(q),
                "h_series": h_series,
                "series_bound": series_bound,
            }
        )
    columns = ["q", "h", "l_direct", "l_exact", "tail_bound", "heegner_fraction", "h_series", "series_bound"]
    _write_rows(rows, columns, args.out)
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
        from .modular import least_nonresidue
        from .splitprimes import count_split, least_split_prime

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
    from .equidist import delta_q, eos_coverage, gamma_q, residue_counts

    if args.action == "coverage":
        (q,) = args.qset
        report = vars(eos_coverage(q, args.P or q, args.R or q, args.S or q)).copy()
        report["missing_count"] = len(report.pop("missing"))
        _write_json(report, args.out)
        return 0
    # exponents that round to one cutoff give one row (a row names no exponent)
    cutoffs = {q: [args.P] if args.P else list(dict.fromkeys(int(round(q**e)) for e in args.p_exponents))
               for q in args.qset}
    readers: dict[int, list[int]] = {}  # cutoff -> the moduli whose histograms one walk of it fills
    for q, limits in cutoffs.items():
        for limit in sorted({*limits, args.R} - {0}):  # R = 0: no product rows
            readers.setdefault(limit, []).append(q)
    hists = {(limit, q): h for limit, qs in readers.items() for q, h in zip(qs, residue_counts(limit, qs))}
    rows = []
    for q, limits in cutoffs.items():
        for p_limit in limits:
            reports = [("", gamma_q(hists[p_limit, q], p_limit))]
            if args.R:
                reports.append((args.R, delta_q(hists[p_limit, q], hists[args.R, q], p_limit, args.R)))
            rows += [
                {"q": q, "P": p_limit, "R": r, "n_points": report.n_points, "D": report.value,
                 "envelope": report.envelope, "ratio": report.ratio}
                for r, report in reports
            ]
    _write_rows(rows, ["q", "P", "R", "n_points", "D", "envelope", "ratio"], args.out)
    worst = max(rows, key=lambda r: r["ratio"])
    _summary(f"rows={len(rows)} max_ratio={worst['ratio']:.6g} worst={worst['q']},{worst['P']},{worst['R']}")
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

    def add_common(p, seed=True, seed_help=None):
        p.add_argument("--out", help="output file (CSV for sweeps, JSON for single queries)")
        if seed:
            p.add_argument("--seed", type=_int_from(0), default=42, help=seed_help)

    p = sub.add_parser("sums", help="Gauss/Salie identity deviations per modulus")
    p.add_argument("--qmin", type=int, default=3)
    p.add_argument("--qmax", type=int, default=200)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("energy", help="additive energy and fourth moments over dyadic windows")
    p.add_argument("--qset", type=_qset, default="101")
    p.add_argument("--jcount", type=_int_from(1), default=3)
    p.add_argument("--weights", default="indicator", choices=WEIGHT_CLASSES)
    add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("lattice", help="congruence dichotomy and Minkowski sweep")
    p.add_argument("--qmax", type=int, default=499)
    p.add_argument("--samples", type=_int_from(1), default=1000)
    add_common(p, seed_help="sampling seed (the calibrated dichotomy_sweep uses 11)")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("bilinear", help="bilinear Weyl-sum envelope sweeps")
    p.add_argument("action", nargs="?", default="sweep", choices=["sweep"])
    p.add_argument("--qset", type=_qset, default="101,211,499",
                   help="moduli (the calibrated weyl_sweep uses 101,211,499,1009,1999)")
    p.add_argument("--weights", type=_weight_classes, default="indicator,pm1,phase")
    p.add_argument("--instances", type=_int_from(1), default=20)
    p.add_argument("--M", type=int, help="restrict to one dyadic M")
    p.add_argument("--N", type=int, help="restrict to one dyadic N")
    add_common(p)
    p.set_defaults(func=cmd_bilinear)

    p = sub.add_parser("forms", help="class numbers, certified series h, L(1,chi) both ways, window fractions")
    p.add_argument("--qmin", type=int, default=100003)
    p.add_argument("--count", type=_int_from(1), default=50)
    p.add_argument("--truncation", type=_int_from(1), default=10**6)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("split", help="split-prime counting and the effective construction")
    p.add_argument("action", nargs="?", default="thm12", choices=["thm12", "count", "probe"])
    p.add_argument("--q", type=_odd_prime, default=67)
    p.add_argument("--P", type=_non_negative, default=100.0, help="prime cutoff of the count action")
    p.add_argument("--qmin", type=int, default=67)
    p.add_argument("--qmax", type=int, default=10**4,
                   help="largest modulus (the calibrated asymptotic_probe_rows uses 100000)")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("discrepancy", help="discrepancy of root sequences vs envelopes")
    p.add_argument("action", nargs="?", default="gamma", choices=["gamma", "coverage"])
    p.add_argument("--qset", type=_qset, default="503,1009",
                   help="moduli (the calibrated gamma_sweep uses 503,1009,2003,5003)")
    p.add_argument("--p-exponents", default="0.7,0.85,1.0", type=_exponents, dest="p_exponents")
    p.add_argument("--P", type=_int_from(0), default=0, help="fixed prime cutoff (overrides exponents)")
    p.add_argument("--R", type=_int_from(0), default=0)
    p.add_argument("--S", type=_int_from(0), default=0, help="square cutoff for the coverage action")
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
    if args.command == "lattice" and args.qmax < 11:
        parser.error(f"lattice draws primes from [11, --qmax], and --qmax {args.qmax} < 11")
    if args.command == "bilinear":
        for flag, start in (("--M", args.M), ("--N", args.N)):
            if start is not None and not any(start in dyadic_starts(q) for q in args.qset):
                parser.error(f"{flag} {start} is not a dyadic start of any modulus in --qset")
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
