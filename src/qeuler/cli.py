"""qeuler command line: tables, polynomials, verification suites, the
positivity scan, and OEIS fixture cross-checks.

Exit codes: 0 all pass, 1 verification or conjecture failure, 2 usage error.
Data-mode output (table / poly) is deterministic and timestamp-free; verify
reports carry wall time in a separate field only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import doubloon, eulerian, special, unimodality
from .eulerian import (
    FAMILIES,
    TRIANGLES,
    basis_change_A,
    basis_change_B,
    carlitz_entry,
    carlitz_poly,
    carlitz_series_oracle,
    gamma_a_entry,
    gamma_b_entry,
    gamma_expand_A,
    gamma_expand_B,
    typeB_entry,
    typeB_poly,
    typeB_series_oracle,
)
from .qring import QLaurent, TQPoly, is_nonneg, spec_q1
from .serialize import csv_rows, render, to_json

DEFAULT_POINTS = (
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 3),
    Fraction(5),
    Fraction(1, 2),
    Fraction(2, 3),
)

OEIS_SEQUENCES = ("A101280", "A008971")

SUITE_DEFAULT_MAX_N = {
    "expansionA": 14,
    "expansionB": 14,
    "series": 10,
    "tangent": 6,
    "secant": 5,
    "doubloon": 3,
    "reciprocity": 12,
    "monotone": 10,
    "brackets": 12,
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ReportItem:
    name: str
    status: str  # "pass" | "fail" | "reported"
    detail: str = ""


@dataclasses.dataclass
class Report:
    suite: str
    items: list[ReportItem] = dataclasses.field(default_factory=list)
    wall_time_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append(ReportItem(name, "pass" if ok else "fail", detail))
        return ok

    def note(self, name: str, detail: str = "") -> None:
        self.items.append(ReportItem(name, "reported", detail))

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.items)

    def counters(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "reported": 0}
        for i in self.items:
            out[i.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": "pass" if self.ok else "fail",
            "counters": self.counters(),
            "items": [dataclasses.asdict(i) for i in self.items],
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def print_text(self, file=None) -> None:
        file = file or sys.stdout
        for i in self.items:
            line = f"[{i.status:4s}] {self.suite}: {i.name}"
            if i.detail:
                line += f"  ({i.detail})"
            print(line, file=file)
        c = self.counters()
        status = "PASS" if self.ok else "FAIL"
        print(
            f"suite {self.suite}: {status}"
            f"  pass={c['pass']} fail={c['fail']} reported={c['reported']}"
            f"  wall={self.wall_time_s:.3f}s",
            file=file,
        )


def _timed(fn):
    def wrapper(*args, **kwargs) -> Report:
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_time_s = time.perf_counter() - t0
        return report

    return wrapper


# ---------------------------------------------------------------------------
# Verification suites (one per declared invariant group)
# ---------------------------------------------------------------------------


@_timed
def suite_expansionA(max_n: int = 14, points=None) -> Report:
    r = Report("expansionA")
    for n in range(1, max_n + 1):
        r.check(f"gamma_expand_A({n}) == carlitz_poly({n})", gamma_expand_A(n) == carlitz_poly(n))
        r.check(
            f"basis_change_A rows n={n}",
            all(basis_change_A(n, k) == carlitz_entry(n, k) for k in FAMILIES["A"].krange(n)),
        )
        r.check(
            f"a[{n},k] nonnegative",
            all(is_nonneg(gamma_a_entry(n, k)) for k in FAMILIES["a"].krange(n)),
        )
    return r


@_timed
def suite_expansionB(max_n: int = 14, points=None) -> Report:
    r = Report("expansionB")
    for n in range(1, max_n + 1):
        r.check(f"gamma_expand_B({n}) == typeB_poly({n})", gamma_expand_B(n) == typeB_poly(n))
        r.check(
            f"basis_change_B rows n={n}",
            all(basis_change_B(n, k) == typeB_entry(n, k) for k in FAMILIES["B"].krange(n)),
        )
        r.check(
            f"b[{n},k] nonnegative",
            all(is_nonneg(gamma_b_entry(n, k)) for k in FAMILIES["b"].krange(n)),
        )
    return r


@_timed
def suite_series(max_n: int = 10, points=None) -> Report:
    r = Report("series")
    for n in range(1, max_n + 1):
        r.check(f"carlitz series oracle n={n}", carlitz_series_oracle(n) == carlitz_poly(n))
    for n in range(0, max_n + 1):
        r.check(f"type-B series oracle n={n}", typeB_series_oracle(n) == typeB_poly(n))
    return r


@_timed
def suite_tangent(max_n: int = 6, points=None) -> Report:
    r = Report("tangent")
    for n in range(0, max_n + 1):
        t = special.q_tangent(n)
        r.check(f"T_{2*n+1} polynomial with nonneg coeffs", is_nonneg(t))
        r.check(f"T_{2*n+1} == a*[{2*n+1},{n+1}]", t == special.a_star(2 * n + 1, n + 1))
    for n in range(1, max_n + 1):
        d = special.d_poly(n)
        r.check(f"d_{n} in Z[q] with nonneg coeffs", is_nonneg(d))
        quot = special.even_quotient(n)
        recon = quot * TQPoly([QLaurent.one(), QLaurent.q_power(n)])
        r.check(f"A_{2*n}/(1+tq^{n}) reconstructs", recon == carlitz_poly(2 * n))
    for n in range(1, min(max_n, 5) + 1):
        r.check(f"d_{n} rational identity", special.verify_d_identity(n))
    return r


@_timed
def suite_secant(max_n: int = 5, points=None) -> Report:
    r = Report("secant")
    for n in range(0, max_n + 1):
        r.check(f"B_{2*n+1}(-q^-{2*n+1}, q) == 0", special.b_odd_vanish(n))
        central = gamma_b_entry(2 * n, n)
        r.check(f"b_central({n}) == b[{2*n},{n}]", special.b_central(n) == central)
        estar = special.e_star(n)
        r.check(
            f"E*_{2*n} q^{n*n} == b[{2*n},{n}]",
            QLaurent(estar) * QLaurent.q_power(n * n) == QLaurent(central),
        )
        g = special.g_star(n)
        e2n = special.secant_number(n)
        r.check(f"G*_{2*n}(1) == E_{2*n} == {e2n}", spec_q1(g) == e2n)
        r.check(
            f"E_{2*n}(q) at q=1 == 4^{n} E_{2*n}",
            spec_q1(special.e_q_secant(n)) == 4**n * e2n,
        )
    for n in range(0, min(max_n, 4) + 1):
        r.check(f"G*_{2*n} rational identity", special.verify_gstar_identity(n))
    return r


@_timed
def suite_doubloon(max_n: int = 3, points=None) -> Report:
    r = Report("doubloon")
    for n in range(1, max_n + 1):
        gf = doubloon.interlaced_gf(n, limit=max_n)
        r.check(
            f"interlaced gf order {2*n+1} == a[{2*n+1},{n+1}]",
            gf == gamma_a_entry(2 * n + 1, n + 1),
            detail=f"count={spec_q1(gf)}",
        )
    return r


@_timed
def suite_reciprocity(max_n: int = 12, points=None) -> Report:
    r = Report("reciprocity")
    for n in range(1, max_n + 1):
        r.check(f"A row reversal n={n}", unimodality.reciprocity_A(n))
    for n in range(0, max_n + 1):
        r.check(f"B row reversal n={n}", unimodality.reciprocity_B(n))
    return r


@_timed
def suite_monotone(max_n: int = 10, points=None) -> Report:
    r = Report("monotone")
    pts = points or DEFAULT_POINTS
    for q0 in pts:
        for n in range(2, max_n + 1):
            r.check(f"A strict growth n={n} q0={q0}", unimodality.monotone_check_A(n, q0))
            r.check(f"B strict growth n={n} q0={q0}", unimodality.monotone_check_B(n, q0))
    return r


@_timed
def suite_brackets(max_n: int = 12, points=None) -> Report:
    r = Report("brackets")
    for n in range(1, max_n + 1):
        r.check(
            f"type-A bracket identity n={n}",
            all(
                eulerian.bracket_identity_A(n, k, s)
                for k in range(1, n + 1)
                for s in range(1, k + 1)
            ),
        )
    for n in range(0, max_n + 1):
        r.check(
            f"type-B bracket identity n={n}",
            all(
                eulerian.bracket_identity_B(n, k, s)
                for k in range(0, n + 1)
                for s in range(0, k + 1)
            ),
        )
    return r


SUITES = {
    "expansionA": suite_expansionA,
    "expansionB": suite_expansionB,
    "series": suite_series,
    "tangent": suite_tangent,
    "secant": suite_secant,
    "doubloon": suite_doubloon,
    "reciprocity": suite_reciprocity,
    "monotone": suite_monotone,
    "brackets": suite_brackets,
}


# ---------------------------------------------------------------------------
# OEIS fixture comparison
# ---------------------------------------------------------------------------


def parse_bfile(text: str) -> list[int]:
    """Standard two-column "index value" b-file; comments (#) and blank
    lines ignored, values taken in file order."""
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed b-file line: {line!r}")
        values.append(int(parts[1]))
    return values


def default_fixture_path(sequence: str) -> Path:
    return Path(str(resources.files("qeuler").joinpath("data", f"b{sequence[1:]}.txt")))


def refresh_fixture(sequence: str, dest: Path) -> None:
    """Fetch the live OEIS b-file over the network (never used by tests)."""
    import urllib.request  # only this command needs it; keeps `import qeuler.cli` cheap

    url = f"https://oeis.org/{sequence}/b{sequence[1:]}.txt"
    with urllib.request.urlopen(url) as resp:
        dest.write_bytes(resp.read())


def oeis_expected(sequence: str, max_n: int, report: Report) -> list[int]:
    """Reading-order q=1 values the fixture is compared against; for
    A008971 the type-b entries are divided by 4^k (divisibility checked)."""
    out = []
    if sequence == "A101280":
        for n in range(1, max_n + 1):
            for k in FAMILIES["a"].krange(n):
                out.append(spec_q1(gamma_a_entry(n, k)))
    elif sequence == "A008971":
        for n in range(1, max_n + 1):
            for k in FAMILIES["b"].krange(n):
                v = spec_q1(gamma_b_entry(n, k))
                quot, rem = divmod(v, 4**k)
                if rem:
                    report.check(f"4^{k} divides b[{n},{k}](1)", False, detail=f"value={v}")
                    quot = 0
                out.append(quot)
    else:
        raise ValueError(f"unknown sequence {sequence}")
    return out


@_timed
def run_oeis_check(sequence: str, max_n: int, fixture_text: str, skip: int = 0) -> Report:
    r = Report(f"oeis-{sequence}")
    expected = oeis_expected(sequence, max_n, r)
    fixture = parse_bfile(fixture_text)[skip:]
    if len(fixture) < len(expected):
        r.check(
            "fixture length",
            False,
            detail=f"needs {len(expected)} terms, fixture has {len(fixture)}",
        )
        return r
    mismatches = [
        (i, e, f) for i, (e, f) in enumerate(zip(expected, fixture)) if e != f
    ]
    r.check(
        f"{len(expected)} terms match",
        not mismatches,
        detail="; ".join(f"term {i}: computed {e} != fixture {f}" for i, e, f in mismatches[:5]),
    )
    return r


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_table(args, parser) -> int:
    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    tri = TRIANGLES[args.family](args.max_n)
    rows = []
    for n in range(tri.first_n, tri.max_n + 1):
        kr = tri.krange(n)
        entries = [tri.entry(n, k) for k in kr]
        rows.append((n, kr, entries))

    if args.format == "text":
        for n, kr, entries in rows:
            if args.q1:
                print(f"n={n}: " + " ".join(str(spec_q1(p)) for p in entries))
            else:
                for k, p in zip(kr, entries):
                    print(f"{args.family}[{n},{k}] = {render(p)}")
    elif args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["n", "k", "value"])
        for n, kr, entries in rows:
            for k, p in zip(kr, entries):
                w.writerow([n, k, spec_q1(p) if args.q1 else render(p)])
    else:
        doc = {
            "family": args.family,
            "max_n": args.max_n,
            "q1": bool(args.q1),
            "rows": [
                {
                    "n": n,
                    "kmin": kr.start,
                    "entries": [spec_q1(p) if args.q1 else to_json(p) for p in entries],
                }
                for n, kr, entries in rows
            ],
        }
        print(json.dumps(doc, separators=(", ", ": ")))
    return 0


POLY_BUILDERS = {
    # name -> (min n, builder)
    "A": (1, carlitz_poly),
    "B": (0, typeB_poly),
    "T": (0, lambda n: special.q_tangent(n)),
    "dn": (1, lambda n: special.d_poly(n)),
    "Estar": (0, lambda n: special.e_star(n)),
    "Gstar": (0, lambda n: special.g_star(n)),
    "Eq": (0, lambda n: special.e_q_secant(n)),
    "central": (0, lambda n: special.b_central(n)),
}


def cmd_poly(args, parser) -> int:
    min_n, builder = POLY_BUILDERS[args.name]
    if args.n < min_n:
        parser.error(f"poly {args.name} requires --n >= {min_n}")
    p = builder(args.n)
    if args.format == "text":
        print(render(p))
    elif args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        if isinstance(p, TQPoly):
            w.writerow(["tdeg", "exponent", "coefficient"])
        else:
            w.writerow(["exponent", "coefficient"])
        for row in csv_rows(p):
            w.writerow(row)
    else:
        print(json.dumps(to_json(p), separators=(", ", ": ")))
    return 0


def cmd_verify(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    points = args.points
    all_ok = True
    for name in names:
        max_n = args.max_n if args.max_n is not None else SUITE_DEFAULT_MAX_N[name]
        report = SUITES[name](max_n, points)
        if args.format == "json":
            print(json.dumps(report.to_dict(), separators=(", ", ": ")))
        else:
            report.print_text()
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def cmd_conjecture(args, parser) -> int:
    if args.max_n < 0:
        parser.error("--max-n must be >= 0")
    scan = special.conjecture_scan_gstar(args.max_n)
    if args.format == "json":
        doc = {
            "conjecture": "positivity of the G*_{2n}(q) coefficients",
            "verdict": scan.verdict,
            "rows": [dataclasses.asdict(r) for r in scan.rows],
        }
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        print("n  degree  min_coeff  value_at_1  secant  palindromic  verdict")
        for r in scan.rows:
            verdict = "consistent" if r.consistent else "COUNTEREXAMPLE"
            print(
                f"{r.n:<2d} {r.degree:<7d} {r.min_coeff:<10d} {r.value_at_one:<11d}"
                f" {r.secant:<7d} {str(r.palindromic).lower():<12s} {verdict}"
            )
        print(f"overall: {scan.verdict}")
    return 0 if scan.verdict == "consistent" else 1


def cmd_oeis_check(args, parser) -> int:
    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    path = Path(args.fixture) if args.fixture else default_fixture_path(args.sequence)
    if args.refresh:
        refresh_fixture(args.sequence, path)
    if not path.exists():
        parser.error(f"fixture file not found: {path}")
    report = run_oeis_check(args.sequence, args.max_n, path.read_text(), skip=args.skip)
    if args.format == "json":
        print(json.dumps(report.to_dict(), separators=(", ", ": ")))
    else:
        report.print_text()
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _points_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad points list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Eulerian polynomial triangles, expansions, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("table", help="print a coefficient triangle")
    p.add_argument("family", choices=("a", "b", "A", "B"))
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--q1", action="store_true", help="specialize entries at q=1")
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("poly", help="print one polynomial")
    p.add_argument("name", choices=tuple(POLY_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("all",) + tuple(SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--points", type=_points_arg, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="scan G*_{2n}(q) coefficient positivity")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("oeis-check", help="compare q=1 triangles against b-file fixtures")
    p.add_argument("sequence", choices=OEIS_SEQUENCES)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--fixture", default=None, help="b-file path (default: bundled snapshot)")
    p.add_argument("--skip", type=int, default=0, help="drop this many leading fixture terms")
    p.add_argument("--refresh", action="store_true", help="re-download the b-file first")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_oeis_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
