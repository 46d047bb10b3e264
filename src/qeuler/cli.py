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
from collections.abc import Callable, Iterable
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

# sequence -> the triangle whose q=1 values it lists, row by row from n=1
# (A008971 lists b[n,k](1) / 4^k)
OEIS_SEQUENCES = {"A101280": "a", "A008971": "b"}


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


@dataclasses.dataclass(frozen=True)
class Block:
    """One loop of a suite.  ``items(*index)`` gives the ``(name, ok[,
    detail])`` checks made at one index, in report order; the indices are
    ``(n,)`` for ``n = first..min(max_n, cap)``, or ``(q0, n)`` over the
    sample points and that range when ``by_point``."""

    first: int
    items: Callable[..., Iterable[tuple]]
    cap: int | None = None
    by_point: bool = False


@dataclasses.dataclass(frozen=True)
class Suite:
    """A suite's blocks, its default ``--max-n`` and the largest
    ``--max-n`` the CLI accepts for it."""

    default_max_n: int
    max_n_limit: int
    blocks: tuple[Block, ...]

    def indices(self, max_n: int | None, points) -> list[tuple[Block, tuple]]:
        """Every ``(block, index)`` the suite checks, in report order: the
        one place where ``--max-n`` and ``--points`` become work."""
        max_n = self.default_max_n if max_n is None else max_n
        out = []
        for b in self.blocks:
            ns = range(b.first, (max_n if b.cap is None else min(max_n, b.cap)) + 1)
            if b.by_point:
                out += [(b, (q0, n)) for q0 in points or DEFAULT_POINTS for n in ns]
            else:
                out += [(b, (n,)) for n in ns]
        return out


def _expansion_A(n):
    yield f"gamma_expand_A({n}) == carlitz_poly({n})", gamma_expand_A(n) == carlitz_poly(n)
    yield f"basis_change_A rows n={n}", all(
        basis_change_A(n, k) == carlitz_entry(n, k) for k in FAMILIES["A"].krange(n)
    )
    yield f"a[{n},k] nonnegative", all(
        is_nonneg(gamma_a_entry(n, k)) for k in FAMILIES["a"].krange(n)
    )


def _expansion_B(n):
    yield f"gamma_expand_B({n}) == typeB_poly({n})", gamma_expand_B(n) == typeB_poly(n)
    yield f"basis_change_B rows n={n}", all(
        basis_change_B(n, k) == typeB_entry(n, k) for k in FAMILIES["B"].krange(n)
    )
    yield f"b[{n},k] nonnegative", all(
        is_nonneg(gamma_b_entry(n, k)) for k in FAMILIES["b"].krange(n)
    )


def _tangent(n):
    t = special.q_tangent(n)
    yield f"T_{2*n+1} polynomial with nonneg coeffs", is_nonneg(t)
    yield f"T_{2*n+1} == a*[{2*n+1},{n+1}]", t == special.a_star(2 * n + 1, n + 1)


def _tangent_quotients(n):
    yield f"d_{n} in Z[q] with nonneg coeffs", is_nonneg(special.d_poly(n))
    recon = special.even_quotient(n) * TQPoly([QLaurent.one(), QLaurent.q_power(n)])
    yield f"A_{2*n}/(1+tq^{n}) reconstructs", recon == carlitz_poly(2 * n)


def _secant(n):
    yield f"B_{2*n+1}(-q^-{2*n+1}, q) == 0", special.b_odd_vanish(n)
    central = gamma_b_entry(2 * n, n)
    yield f"b_central({n}) == b[{2*n},{n}]", special.b_central(n) == central
    yield f"E*_{2*n} q^{n*n} == b[{2*n},{n}]", (
        QLaurent(special.e_star(n)).shift(n * n) == QLaurent(central)
    )
    g = special.g_star(n)
    e2n = special.secant_number(n)
    yield f"G*_{2*n}(1) == E_{2*n} == {e2n}", spec_q1(g) == e2n
    yield f"E_{2*n}(q) at q=1 == 4^{n} E_{2*n}", spec_q1(special.e_q_secant(n)) == 4**n * e2n


def _doubloon(n):
    gf = doubloon.interlaced_gf(n)
    yield (
        f"interlaced gf order {2*n+1} == a[{2*n+1},{n+1}]",
        gf == gamma_a_entry(2 * n + 1, n + 1),
        f"count={spec_q1(gf)}",
    )


def _monotone(q0, n):
    yield f"A strict growth n={n} q0={q0}", unimodality.monotone_check_A(n, q0)
    yield f"B strict growth n={n} q0={q0}", unimodality.monotone_check_B(n, q0)


# Each suite's default --max-n, its --max-n limit and its blocks, in report
# order.  The caps bound the checks whose cost explodes with n: the d_n and
# G* rational identities, and the (2n+1)! doubloon enumeration (order 9 at
# most), so the doubloon suite costs the same at any --max-n from 4 on.  At
# each limit a cold run takes about 10 s or less and at most 0.25 GB on a
# 2 vCPU VM: series 5.0 s, expansionA 6.4 s, expansionB 5.7 s, tangent
# 4.3 s / 232 MB, secant 2.8 s, monotone 3.2 s, brackets 5.9 s,
# reciprocity 2.0 s / 138 MB, doubloon 1.8 s.
SUITES = {
    "expansionA": Suite(14, 35, (Block(1, _expansion_A),)),
    "expansionB": Suite(14, 30, (Block(1, _expansion_B),)),
    "series": Suite(10, 30, (
        Block(1, lambda n: [(
            f"carlitz series oracle n={n}", carlitz_series_oracle(n) == carlitz_poly(n)
        )]),
        Block(0, lambda n: [(
            f"type-B series oracle n={n}", typeB_series_oracle(n) == typeB_poly(n)
        )]),
    )),
    "tangent": Suite(6, 40, (
        Block(0, _tangent),
        Block(1, _tangent_quotients),
        Block(1, lambda n: [(f"d_{n} rational identity", special.verify_d_identity(n))], cap=5),
    )),
    "secant": Suite(5, 30, (
        Block(0, _secant),
        Block(0, lambda n: [(f"G*_{2*n} rational identity", special.verify_gstar_identity(n))],
              cap=4),
    )),
    "doubloon": Suite(3, 60, (Block(1, _doubloon, cap=doubloon.DEFAULT_ORDER_LIMIT),)),
    "reciprocity": Suite(12, 60, (
        Block(1, lambda n: [(f"A row reversal n={n}", unimodality.reciprocity_A(n))]),
        Block(0, lambda n: [(f"B row reversal n={n}", unimodality.reciprocity_B(n))]),
    )),
    "monotone": Suite(10, 30, (Block(2, _monotone, by_point=True),)),
    "brackets": Suite(12, 40, (
        Block(1, lambda n: [(f"type-A bracket identity n={n}", all(
            eulerian.bracket_identity_A(n, k, s) for k in range(1, n + 1) for s in range(1, k + 1)
        ))]),
        Block(0, lambda n: [(f"type-B bracket identity n={n}", all(
            eulerian.bracket_identity_B(n, k, s) for k in range(0, n + 1) for s in range(0, k + 1)
        ))]),
    )),
}


@_timed
def run_suite(name: str, max_n: int | None = None, points=None) -> Report:
    """Run suite ``name`` up to ``max_n`` (default: the suite's own bound),
    sampling monotonicity at ``points`` (default :data:`DEFAULT_POINTS`)."""
    r = Report(name)
    for block, index in SUITES[name].indices(max_n, points):
        for item in block.items(*index):
            r.check(*item)
    return r


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
        try:
            _, value = line.split()
            values.append(int(value))
        except ValueError:
            raise ValueError(f"malformed b-file line: {line!r}") from None
    return values


def default_fixture_path(sequence: str) -> Path:
    return Path(str(resources.files("qeuler").joinpath("data", f"b{sequence[1:]}.txt")))


def refresh_fixture(sequence: str, dest: Path) -> None:
    """Fetch the live OEIS b-file over the network (never used by tests)."""
    import urllib.request  # only this command needs it; keeps `import qeuler.cli` cheap

    url = f"https://oeis.org/{sequence}/b{sequence[1:]}.txt"
    with urllib.request.urlopen(url) as resp:
        dest.write_bytes(resp.read())


def _oeis_family(sequence: str) -> str:
    if sequence not in OEIS_SEQUENCES:
        raise ValueError(f"unknown sequence {sequence}")
    return OEIS_SEQUENCES[sequence]


def oeis_term_count(sequence: str, max_n: int) -> int:
    """How many fixture terms rows 1..max_n cover, without building a row."""
    krange = FAMILIES[_oeis_family(sequence)].krange
    return sum(len(krange(n)) for n in range(1, max_n + 1))


def oeis_expected(sequence: str, max_n: int, report: Report) -> list[int]:
    """Reading-order q=1 values the fixture is compared against; for
    A008971 the type-b entries are divided by 4^k (divisibility checked)."""
    family = _oeis_family(sequence)
    tri = TRIANGLES[family](max_n)
    out = []
    for n in range(1, max_n + 1):
        for k, p in zip(tri.krange(n), tri.row(n)):
            v = spec_q1(p)
            if family == "b":
                quot, rem = divmod(v, 4**k)
                if rem:
                    report.check(f"4^{k} divides b[{n},{k}](1)", False, detail=f"value={v}")
                v = 0 if rem else quot
            out.append(v)
    return out


@_timed
def run_oeis_check(sequence: str, max_n: int, fixture_text: str, skip: int = 0) -> Report:
    r = Report(f"oeis-{sequence}")
    fixture = parse_bfile(fixture_text)[skip:]
    needed = oeis_term_count(sequence, max_n)
    if len(fixture) < needed:
        r.check(
            "fixture length", False, detail=f"needs {needed} terms, fixture has {len(fixture)}"
        )
        return r
    expected = oeis_expected(sequence, max_n, r)
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


# At 60 the slowest table (B as csv) takes about 4 s.  Rows are written as
# they are formatted, so memory is the cached rows plus one formatted row:
# table B as json peaks near 140 MB at 60.
TABLE_MAX_N = 60


def cmd_table(args, parser) -> int:
    if not 1 <= args.max_n <= TABLE_MAX_N:
        parser.error(f"--max-n must be in 1..{TABLE_MAX_N}")
    tri = TRIANGLES[args.family](args.max_n)
    value = spec_q1 if args.q1 else to_json if args.format == "json" else render
    out = sys.stdout
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["n", "k", "value"])
    elif args.format == "json":
        # the document's own bytes, its "rows" list filled in one row at a time
        head = {"family": args.family, "max_n": args.max_n, "q1": bool(args.q1), "rows": []}
        out.write(json.dumps(head, separators=(", ", ": "))[:-2])
    for n in range(tri.first_n, tri.max_n + 1):
        kr, values = tri.krange(n), map(value, tri.row(n))
        if args.format == "csv":
            w.writerows([n, k, v] for k, v in zip(kr, values))
        elif args.format == "json":
            row = {"n": n, "kmin": kr.start, "entries": list(values)}
            out.write((", " if n > tri.first_n else "") + json.dumps(row, separators=(", ", ": ")))
        elif args.q1:
            out.write(f"n={n}: {' '.join(map(str, values))}\n")
        else:
            out.writelines(f"{args.family}[{n},{k}] = {v}\n" for k, v in zip(kr, values))
    if args.format == "json":
        out.write("]}\n")
    return 0


POLY_BUILDERS = {
    # name -> (min n, max n, builder); the largest n builds rows to 100 or
    # 101, and the slowest of them, Gstar and Estar at 50, take about 8 s and
    # 0.86 GB.
    "A": (1, 100, carlitz_poly),
    "B": (0, 100, typeB_poly),
    "T": (0, 50, lambda n: special.q_tangent(n)),
    "dn": (1, 50, lambda n: special.d_poly(n)),
    "Estar": (0, 50, lambda n: special.e_star(n)),
    "Gstar": (0, 50, lambda n: special.g_star(n)),
    "Eq": (0, 50, lambda n: special.e_q_secant(n)),
    "central": (0, 50, lambda n: special.b_central(n)),
}


def cmd_poly(args, parser) -> int:
    min_n, max_n, builder = POLY_BUILDERS[args.name]
    if not min_n <= args.n <= max_n:
        parser.error(f"poly {args.name} requires --n in {min_n}..{max_n}")
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
    for name in names:
        suite = SUITES[name]
        if args.max_n is not None and args.max_n > suite.max_n_limit:
            parser.error(f"suite {name} takes --max-n up to {suite.max_n_limit}")
        if not suite.indices(args.max_n, args.points):
            parser.error(f"suite {name} makes no check at --max-n {args.max_n}")
    all_ok = True
    for name in names:
        report = run_suite(name, args.max_n, args.points)
        if args.format == "json":
            print(json.dumps(report.to_dict(), separators=(", ", ": ")))
        else:
            report.print_text()
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


# At 40 the scan takes about 5 s and 0.3 GB (rows of B to 80 stay cached);
# at 50 it takes 12 s and 0.86 GB.
CONJECTURE_MAX_N = 40


def cmd_conjecture(args, parser) -> int:
    if not 0 <= args.max_n <= CONJECTURE_MAX_N:
        parser.error(f"--max-n must be in 0..{CONJECTURE_MAX_N}")
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
    if not 1 <= args.max_n <= TABLE_MAX_N:
        parser.error(f"--max-n must be in 1..{TABLE_MAX_N}")
    if args.skip < 0:
        parser.error("--skip must be >= 0")
    path = Path(args.fixture) if args.fixture else default_fixture_path(args.sequence)
    if args.refresh:
        refresh_fixture(args.sequence, path)
    if not path.exists():
        parser.error(f"fixture file not found: {path}")
    try:
        text = path.read_text()
        parse_bfile(text)
    except (OSError, ValueError) as exc:
        parser.error(f"unreadable fixture {path}: {exc}")
    report = run_oeis_check(args.sequence, args.max_n, text, skip=args.skip)
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
        return tuple(unimodality._check_q0(Fraction(part)) for part in text.split(","))
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
