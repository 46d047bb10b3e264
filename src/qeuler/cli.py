"""qeuler command line: tables, polynomials, verification suites, the
positivity scan, and OEIS fixture cross-checks.

Exit codes: 0 all pass, 1 verification or conjecture failure, 2 usage error.
Data-mode output (table / poly) is deterministic and timestamp-free; verify
reports carry wall time in a separate field only.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice
from types import SimpleNamespace

from . import doubloon, eulerian, special, unimodality
from .eulerian import (
    FAMILIES,
    _central_entry,
    _gamma_a_row,
    _gamma_b_row,
    basis_change_A,
    basis_change_B,
    carlitz_entry,
    carlitz_poly,
    carlitz_series_oracle,
    gamma_expand_A,
    gamma_expand_B,
    iter_point_rows,
    iter_q1_rows,
    iter_rows,
    typeB_entry,
    typeB_poly,
    typeB_series_oracle,
)
from .qring import QLaurent, TQPoly, _mul_one_plus_t_q_power, is_nonneg, spec_q1
from .serialize import csv_rows, dumps, json_pieces, render, render_pieces

DEFAULT_POINTS = (
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 3),
    Fraction(5),
    Fraction(1, 2),
    Fraction(2, 3),
)

# sequence -> the triangle whose q=1 values it lists, row by row from n=1
# (A008971 lists btilde[n,k](1), which is b[n,k](1) / 4^k)
OEIS_SEQUENCES = {"A101280": "a", "A008971": "btilde"}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# status is "pass" or "fail"; counters() keeps a "reported" key at 0 because
# the verify JSON, and the digests over it, carry that key
ReportItem = namedtuple("ReportItem", "name status detail", defaults=("",))


class Report:
    """One suite's items in check order, and its wall time once run."""

    __slots__ = ("suite", "items", "wall_time_s")

    def __init__(self, suite: str):
        self.suite = suite
        self.items: list[ReportItem] = []
        self.wall_time_s = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append(ReportItem(name, "pass" if ok else "fail", detail))

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
            "items": [{"name": i.name, "status": i.status, "detail": i.detail}
                      for i in self.items],
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def write(self, fmt: str) -> None:
        """Print the report as one JSON line, or as text."""
        if fmt == "json":
            print(json.dumps(self.to_dict()))
            return
        for i in self.items:
            line = f"[{i.status:4s}] {self.suite}: {i.name}"
            if i.detail:
                line += f"  ({i.detail})"
            print(line)
        c = self.counters()
        status = "PASS" if self.ok else "FAIL"
        print(
            f"suite {self.suite}: {status}"
            f"  pass={c['pass']} fail={c['fail']} reported={c['reported']}"
            f"  wall={self.wall_time_s:.3f}s"
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


class Block(namedtuple("Block", "first checks cap by_point rows prepare",
                       defaults=(None, False, None, None))):
    """One loop of a suite.  ``checks`` are its checks in report order, each
    a function of one index that returns one ``(name, ok[, detail])`` item.
    The indices are ``(n,)`` for ``n = first..min(max_n, cap)``, or
    ``(q0, n)`` over the sample points and that range when ``by_point``.
    ``rows``, when given, is ``(families, rows_of)``: the checks at ``n`` also
    take, for each of the rows ``rows_of(n)``, consecutive and in order, that
    row of each of ``families`` in turn, as :func:`_stream` gives them: the
    q-rows, or the rows at ``q0`` when ``by_point``.  ``prepare``, when
    given, turns an index and its rows, once per index, into what the checks
    take after the index instead of the rows."""

    __slots__ = ()


class Suite(namedtuple("Suite", "default_max_n max_n_limit blocks central", defaults=((),))):
    """A suite's blocks, its default ``--max-n``, the largest ``--max-n``
    the CLI accepts for it, and the families whose central entries its
    checks read up to their largest ``n``."""

    __slots__ = ()

    def indices(self, max_n: int | None, points) -> list[tuple[Block, tuple]]:
        """Every ``(block, index)`` the suite checks, in report order: the
        one place where ``--max-n`` and ``--points`` become work."""
        max_n = self.default_max_n if max_n is None else max_n
        points = [unimodality._check_q0(q0) for q0 in points or DEFAULT_POINTS]
        out = []
        for b in self.blocks:
            ns = range(b.first, (max_n if b.cap is None else min(max_n, b.cap)) + 1)
            if b.by_point:
                out += [(b, (q0, n)) for q0 in points for n in ns]
            else:
                out += [(b, (n,)) for n in ns]
        return out


def _first_difference(got, want) -> str:
    """Where two unequal polynomials first differ, for a failure detail: the
    first ``q^i``, after the first ``t^d`` when they are :class:`TQPoly`."""
    where = ""
    if isinstance(want, TQPoly):
        d = next(d for d in count() if got.coeff(d) != want.coeff(d))
        got, want, where = got.coeff(d), want.coeff(d), f"t^{d} "
    got, want = QLaurent.coerce(got), QLaurent.coerce(want)
    i = (got - want).valuation()
    return (f"first difference at {where}q^{i}: "
            f"expected {want.base[i - want.offset]}, got {got.base[i - got.offset]}")


def _equal(name, got, want):
    """The item ``got == want``, whose detail on failure says where they
    differ, or gives both values when they are numbers."""
    if got == want:
        return name, True
    if isinstance(want, int):
        return name, False, f"expected {want}, got {got}"
    return name, False, _first_difference(got, want)


def _first_bad(name, bad, detail):
    """The item ``name`` of a claim whose first counterexample is ``bad``: a
    pass when there is none (``None``), else a fail whose detail is the
    template ``detail`` filled in from ``bad``, one value or a tuple."""
    if bad is None:
        return name, True
    return name, False, detail.format(*bad if isinstance(bad, tuple) else (bad,))


def _nonnegative_poly(name, p):
    """The item ``p`` has no negative coefficient."""
    return _first_bad(name, next(((i, c) for i, c in enumerate(p.coeffs) if c < 0), None),
                      "first negative coefficient at q^{}: {}")


def _confirmed(item, quotient, n):
    """``item``, after ``quotient(n)``, which may raise, when the item passes."""
    if item[1]:
        quotient(n)
    return item


def _nonnegative(family, row, n):
    """The item every entry of row ``n`` of ``family`` is nonnegative."""
    bad = next((k for k, p in zip(FAMILIES[family].krange(n), row(n)) if not is_nonneg(p)), None)
    return _first_bad(f"{family}[{n},k] nonnegative", bad, "first negative entry at k={}")


def _basis_change(family, change, entry, n):
    """The item ``change(n, k) == entry(n, k)`` for every ``k`` of row ``n``."""
    bad = next(((k, _first_difference(got, want)) for k in FAMILIES[family].krange(n)
                if (got := change(n, k)) != (want := entry(n, k))), None)
    return _first_bad(f"basis_change_{family} rows n={n}", bad, "k={}; {}")


def _brackets(kind, identity, first, n):
    """The item ``identity(n, k, s)`` for every ``first <= s <= k <= n``."""
    bad = next(((k, s) for k in range(first, n + 1) for s in range(first, k + 1)
                if not identity(n, k, s)), None)
    return _first_bad(f"type-{kind} bracket identity n={n}", bad, "first failing (k, s) = ({}, {})")


def _doubloon(n):
    gf = doubloon.interlaced_gf(n)
    want = _central_entry("a", n)
    detail = f"count={spec_q1(gf)}"
    if gf != want:
        detail += f"; {_first_difference(gf, want)}"
    return f"interlaced gf order {2*n+1} == a[{2*n+1},{n+1}]", gf == want, detail


# the detail of strict growth, for unimodality._first_fall's (k, a, b)
_FALL = "first bad k={0}: {2} does not exceed {1}"


def _reconstructs(n, row):
    """The item ``A_{2n} / (1 + t q^n)`` times ``1 + t q^n`` is ``A_{2n}``,
    for ``row`` row ``2n`` of ``A``."""
    poly = TQPoly(row)
    return _equal(f"A_{2*n}/(1+tq^{n}) reconstructs",
                  _mul_one_plus_t_q_power(special.even_quotient(n, poly), n), poly)


def _secant_rows(n, even, odd):
    """Rows ``2n`` and ``2n + 1`` of ``B`` as the secant checks at ``n``
    take them: each as ``B_m(t,q)``, made once, and ``b_central(n)`` from
    the first as a call that substitutes once, when a check first asks, and
    raises again for the next check if it raised."""
    even = TQPoly(even)
    return even, TQPoly(odd), functools.cache(lambda: special.b_central(n, even))


# Each suite's default --max-n, its --max-n limit and its blocks, in report
# order.  Every check is a function of its index, and of the rows its block
# streams, that makes one item, looking up the library functions it calls as
# it runs, and it finds its claim's first counterexample in one pass.  The
# doubloon cap bounds an enumeration whose leaves are the tangent numbers
# (order 9 at most), so the doubloon suite costs the same at any --max-n from
# 4 on.  The caps 5 and 4 on the d_n and G* rational identities are not for
# cost (compared cleared in Z[q], both take under 2 s for every n up to their
# suite's limit): raising them would change `verify` output and its digests,
# so it waits until a benchmark baseline is recorded and the digests can be
# re-recorded on purpose.  At each limit a cold run takes under 5 s and
# 40 MB on a 2 vCPU VM (Python 3.11): series 2.2 s, expansionA 4.4 s,
# expansionB 3.1 s, tangent 1.3 s / 38 MB, secant 0.9 s / 31 MB, monotone
# 0.04 s at the default points, brackets 0.08 s (each lemma is decided once,
# at import), reciprocity 0.6 s / 27 MB, doubloon 0.1 s.  No suite caches a
# row it reads once: tangent, secant and reciprocity stream theirs, monotone
# streams the rows at each point, computed in Z, and tangent, secant and
# doubloon read their central entries from the cone.
SUITES = {
    "expansionA": Suite(14, 35, (Block(1, (
        lambda n: _equal(f"gamma_expand_A({n}) == carlitz_poly({n})",
                         gamma_expand_A(n), carlitz_poly(n)),
        lambda n: _basis_change("A", basis_change_A, carlitz_entry, n),
        lambda n: _nonnegative("a", _gamma_a_row, n),
    )),)),
    "expansionB": Suite(14, 30, (Block(1, (
        lambda n: _equal(f"gamma_expand_B({n}) == typeB_poly({n})",
                         gamma_expand_B(n), typeB_poly(n)),
        lambda n: _basis_change("B", basis_change_B, typeB_entry, n),
        lambda n: _nonnegative("b", _gamma_b_row, n),
    )),)),
    "series": Suite(10, 30, (
        Block(1, (lambda n: _equal(f"carlitz series oracle n={n}",
                                   carlitz_series_oracle(n), carlitz_poly(n)),)),
        Block(0, (lambda n: _equal(f"type-B series oracle n={n}",
                                   typeB_series_oracle(n), typeB_poly(n)),)),
    )),
    "tangent": Suite(6, 40, (
        Block(0, (
            lambda n, _: _nonnegative_poly(f"T_{2*n+1} polynomial with nonneg coeffs",
                                           special.q_tangent(n)),
            lambda n, row: _equal(f"T_{2*n+1} == a*[{2*n+1},{n+1}]",
                                  special._signed_value(TQPoly(row), n, n * (n - 1) // 2,
                                                        n, f"T_{2*n+1}"),
                                  special.a_star(2 * n + 1, n + 1)),
        ), rows=(("A",), lambda n: (2 * n + 1,))),
        Block(1, (
            lambda n, _: _confirmed(_nonnegative_poly(f"d_{n} in Z[q] with nonneg coeffs",
                                                      special.d_poly(n)),
                                    special._check_d_quotient, n),
            _reconstructs,
        ), rows=(("A",), lambda n: (2 * n,))),
        Block(1, (lambda n: _confirmed(_equal(f"d_{n} rational identity", *special._d_identity(n)),
                                       special._check_d_quotient, n),),
              cap=5),
    ), central=("a", "abar")),
    "secant": Suite(5, 30, (
        Block(0, (
            lambda n, _, odd, __: (f"B_{2*n+1}(-q^-{2*n+1}, q) == 0",
                                   special.b_odd_vanish(n, odd)),
            lambda n, _, __, central: _equal(f"b_central({n}) == b[{2*n},{n}]",
                                             central(), _central_entry("b", n)),
            lambda n, _, __, central: _equal(f"E*_{2*n} q^{n*n} == b[{2*n},{n}]",
                                             special.e_star(n).shift(n * n), central()),
            lambda n, *_: _confirmed(
                _equal(f"G*_{2*n}(1) == E_{2*n} == {special.secant_number(n)}",
                       spec_q1(special.g_star(n)), special.secant_number(n)),
                special._check_gstar_quotient, n),
            lambda n, even, *_: _equal(f"E_{2*n}(q) at q=1 == 4^{n} E_{2*n}",
                                       spec_q1(special.e_q_secant(n, even)),
                                       4**n * special.secant_number(n)),
        ), rows=(("B",), lambda n: (2 * n, 2 * n + 1)), prepare=_secant_rows),
        Block(0, (lambda n: _confirmed(
            _equal(f"G*_{2*n} rational identity", *special._gstar_identity(n)),
            special._check_gstar_quotient, n),), cap=4),
    ), central=("b", "btilde")),
    "doubloon": Suite(3, 60, (Block(1, (_doubloon,), cap=doubloon.DEFAULT_ORDER_LIMIT),),
                      central=("a",)),
    "reciprocity": Suite(12, 60, (
        Block(1, (lambda n, row: _first_bad(f"A row reversal n={n}",
                                            unimodality._first_unreversed("A", n, row),
                                            "first bad k={}"),),
              rows=(("A",), lambda n: (n,))),
        Block(0, (lambda n, row: _first_bad(f"B row reversal n={n}",
                                            unimodality._first_unreversed("B", n, row),
                                            "first bad k={}"),),
              rows=(("B",), lambda n: (n,))),
    )),
    "monotone": Suite(10, 30, (Block(2, (
        lambda q0, n, A, _: _first_bad(f"A strict growth n={n} q0={q0}",
                                       unimodality._first_fall("A", n, q0, *A), _FALL),
        lambda q0, n, _, B: _first_bad(f"B strict growth n={n} q0={q0}",
                                       unimodality._first_fall("B", n, q0, *B), _FALL),
    ), by_point=True, rows=(("A", "B"), lambda n: (n,))),)),
    "brackets": Suite(12, 40, (
        Block(1, (lambda n: _brackets("A", eulerian.bracket_identity_A, 1, n),)),
        Block(0, (lambda n: _brackets("B", eulerian.bracket_identity_B, 0, n),)),
    )),
}


def _items(block, index, rows) -> list[tuple]:
    """The items of ``block``'s checks at ``index``, given ``rows``.  Each
    check is called on its own, so a check that raises ``ArithmeticError``
    (a broken library claim) is a failed item naming its index, and the
    checks after it still run."""
    if block.prepare is not None:
        rows = block.prepare(*index, *rows)
    out = []
    for check in block.checks:
        try:
            out.append(check(*index, *rows))
        except ArithmeticError as exc:
            where = (f"q0={index[0]}, " if block.by_point else "") + f"n={index[-1]}"
            out.append((f"{type(exc).__name__} at {where}", False, str(exc)))
    return out


def _stream(families: tuple[str, ...], q0, N: int):
    """``(m, rows)`` for ``m`` from the largest ``first_n`` of ``families``
    to ``N``, ``rows`` holding row ``m`` of each family in turn: the q-row,
    as :func:`iter_rows` streams it, or at a sample point ``q0`` the pair
    ``(D, row)`` of :func:`iter_point_rows`, the row's values at ``q0``
    times ``b^D``.  The families' streams are walked in step, each once."""
    start = max(FAMILIES[f].first_n for f in families)
    if q0 is None:
        streams = [iter_rows(f, N) for f in families]
    else:
        streams = [((m, (D, row)) for m, D, row in iter_point_rows(f, N, q0)) for f in families]
    for items in zip(*[islice(stream, start - FAMILIES[f].first_n, None)
                       for f, stream in zip(families, streams)]):
        yield items[0][0], tuple(row for _, row in items)


@_timed
def run_suite(name: str, max_n: int | None = None, points=None) -> Report:
    """Run suite ``name`` up to ``max_n`` (default: the suite's own bound),
    sampling monotonicity at ``points`` (default :data:`DEFAULT_POINTS`).

    The suite's central entries are filled first, by one cone stream per
    family, and the rows its blocks read are walked once per block family
    list, and per sample point in a ``by_point`` block, by one
    :func:`_stream`: an index's checks run when the stream reaches the last
    row they read, with at most as many rows held as one index reads.  The
    items are reported in the suite's order all the same."""
    indices = SUITES[name].indices(max_n, points)
    for family in SUITES[name].central if indices else ():
        _central_entry(family, max(index[-1] for _, index in indices))
    items = [None] * len(indices)
    # stream -> last row read -> (position, rows read) of each index that
    # reads it, and stream -> the most rows one index reads; a stream is
    # (families, q0), with q0 None for the q-rows
    streams: dict[tuple, dict[int, list[tuple]]] = {}
    span: dict[tuple, int] = {}
    for i, (block, index) in enumerate(indices):
        if block.rows is None:
            items[i] = _items(block, index, ())
            continue
        families, rows_of = block.rows
        key = (families, index[0] if block.by_point else None)
        ms = rows_of(index[-1])
        streams.setdefault(key, {}).setdefault(ms[-1], []).append((i, ms))
        span[key] = max(span.get(key, 1), len(ms))
    for key, ready in streams.items():
        held = {}
        for m, rows in _stream(*key, max(ready)):
            held[m] = rows
            for i, ms in ready.get(m, ()):
                block, index = indices[i]
                items[i] = _items(block, index, [row for k in ms for row in held[k]])
            # an index still to run reads no row below m + 2 - span
            held.pop(m + 1 - span[key], None)
    r = Report(name)
    for checked in items:
        for item in checked:
            r.check(*item)
    return r


# ---------------------------------------------------------------------------
# OEIS fixture comparison
# ---------------------------------------------------------------------------


def parse_bfile(text: str) -> list[int]:
    """Standard two-column "index value" b-file; comments (#) and blank
    lines ignored, values taken in file order.  An error names the line at
    fault by its number, its first 20 characters and its length, so it
    stays short however long the line is."""
    values = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _, value = line.split()
            values.append(int(value))
        except ValueError:
            shown = line if len(line) <= 20 else f"{line[:20]}... ({len(line)} characters)"
            raise ValueError(f"malformed b-file line {number}: {shown!r}") from None
    return values


def default_fixture_path(sequence: str):
    """The bundled b-file of ``sequence``, a :class:`pathlib.Path`.  Only
    ``oeis-check`` reads a fixture, so only it imports these modules."""
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("qeuler").joinpath("data", f"b{sequence[1:]}.txt")))


@_timed
def run_oeis_check(sequence: str, max_n: int, terms: list[int], skip: int = 0) -> Report:
    """Compare rows 1..max_n of the sequence's triangle at q=1, computed in
    Z with no q-row built, with the fixture's ``terms`` after the first
    ``skip``."""
    if sequence not in OEIS_SEQUENCES:
        raise ValueError(f"unknown sequence {sequence}")
    family = OEIS_SEQUENCES[sequence]
    r = Report(f"oeis-{sequence}")
    fixture = terms[skip:]
    needed = sum(len(FAMILIES[family].krange(n)) for n in range(1, max_n + 1))
    if len(fixture) < needed:
        r.check(
            "fixture length", False, detail=f"needs {needed} terms, fixture has {len(fixture)}"
        )
        return r
    computed = [v for _, row in iter_q1_rows(family, max_n) for v in row]
    mismatches = [f"term {i}: computed {v} != fixture {w}"
                  for i, (v, w) in enumerate(zip(computed, fixture)) if v != w]
    r.check(f"{needed} terms match", not mismatches, detail="; ".join(mismatches[:5]))
    return r


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# At 60 the slowest tables (B as text or json) take about 1.0-1.3 s cold on
# a 2 vCPU VM, A about 0.7 s, and any --q1 table about 0.1 s.  Rows are
# streamed, not cached, and written as they are formatted, so memory is two
# rows plus one formatted entry: every table peaks under 30 MB at 60.
TABLE_MAX_N = 60


def cmd_table(args, parser) -> int:
    if not 1 <= args.max_n <= TABLE_MAX_N:
        parser.error(f"--max-n must be in 1..{TABLE_MAX_N}")
    fam = FAMILIES[args.family]
    # at q = 1 the rows are integers, computed in Z without any q-row
    rows = (iter_q1_rows if args.q1 else iter_rows)(args.family, args.max_n)
    value = str if args.q1 else dumps if args.format == "json" else render
    out = sys.stdout
    # no CSV field needs quoting: they are ints and rendered polynomials
    if args.format == "csv":
        out.write("n,k,value\n")
    elif args.format == "json":
        # the document's own bytes, its "rows" list filled in one row at a time
        head = {"family": args.family, "max_n": args.max_n, "q1": bool(args.q1), "rows": []}
        out.write(json.dumps(head)[:-2])
    for n, row in rows:
        kr, values = fam.krange(n), map(value, row)
        if args.format == "csv":
            out.writelines(f"{n},{k},{v}\n" for k, v in zip(kr, values))
        elif args.format == "json":
            # the row's own bytes, its "entries" list filled in one entry at a time
            out.write((", " if n > fam.first_n else "")
                      + json.dumps({"n": n, "kmin": kr.start, "entries": []})[:-2])
            out.writelines((", " if k > kr.start else "") + v for k, v in zip(kr, values))
            out.write("]}")
        elif args.q1:
            out.write(f"n={n}: {' '.join(values)}\n")
        else:
            out.writelines(f"{args.family}[{n},{k}] = {v}\n" for k, v in zip(kr, values))
    if args.format == "json":
        out.write("]}\n")
    return 0


def _last_row_poly(family: str, n: int) -> TQPoly:
    """The generating polynomial of row ``n`` of ``family``, with the rows
    below it streamed, not cached."""
    for _, row in iter_rows(family, n):
        pass
    return TQPoly(row)


POLY_BUILDERS = {
    # name -> (min n, max n, builder); the largest n builds rows to 100 or
    # 101, and none is cached.  Cold on a 2 vCPU VM (Python 3.11): B at 100,
    # its rows streamed, about 2.6-3.3 s and 88 MB, and A 1.2-1.7 s and 47 MB,
    # in every format, as each t^d term is written when it is formatted;
    # at 50, Eq (B streamed to 100) 2.3-3.0 s and 88 MB, and from the
    # cone of their central entry Estar (b) 0.5 s and 30 MB, Gstar (btilde)
    # 0.45 s and 23 MB, T (a) 0.4 s and 22 MB, and dn (abar) 0.2 s and 19 MB.
    "A": (1, 100, lambda n: _last_row_poly("A", n)),
    "B": (0, 100, lambda n: _last_row_poly("B", n)),
    "T": (0, 50, lambda n: special.q_tangent(n)),
    "dn": (1, 50, lambda n: special.d_poly(n)),
    "Estar": (0, 50, lambda n: special.e_star(n)),
    "Gstar": (0, 50, lambda n: special.g_star(n)),
    "Eq": (0, 50, lambda n: special.e_q_secant(n, _last_row_poly("B", 2 * n))),
}


def cmd_poly(args, parser) -> int:
    min_n, max_n, builder = POLY_BUILDERS[args.name]
    if not min_n <= args.n <= max_n:
        parser.error(f"poly {args.name} requires --n in {min_n}..{max_n}")
    p = builder(args.n)
    if args.format == "csv":
        # fields are exponents and integers, none of which needs quoting
        print("tdeg,exponent,coefficient" if isinstance(p, TQPoly) else "exponent,coefficient")
        sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in csv_rows(p))
    else:
        # a bivariate value is written one t^d term at a time, not as one string
        sys.stdout.writelines((render_pieces if args.format == "text" else json_pieces)(p))
        sys.stdout.write("\n")
    return 0


def cmd_verify(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.points and not any(b.by_point for name in names for b in SUITES[name].blocks):
        parser.error(f"suite {args.suite} samples no point; --points applies to monotone")
    for name in names:
        suite = SUITES[name]
        if args.max_n is not None and args.max_n > suite.max_n_limit:
            parser.error(f"suite {name} takes --max-n up to {suite.max_n_limit}")
        if not suite.indices(args.max_n, args.points):
            parser.error(f"suite {name} makes no check at --max-n {args.max_n}")
    all_ok = True
    for name in names:
        report = run_suite(name, args.max_n, args.points)
        report.write(args.format)
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


# Cold on a 2 vCPU VM (Python 3.11), the scan takes about 0.22 s and 19 MB at
# 40, all of it one cone stream of btilde to row 80, and in process about
# 0.4 s and 21 MB at 50 and 0.8 s and 27 MB at 60.
CONJECTURE_MAX_N = 40


def cmd_conjecture(args, parser) -> int:
    if not 0 <= args.max_n <= CONJECTURE_MAX_N:
        parser.error(f"--max-n must be in 0..{CONJECTURE_MAX_N}")
    scan = special.conjecture_scan_gstar(args.max_n)
    if args.format == "json":
        doc = {
            "conjecture": "positivity of the G*_{2n}(q) coefficients",
            "verdict": scan.verdict,
            "rows": [r._asdict() for r in scan.rows],
        }
        print(json.dumps(doc))
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


# The largest fixture read, in bytes.  Rows 1..60 need 930 (A101280) and 960
# (A008971) terms of at most 77 and 82 digits, under 0.1 MB; a 10,000-term
# b-file of either sequence is a few MB.
MAX_FIXTURE_BYTES = 16 * 2**20


def cmd_oeis_check(args, parser) -> int:
    from pathlib import Path  # the one command that reads a file

    if not 1 <= args.max_n <= TABLE_MAX_N:
        parser.error(f"--max-n must be in 1..{TABLE_MAX_N}")
    if args.skip < 0:
        parser.error("--skip must be >= 0")
    path = Path(args.fixture) if args.fixture else default_fixture_path(args.sequence)
    if not path.exists():
        parser.error(f"fixture file not found: {path}")
    try:
        with path.open("rb") as f:
            data = f.read(MAX_FIXTURE_BYTES + 1)
        if len(data) > MAX_FIXTURE_BYTES:
            raise ValueError(f"larger than {MAX_FIXTURE_BYTES} bytes")
        terms = parse_bfile(data.decode())
    except (OSError, ValueError) as exc:
        parser.error(f"unreadable fixture {path}: {exc}")
    report = run_oeis_check(args.sequence, args.max_n, terms, skip=args.skip)
    report.write(args.format)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The most digits a --points numerator or denominator may have, in lowest
# terms.  Row n at a/b is computed as b^D_n times its values, integers of
# about D_n times the digits of a and b (D_n is the row's degree, 435 for A
# and 900 for B at 30): cold on a 2 vCPU VM (Python 3.11), `verify monotone
# --max-n 30` takes 0.4-0.9 s at the two 30-digit points (10^30-1)/(10^30-2)
# and its reciprocal, 1.0-1.4 s at 40 digits and 0.09 s at 10^10 and
# 10^-10.
MAX_POINT_DIGITS = 30

# The most digits all --points entries may have together, counted as above.
# Each point's rows are computed whole, so a point below 1 costs about what
# one above 1 of the same digits does: at this budget the slowest lists, two
# points of 60 digits each, such as (10^30-2)/(10^30-1) and (10^30-3)/(10^30-2)
# or the first and its reciprocal, take `verify monotone --max-n 30`
# 0.4-0.9 s cold, and forty points 1/2 take 0.04 s.
POINTS_DIGIT_BUDGET = 120


def _point(part: str) -> Fraction:
    """One ``--points`` entry: optional whitespace around an optional sign
    and ``a/b``, or a decimal ``a``, ``a.``, ``a.d`` or ``.d``, each letter
    standing for digits.  That is the grammar of ``Fraction(str)`` on
    Python 3.10, whose later versions also take ``_`` and spaces around
    ``/``; it is read here by hand and the value built as ``Fraction(int,
    int)``, so every Python takes the same entries.  Exponent forms get
    their own message, and no message repeats the entry, which may be
    long."""
    if "e" in part.lower():
        raise ValueError("exponent form; write it as digits or a/b")
    body = part.strip()
    negative = body.startswith("-")
    if body.startswith(("+", "-")):
        body = body[1:]
    num, slash, den = body.partition("/")
    if not slash:
        num, _, den = body.partition(".")
    if not (num.isdecimal() and den.isdecimal() if slash else (num + den).isdecimal()):
        raise ValueError("not an integer or a fraction a/b")
    try:
        # den is the denominator after a slash, else the decimal digits
        a, b = (int(num), int(den)) if slash else (int(num + den), 10 ** len(den))
    except ValueError:  # over int()'s limit of 4300 digits, so far over the cap
        a, b = None, 1
    if b == 0:
        raise ValueError("its denominator is 0")
    q0 = None if a is None else Fraction(-a if negative else a, b)
    if q0 is None or max(abs(q0.numerator), q0.denominator) >= 10**MAX_POINT_DIGITS:
        raise ValueError(f"a point may have at most {MAX_POINT_DIGITS} digits "
                         "in its numerator and denominator")
    return unimodality._check_q0(q0)


def _points_arg(text: str) -> tuple[Fraction, ...]:
    """The ``--points`` list.  An error names the entry at fault by its
    position and its first 20 characters, or gives the entry count and the
    digit total, so it stays short however long the list is."""
    points = []
    for i, part in enumerate(text.split(","), 1):
        try:
            points.append(_point(part))
        except ValueError as exc:
            shown = part if len(part) <= 20 else f"{part[:20]}... ({len(part)} characters)"
            raise ValueError(f"bad points list: entry {i}, {shown!r}: {exc}") from None
    digits = sum(len(str(abs(q0.numerator))) + len(str(q0.denominator)) for q0 in points)
    if digits > POINTS_DIGIT_BUDGET:
        raise ValueError(f"bad points list: {len(points)} entries with {digits} "
                         f"digits in all, more than {POINTS_DIGIT_BUDGET}")
    return tuple(points)


# One option: ``kind`` makes its value from its argv string (int, str, or
# _points_arg, whose ValueError carries its message), and bool marks a flag.
_Option = namedtuple("_Option", "kind default choices required help",
                     defaults=(None, (), False, ""))
_HELP = _Option(bool, help="show this help message and exit")
_MAX_N = _Option(int, 6)
_TEXT_CSV_JSON = _Option(str, "text", ("text", "csv", "json"))
_TEXT_JSON = _Option(str, "text", ("text", "json"))

# Each command's help line, handler, positional and its choices (None and ()
# for none), and options by flag, in usage order.  _TOP is qeuler itself,
# whose positional is the command.
_Command = namedtuple("_Command", "help func positional choices options")
COMMANDS = {
    "table": _Command("print a coefficient triangle", cmd_table, "family", ("a", "b", "A", "B"), {
        "--max-n": _MAX_N,
        "--q1": _Option(bool, False, help="specialize entries at q=1"),
        "--format": _TEXT_CSV_JSON,
    }),
    "poly": _Command("print one polynomial", cmd_poly, "name", tuple(POLY_BUILDERS), {
        "--n": _Option(int, required=True),
        "--format": _TEXT_CSV_JSON,
    }),
    "verify": _Command("run a verification suite", cmd_verify, "suite", ("all", *SUITES), {
        "--max-n": _Option(int),
        "--points": _Option(_points_arg),
        "--format": _TEXT_JSON,
    }),
    "conjecture": _Command("scan G*_{2n}(q) coefficient positivity", cmd_conjecture, None, (), {
        "--max-n": _MAX_N,
        "--format": _TEXT_JSON,
    }),
    "oeis-check": _Command("compare q=1 triangles against b-file fixtures", cmd_oeis_check,
                           "sequence", tuple(OEIS_SEQUENCES), {
        "--max-n": _MAX_N,
        "--fixture": _Option(str, help="b-file path (default: bundled snapshot)"),
        "--skip": _Option(int, 0, help="drop this many leading fixture terms"),
        "--format": _TEXT_JSON,
    }),
}
_TOP = _Command("Exact q-Eulerian polynomial triangles, expansions, and checks.", None,
                "command", tuple(COMMANDS), {})


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _braced(choices) -> str:
    return "{" + ",".join(choices) + "}"


class _Parser:
    """Reads argv against :data:`COMMANDS` in one left-to-right pass, and
    words its usage errors, as argparse did."""

    def format_help(self, name=None) -> str:
        """The ``-h`` text of command ``name`` (None: of qeuler), the same on
        every terminal; its first line is the usage an error prints."""
        spec = COMMANDS[name] if name else _TOP
        rows = [(flag if o.kind is bool else
                 f"{flag} {_braced(o.choices) if o.choices else _dest(flag).upper()}", o.help)
                for flag, o in spec.options.items()]
        words = [f"qeuler{' ' + name if name else ''} [-h]"]
        words += [left if o.required else f"[{left}]"
                  for (left, _), o in zip(rows, spec.options.values())]
        words += [_braced(spec.choices)] if spec.choices else []
        if not name:
            words.append("...")
            rows = [(command, c.help) for command, c in COMMANDS.items()]
        width = max(len(left) for left, _ in rows) + 2
        return "".join([f"usage: {' '.join(words)}\n\n{spec.help}\n\n",
                        *(f"  {left:{width}}{text}".rstrip() + "\n"
                          for left, text in [*rows, ("-h, --help", _HELP.help)])])

    def error(self, msg: str, name=None):
        """Print the usage of command ``name`` (None: of qeuler) and ``msg``
        to stderr, and exit 2."""
        usage = self.format_help(name).partition("\n")[0]
        sys.stderr.write(f"{usage}\nqeuler{' ' + name if name else ''}: error: {msg}\n")
        raise SystemExit(2)

    def _value(self, what: str, option: _Option, text: str, name):
        """The value of ``option``, given as ``what``, from its argv string."""
        try:
            value = option.kind(text)
        except ValueError as exc:
            why = f"invalid int value: {text!r}" if option.kind is int else exc
            self.error(f"argument {what}: {why}", name)
        if option.choices and value not in option.choices:
            self.error(f"argument {what}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, option.choices))})", name)
        return value

    def _match(self, flags, token: str, name):
        """``(flag, text after "=" or None)`` of an option among ``flags``,
        ``("", None)`` of an unknown one and ``(None, None)`` of a positional,
        a negative number or words."""
        if token[:1] != "-" or token in ("-", "--"):
            return None, None
        head, eq, value = token.partition("=")
        found = [head] if head in flags else [
            flag for flag in flags if head[:2] == "--" == flag[:2] and flag.startswith(head)]
        if len(found) > 1:
            self.error(f"ambiguous option: {token} could match {', '.join(found)}", name)
        if found:
            return found[0], value if eq else None
        whole, dot, fraction = token[1:].partition(".")
        number = (whole + fraction).isdecimal() and (fraction or not dot)
        return (None, None) if number or " " in token else ("", None)

    def parse_args(self, argv=None) -> SimpleNamespace:
        """``command``, ``func``, the command's positional and each of its
        options under its flag's name, from ``argv`` (default ``sys.argv[1:]``)."""
        tokens = iter(sys.argv[1:] if argv is None else argv)
        name, spec, ns = None, _TOP, SimpleNamespace()
        flags, unknown, dashdash = {"-h": _HELP, "--help": _HELP}, [], False
        for token in tokens:
            if token == "--" and name and not dashdash:
                dashdash = True
                continue
            flag, value = (None, None) if dashdash else self._match(flags, token, name)
            if flag is None and spec.positional and not hasattr(ns, spec.positional):
                value = self._value(spec.positional, _Option(str, choices=spec.choices), token,
                                    name)
                if name is None:
                    name, spec = value, COMMANDS[value]
                    flags.update(spec.options)
                    ns = SimpleNamespace(command=name, func=spec.func,
                                         **{_dest(f): o.default for f, o in spec.options.items()})
                else:
                    setattr(ns, spec.positional, value)
            elif not flag:
                unknown.append(token)
            elif flags[flag].kind is not bool:
                if value is None:
                    value = next(tokens, "--")
                    if value == "--" or self._match(flags, value, name)[0] is not None:
                        self.error(f"argument {flag}: expected one argument", name)
                setattr(ns, _dest(flag), self._value(flag, flags[flag], value, name))
            elif value is not None:
                shown = "-h/--help" if flags[flag] is _HELP else flag
                self.error(f"argument {shown}: ignored explicit argument {value!r}", name)
            elif flags[flag] is _HELP:
                sys.stdout.write(self.format_help(name))
                raise SystemExit(0)
            else:
                setattr(ns, _dest(flag), True)
        missing = [p for p in [spec.positional] if p and not hasattr(ns, p)]
        missing += [f for f, o in spec.options.items()
                    if o.required and getattr(ns, _dest(f)) is None]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}", name)
        if unknown:  # reported at the top level, as argparse did
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return ns


@functools.cache  # one parser per process, reused by every main() call
def build_parser() -> _Parser:
    return _Parser()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args, parser)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (`qeuler table B | head`): point it at
        # devnull, so that the interpreter's own flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
