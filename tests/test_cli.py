import contextlib
import csv
import functools
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qeuler import cli, doubloon, eulerian, special, unimodality
from qeuler.cli import (
    CONJECTURE_MAX_N,
    DEFAULT_POINTS,
    MAX_POINT_DIGITS,
    POINTS_DIGIT_BUDGET,
    SUITES,
    main,
    parse_bfile,
    run_oeis_check,
    run_suite,
)
from qeuler.eulerian import FAMILIES, carlitz_poly, classical_gamma_a, classical_gamma_b, iter_rows
from qeuler.qring import QLaurent, QPoly, TQPoly, spec_q1
from qeuler.serialize import csv_rows, from_json, render, to_json

# a child process imports qeuler from this checkout's src/, whether or not
# PYTHONPATH names it: pytest puts src/ on its own path only
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))}


def run_cli(*args, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "qeuler", *args],
        capture_output=True,
        text=not binary,
        env=CHILD_ENV,
    )


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------


def test_table_a_q1_matches_published_block():
    proc = run_cli("table", "a", "--max-n", "6", "--q1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "n=1: 1",
        "n=2: 1",
        "n=3: 1 2",
        "n=4: 1 8",
        "n=5: 1 22 16",
        "n=6: 1 52 136",
    ]


def test_table_b_q1_has_corrected_entry():
    proc = run_cli("table", "b", "--max-n", "6", "--q1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "n=6: 1 716 7664 3904"


def test_table_single_row():
    proc = run_cli("table", "A", "--max-n", "1")
    assert proc.returncode == 0
    assert proc.stdout == "A[1,1] = 1\n"


def test_table_polynomials_text():
    proc = run_cli("table", "a", "--max-n", "3")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "a[3,2] = q + q^2"


def test_table_csv():
    proc = run_cli("table", "b", "--max-n", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "n,k,value",
        "1,0,1",
        "2,0,1",
        "2,1,q + 2q^2 + q^3",
    ]


def _csv_reference(header, rows):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("q1", [False, True])
@pytest.mark.parametrize("family", ["A", "a", "B", "b"])
def test_table_csv_matches_csv_writer(capsys, family, q1):
    krange = FAMILIES[family].krange
    value = spec_q1 if q1 else render
    want = _csv_reference(["n", "k", "value"], [
        [n, k, value(p)] for n, row in iter_rows(family, 9) for k, p in zip(krange(n), row)
    ])
    assert main(["table", family, "--max-n", "9", "--format", "csv"] + ["--q1"] * q1) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name, n", [("A", 6), ("B", 5), ("T", 3), ("Gstar", 3)])
def test_poly_csv_matches_csv_writer(capsys, name, n):
    p = cli.POLY_BUILDERS[name][2](n)
    header = ["tdeg", "exponent", "coefficient"] if isinstance(p, TQPoly) else [
        "exponent", "coefficient"]
    assert main(["poly", name, "--n", str(n), "--format", "csv"]) == 0
    assert capsys.readouterr().out == _csv_reference(header, csv_rows(p))


def test_table_json_roundtrips():
    proc = run_cli("table", "B", "--max-n", "3", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["family"] == "B"
    from qeuler.eulerian import typeB_entry

    for row in doc["rows"]:
        n, kmin = row["n"], row["kmin"]
        for i, entry in enumerate(row["entries"]):
            assert from_json(entry) == typeB_entry(n, kmin + i)


ROW_CACHES = ("_carlitz_row", "_gamma_a_row", "_typeB_row", "_gamma_b_row")
# the families `table` prints; abar and btilde are not among them
TABLES = sorted("AaBb")


def _clear_row_caches():
    for name in ROW_CACHES:
        getattr(eulerian, name).cache_clear()


def _cached_rows():
    return [getattr(eulerian, name).cache_info().currsize for name in ROW_CACHES]


def _bfile(terms):
    return "".join(f"{i} {v}\n" for i, v in enumerate(terms, 1))


def _cold_central(monkeypatch):
    """Empty the central-entry cache for one test; the old one is restored
    after it."""
    for family in eulerian._CENTRAL:
        monkeypatch.setitem(eulerian._CENTRAL, family, ())


@pytest.mark.parametrize("args", [
    *(["table", family, "--max-n", "12", *opts] for family in "AaBb"
      for opts in (["--format", "text"], ["--format", "csv"], ["--format", "json"], ["--q1"])),
    *(["poly", name, "--n", "12", "--format", fmt] for name in "AB" for fmt in ("text", "json")),
    # the central entries come from their cone, the verify rows from streams
    *(["poly", name, "--n", "12"] for name in ("T", "dn", "Estar", "Gstar", "Eq")),
    ["conjecture", "--max-n", "12"],
    *(["verify", suite, "--max-n", "9"]
      for suite in ("tangent", "secant", "reciprocity", "doubloon", "brackets")),
], ids=" ".join)
def test_streaming_commands_leave_the_row_caches_empty(monkeypatch, capsys, args):
    _cold_central(monkeypatch)
    _clear_row_caches()
    assert main(args) == 0
    assert capsys.readouterr().out
    assert _cached_rows() == [0, 0, 0, 0]


# each command's rows by family, every one built by one step from the row
# below it; a family's first step builds the row above its seed
ROWS_BUILT = [
    # T_{2n+1} from a, d_n from abar, A_{2n+1} and A_{2n} for n <= 9
    (["verify", "tangent", "--max-n", "9"],
     {"A": range(2, 20), "a": range(2, 20), "abar": range(2, 20)}),
    (["verify", "secant", "--max-n", "9"],
     {"B": range(1, 20), "b": range(1, 19), "btilde": range(1, 19)}),
    (["verify", "reciprocity", "--max-n", "9"], {"A": range(2, 10), "B": range(1, 10)}),
    (["verify", "doubloon", "--max-n", "9"], {"a": range(2, 10)}),
    (["conjecture", "--max-n", "9"], {"btilde": range(1, 19)}),
    (["poly", "Eq", "--n", "9"], {"B": range(1, 19)}),
]


@pytest.mark.parametrize("args, rows", ROWS_BUILT, ids=[" ".join(a) for a, _ in ROWS_BUILT])
def test_cone_and_stream_commands_build_each_row_once(monkeypatch, capsys, args, rows):
    # a cone row and a full row of one family both count as that row; abar
    # and btilde share alpha with a and b, but no family shares its beta
    family_of = {fam.beta: name for name, fam in FAMILIES.items()}
    steps = Counter()
    next_row = eulerian._next_row

    def counted(fam, n, prev):
        steps[family_of[fam.beta], n] += 1
        return next_row(fam, n, prev)

    monkeypatch.setattr(eulerian, "_next_row", counted)
    _cold_central(monkeypatch)
    _clear_row_caches()
    assert main(args) == 0
    assert capsys.readouterr().out
    assert steps == Counter({(family, n): 1 for family, ns in rows.items() for n in ns})


def _quiet(args):
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(args) == 0


@pytest.mark.parametrize("args, bound_mb", [
    # the cached rows of b to 60 peaked at 35.8 MB; the cone peaks at 1.8 MB
    (["conjecture", "--max-n", "30"], 5),
    # the cached rows of A and B to 40 peaked at 19.1 MB; the streams at 2.7 MB
    (["verify", "reciprocity", "--max-n", "40"], 6),
], ids=["conjecture 30", "reciprocity 40"])
def test_cone_and_stream_commands_hold_no_triangle(monkeypatch, args, bound_mb):
    _cold_central(monkeypatch)
    _clear_row_caches()
    assert _traced_peak(lambda: _quiet(args)) < bound_mb * 10**6


@pytest.mark.parametrize("sequence", sorted(cli.OEIS_SEQUENCES))
def test_oeis_check_leaves_the_row_caches_empty(capsys, tmp_path, sequence):
    # a fixture past the bundled snapshots, from the integer triangles
    if sequence == "A101280":
        terms = [v for row in classical_gamma_a(20) for v in row]
    else:
        terms = [v // 4**k for row in classical_gamma_b(20) for k, v in enumerate(row)]
    path = tmp_path / "fixture.txt"
    path.write_text(_bfile(terms))
    _clear_row_caches()
    assert main(["oeis-check", sequence, "--max-n", "20", "--fixture", str(path)]) == 0
    assert f"{len(terms)} terms match" in capsys.readouterr().out
    assert _cached_rows() == [0, 0, 0, 0]


@pytest.mark.parametrize("q1", [False, True])
@pytest.mark.parametrize("family", TABLES)
def test_table_json_is_the_whole_document(capsys, family, q1):
    # rows and entries are written one at a time, with the bytes of one dump
    value = spec_q1 if q1 else to_json
    krange = FAMILIES[family].krange
    for N in range(1, 9):
        doc = {"family": family, "max_n": N, "q1": q1, "rows": [
            {"n": n, "kmin": krange(n).start, "entries": [value(p) for p in row]}
            for n, row in iter_rows(family, N)
        ]}
        assert main(["table", family, "--max-n", str(N), "--format", "json"]
                    + ["--q1"] * q1) == 0
        assert capsys.readouterr().out == json.dumps(doc) + "\n"


@functools.lru_cache(maxsize=None)
def _q1_by_q_rows(family):
    """Every q-row of ``family`` to 60, taken at q = 1."""
    return tuple((n, [spec_q1(p) for p in row]) for n, row in iter_rows(family, 60))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("family", TABLES)
def test_table_q1_builds_no_q_row(monkeypatch, capsys, family, fmt):
    # the integers of `table --q1` come from the recurrence at q = 1, never
    # from a q-row; the bytes are those of the q-rows taken at q = 1
    q_rows = _q1_by_q_rows(family)

    def q_row_route(fam, N):
        assert fam == family
        return (item for item in q_rows if item[0] <= N)

    def no_q_row(*args):
        raise AssertionError("table --q1 built a q-row")

    for N in (1, 2, 17, 60):
        argv = ["table", family, "--max-n", str(N), "--format", fmt, "--q1"]
        with monkeypatch.context() as m:
            m.setattr(cli, "iter_q1_rows", q_row_route)
            assert main(argv) == 0
        want = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(eulerian, "_next_row", no_q_row)
            assert main(argv) == 0
        assert capsys.readouterr().out == want


def _traced_peak(fn):
    """The most memory ``fn()`` holds at once, as ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_holds_two_rows_not_the_triangle():
    # B at 20 as json: above the command's fixed cost (its parser, measured at
    # --max-n 1), the streamed rows peak under half of what the cached
    # rows 0..20 hold
    def table(max_n):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert main(["table", "B", "--max-n", str(max_n), "--format", "json"]) == 0

    fixed = _traced_peak(lambda: table(1))
    streamed = _traced_peak(lambda: table(20)) - fixed
    _clear_row_caches()
    cached = _traced_peak(lambda: eulerian._typeB_row(20))
    assert streamed < cached / 2


def test_table_unknown_family_usage_error():
    proc = run_cli("table", "x", "--max-n", "3")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# poly command
# ---------------------------------------------------------------------------


def test_poly_tangent():
    proc = run_cli("poly", "T", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout == "1 + q\n"


def test_poly_typeB_display():
    proc = run_cli("poly", "B", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == "1 + (2q + 2q^2 + 2q^3) t + q^4 t^2\n"


def test_poly_gstar_trivial():
    proc = run_cli("poly", "Gstar", "--n", "0")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_poly_json_roundtrip():
    proc = run_cli("poly", "Estar", "--n", "2", "--format", "json")
    from qeuler.special import e_star

    assert from_json(json.loads(proc.stdout)) == e_star(2)


def test_poly_out_of_range_usage_error():
    assert run_cli("poly", "dn", "--n", "0").returncode == 2
    assert run_cli("poly", "nosuch", "--n", "1").returncode == 2


def test_poly_central_is_not_a_name():
    # b[2n,n] is printed by `table b`, and shifted by q^(-n^2) by `poly Estar`
    proc = run_cli("poly", "central", "--n", "8")
    assert proc.returncode == 2
    assert "invalid choice: 'central'" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("table", "A", "--max-n", "61"),
        ("table", "b", "--max-n", "0"),
        ("table", "B", "--max-n", "100000"),
        ("poly", "A", "--n", "101"),
        ("poly", "A", "--n", "1100"),
        ("poly", "B", "--n", "101"),
        ("poly", "T", "--n", "51"),
        ("poly", "Gstar", "--n", "51"),
    ],
    ids=lambda a: " ".join(a),
)
def test_data_command_bounds_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--max-n must be in 1..60" in proc.stderr or "--n in " in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("table", "b", "--max-n", "8", "--format", "json"),
        ("table", "a", "--max-n", "8", "--q1", "--format", "csv"),
        ("poly", "B", "--n", "6", "--format", "json"),
        ("conjecture", "--max-n", "4"),
    ],
    ids=lambda a: " ".join(a),
)
def test_byte_identical_output(args):
    first = run_cli(*args, binary=True)
    second = run_cli(*args, binary=True)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


# Reference digests of data output: the row engine, the renderers and the
# streaming table writer must keep these bytes, in every format.
GOLDEN_SHA256 = {
    ("table", "A", "--max-n", "16", "--format", "json"):
        "d487233236b782e5875d72242ee9c27c365388241332e4e24872d6634debb93b",
    ("table", "a", "--max-n", "16", "--format", "json"):
        "2a2aabcb8e3ed67a581ed5ee9faa6b06ec529718535a678d2713e03a48e5acbf",
    ("table", "B", "--max-n", "16", "--format", "json"):
        "a95f5276e617b29f3caa7382a30928ddf262644b3dbf7ae80bf8d9025c09e6fd",
    ("table", "b", "--max-n", "16", "--format", "json"):
        "d856cbb1d62e28ecd419c9cd966d26c6f886bc90435ff63c9aa380625ef8bd40",
    ("table", "A", "--max-n", "16"):
        "901ba4270414f11d6655ac679524400c44ad2010559ea7fac269d64cd7f0e56f",
    ("table", "b", "--max-n", "16"):
        "dfdee6455fed88e57973682fd90ba077f6246c644a1680e6b84894fd0c38dfb4",
    ("table", "A", "--max-n", "16", "--format", "csv"):
        "e3440059e49e8ed7da1d0f5b7ee640ac769a2997eec174cfdd0e181014c26c5e",
    ("table", "a", "--max-n", "16", "--format", "csv"):
        "8e74196032335d6683fed9e4f9f64f852ff5647c2b07fd870d17a4cbad239b74",
    ("table", "B", "--max-n", "16", "--format", "csv"):
        "ed55ba692dc9064026493f2e34a6b7e01309c46c7154dfbbc5b148a9caf79196",
    ("table", "b", "--max-n", "16", "--format", "csv"):
        "da8db7a91e9e9ffc709a7d264f93e1e5874fec4fe8e6ad3f57ee22490751dad6",
    ("table", "A", "--max-n", "16", "--q1"):
        "498bf431ddc9dd317fd5ae5765d09b4a5532dc211568d04f3f5a34405ae4c66d",
    ("table", "A", "--max-n", "16", "--q1", "--format", "json"):
        "a1597f0491b5e8b6ce244734317ef24208189c58dce8a10bf7d0ce465a972108",
    ("table", "A", "--max-n", "16", "--q1", "--format", "csv"):
        "55304e3a8811536dc21ba749d6fdc9a5a66c809df1ca37ecad11e98be8a5629b",
    ("table", "b", "--max-n", "16", "--q1"):
        "3da631bc603ed3126cbff32f68c0b8f15994d00ee6bf894acb093ee730e8e98f",
    ("table", "b", "--max-n", "16", "--q1", "--format", "json"):
        "b9ffaff72ffddcd6deddc575d4aedbadf4c397689cbf1abdfc5115d88c4a7c75",
    ("table", "b", "--max-n", "16", "--q1", "--format", "csv"):
        "dff1663faf1d0452c5b585bada59eb53f63192f24a9ee38f74a6c6ae463a4d42",
    ("poly", "A", "--n", "8"):
        "3820c31c9d0d16dd9244d89fc1e0a0576ce797e2f111423749d275e170d2b3ba",
    ("poly", "B", "--n", "7"):
        "fa6db582f555dd47a4e7950ea485e91d6117f45858a770accafca1ad6256b2ab",
    # the derived families, recorded while they were still computed by
    # substitution into the A and B rows, so a change of route keeps them
    ("poly", "T", "--n", "8", "--format", "json"):
        "888093a422a8321b299bdb2b3e12698e538b4f57cb69d88ab3ac7147b1845c8e",
    ("poly", "dn", "--n", "8", "--format", "json"):
        "4b22572092faabc15e0c7d4ae210408b949c0707091031122697f2f13df73a58",
    ("poly", "Estar", "--n", "8", "--format", "json"):
        "4fb47d980ae9af8165bcef064dbd8ee7de7dd47bd47444cd25bbc214086f035a",
    ("poly", "Gstar", "--n", "8", "--format", "json"):
        "4fc043888f64d4b2ea867fa00a1b96a9df6d1852dabe40557c19a7e7eb7b6452",
    ("poly", "Eq", "--n", "8", "--format", "json"):
        "0514332aba09a1f9ed8806503fd9390854177400c68167e71173ef5e10d43980",
    ("conjecture", "--max-n", "10"):
        "e0e86f9b971d743fbddbe5ae22ae6ced80ffa57eefc354a0edb5aa5564e91011",
    ("conjecture", "--max-n", "10", "--format", "json"):
        "8ee9ff6af04e988ab8692a2bb8e56baa133b2d6a82c904c0cb1d219124a1b83f",
}


@pytest.mark.parametrize("args", list(GOLDEN_SHA256), ids=lambda a: " ".join(a))
def test_golden_output_digest(args):
    proc = run_cli(*args, binary=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256[args]


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_expansionA_small():
    proc = run_cli("verify", "expansionA", "--max-n", "6")
    assert proc.returncode == 0
    assert "suite expansionA: PASS" in proc.stdout


def test_verify_doubloon_counts():
    proc = run_cli("verify", "doubloon", "--max-n", "2")
    assert proc.returncode == 0
    assert "count=2" in proc.stdout
    assert "count=16" in proc.stdout


def test_doubloon_failure_names_the_first_difference(monkeypatch):
    original = doubloon.interlaced_gf
    monkeypatch.setattr(doubloon, "interlaced_gf", lambda n: original(n) + 1)
    report = run_suite("doubloon", 2)
    assert not report.ok
    bad = report.items[-1]
    assert bad.name == "interlaced gf order 5 == a[5,3]"
    assert bad.detail == "count=17; first difference at q^0: expected 0, got 1"
    monkeypatch.undo()
    assert run_suite("doubloon", 2).items[-1].detail == "count=16"


def test_bracket_failure_names_the_first_triple(monkeypatch):
    original = eulerian.bracket_identity_A
    monkeypatch.setattr(
        eulerian, "bracket_identity_A", lambda n, k, s: (n, k, s) != (4, 3, 2) and original(n, k, s)
    )
    report = run_suite("brackets", 5)
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("type-A bracket identity n=4", "first failing (k, s) = (3, 2)")
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


@pytest.mark.parametrize("family, entry", [("A", "carlitz_entry"), ("B", "typeB_entry")])
def test_basis_change_failure_names_n_and_k(monkeypatch, family, entry):
    original = getattr(cli, entry)
    monkeypatch.setattr(
        cli, entry, lambda n, k: original(n, k) + (QPoly.monomial(2) if (n, k) == (5, 3) else 0)
    )
    report = run_suite(f"expansion{family}", 6)
    bad = [i for i in report.items if i.status == "fail"]
    assert [i.name for i in bad] == [f"basis_change_{family} rows n=5"]
    want = original(5, 3)[2]
    assert bad[0].detail == f"k=3; first difference at q^2: expected {want + 1}, got {want}"


@pytest.mark.parametrize("family, row, n, index, k", [
    ("A", "_gamma_a_row", 5, 1, 2), ("B", "_gamma_b_row", 4, 1, 1),
])
def test_gamma_row_nonnegativity_failure_names_k(monkeypatch, family, row, n, index, k):
    original = getattr(cli, row)

    def perturbed(m):
        entries = list(original(m))
        if m == n:
            entries[index] = entries[index] - 1  # entry k has no q^0 term
        return tuple(entries)

    monkeypatch.setattr(cli, row, perturbed)
    report = run_suite(f"expansion{family}", 6)
    bad = [(i.name, i.detail) for i in report.items if i.status == "fail"]
    assert bad == [(f"{family.lower()}[{n},k] nonnegative", f"first negative entry at k={k}")]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


@pytest.mark.parametrize("name, poly", [
    ("gamma_expand_A", "carlitz_poly"), ("gamma_expand_B", "typeB_poly"),
])
def test_gamma_expansion_failure_names_t_and_q(monkeypatch, name, poly):
    original = getattr(cli, name)
    extra = TQPoly.t_monomial(2, QLaurent.q_power(-1))  # below every q^i of t^2
    monkeypatch.setattr(cli, name, lambda n: original(n) + (extra if n == 4 else 0))
    report = run_suite(f"expansion{name[-1]}", 5)
    bad = [i for i in report.items if i.status == "fail"]
    assert [(i.name, i.detail) for i in bad] == [
        (f"{name}(4) == {poly}(4)", "first difference at t^2 q^-1: expected 0, got 1")
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


@pytest.mark.parametrize("oracle, label", [
    ("carlitz_series_oracle", "carlitz series oracle"),
    ("typeB_series_oracle", "type-B series oracle"),
])
def test_series_oracle_failure_names_t_and_q(monkeypatch, oracle, label):
    original = getattr(cli, oracle)
    extra = TQPoly.t_monomial(1, QPoly.monomial(3, 2))
    monkeypatch.setattr(cli, oracle, lambda n: original(n) + (extra if n == 3 else 0))
    report = run_suite("series", 4)
    bad = [(i.name, i.detail) for i in report.items if i.status == "fail"]
    want = original(3).coeff(1).to_qpoly()[3]
    assert bad == [
        (f"{label} n=3", f"first difference at t^1 q^3: expected {want}, got {want + 2}")
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def test_secant_central_failures_name_the_first_difference(monkeypatch):
    # b[4,2] from its cone is compared with the substitution b_central(2)
    # only; E*_4 reads b[4,2] through special, which is not patched
    original = cli._central_entry
    monkeypatch.setattr(
        cli, "_central_entry",
        lambda family, n: original(family, n) + (QPoly.monomial(5, 3) if n == 2 else 0)
    )
    report = run_suite("secant", 2)
    want = original("b", 2)[5]
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("b_central(2) == b[4,2]", f"first difference at q^5: expected {want + 3}, got {want}"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def test_secant_e_star_item_reads_e_star(monkeypatch):
    # E*_{2n} q^{n^2} is compared with the substitution b_central(n); a wrong
    # E*_4 fails that item and no other b[2n,n] item
    original = special.e_star
    monkeypatch.setattr(special, "e_star", lambda n: original(n) + (QPoly.monomial(2) if n == 2 else 0))
    report = run_suite("secant", 2)
    want = original(2).shift(4)[6]
    bad = [(i.name, i.detail) for i in report.items if i.status == "fail"]
    assert bad[0] == ("E*_4 q^4 == b[4,2]", f"first difference at q^6: expected {want}, got {want + 1}")
    assert [name for name, _ in bad if "b[" in name] == ["E*_4 q^4 == b[4,2]"]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def test_tangent_failure_names_the_first_difference(monkeypatch):
    original = special.a_star
    monkeypatch.setattr(special, "a_star", lambda n, k: original(n, k) + QPoly.monomial(1, 5))
    report = run_suite("tangent", 1)
    bad = [(i.name, i.detail) for i in report.items if i.status == "fail"]
    # T_1 = 1 and T_3 = 1 + q by substitution; q_tangent reads the patched
    # a*, so both d_1 items find (1 + q) d_1 != T_3
    not_divisible = ("ArithmeticError at n=1", "(1+q)...(1+q^1) d_1 != T_3")
    assert bad == [
        ("T_1 == a*[1,1]", "first difference at q^1: expected 5, got 0"),
        ("T_3 == a*[3,2]", "first difference at q^1: expected 6, got 1"),
        not_divisible,
        not_divisible,
    ]


def test_nonnegativity_failures_name_the_first_negative_coefficient(monkeypatch):
    # T_{2n+1} and d_n report the first negative q^i and its coefficient;
    # T == a* compares the substitution with a*, neither of them patched;
    # each d_n item reports its own claim's failure before it checks
    # (1 + q)(1 + q^2) d_2 against the patched T_5
    t = {n: special.q_tangent(n) for n in range(3)}
    d = {n: special.d_poly(n) for n in range(1, 3)}
    monkeypatch.setattr(special, "q_tangent",
                        lambda n: t[n] - (QPoly.monomial(2, 7) if n == 2 else 0))
    monkeypatch.setattr(special, "d_poly",
                        lambda n: d[n] - (QPoly.monomial(1, 9) if n == 2 else 0))
    report = run_suite("tangent", 2)
    # T_5 = 2 + 4q + 4q^2 + 4q^3 + 2q^4 and d_2 = 2 + 2q
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("T_5 polynomial with nonneg coeffs", "first negative coefficient at q^2: -3"),
        ("d_2 in Z[q] with nonneg coeffs", "first negative coefficient at q^1: -7"),
        # the cleared sides (2 + 2q)(1 - q)^5 and (2 - 7q)(1 - q)^5
        ("d_2 rational identity", "first difference at q^1: expected -8, got -17"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def test_reconstruction_failure_names_t_and_q(monkeypatch):
    original = special.even_quotient
    extra = TQPoly.t_monomial(1, QPoly.monomial(2, 4))
    monkeypatch.setattr(special, "even_quotient",
                        lambda n, *poly: original(n, *poly) + (extra if n == 2 else 0))
    report = run_suite("tangent", 2)
    # A_4 / (1 + t q^2) gains 4q^2 t, so A_4 gains 4q^2 t + 4q^4 t^2
    c = carlitz_poly(4).coeff(1)
    want = c.base[2 - c.offset]
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("A_4/(1+tq^2) reconstructs", f"first difference at t^1 q^2: expected {want}, "
                                      f"got {want + 4}"),
    ]


def test_secant_value_failures_give_the_value_got(monkeypatch):
    g, e = special.g_star, special.e_q_secant
    monkeypatch.setattr(special, "g_star", lambda n: g(n) + (3 if n == 2 else 0))
    monkeypatch.setattr(special, "e_q_secant",
                        lambda n, *poly: e(n, *poly) + (QPoly.monomial(1) if n == 1 else 0))
    report = run_suite("secant", 2)
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("E_2(q) at q=1 == 4^1 E_2", "expected 4, got 5"),
        ("G*_4(1) == E_4 == 5", "expected 5, got 8"),
        # G*_4 = 2 + q + 2q^2, cleared as q^3 (1 + q)^2 (1 - q)^4 G*_4
        ("G*_4 rational identity", "first difference at q^3: expected 2, got 5"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def test_identity_failure_names_the_first_differing_point(monkeypatch):
    # d_2 = 2 + 2q gains q - 2 (zero at q = 2), so the cleared sides differ by
    # (q - 2)(1 - q)^5, first at q^0
    d = special.d_poly
    monkeypatch.setattr(special, "d_poly", lambda n: d(n) + (QPoly([-2, 1]) if n == 2 else 0))
    report = run_suite("tangent", 2)
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("d_2 rational identity", "first difference at q^0: expected 2, got 0"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


@pytest.mark.parametrize("suite, family, n, extra, name, detail", [
    # the cleared sides gain q (1 - q)^11 and q^7 (1 + q)^4 (1 - q)^8
    ("tangent", "d_poly", 5, QPoly.monomial(1), "d_5 rational identity",
     "first difference at q^1: expected -222, got -221"),
    ("secant", "g_star", 4, QPoly.monomial(2), "G*_8 rational identity",
     "first difference at q^7: expected -8, got -7"),
], ids=["d_5 + q", "G*_8 + q^2"])
def test_identity_failure_at_the_cap_exits_1(monkeypatch, capsys, suite, family, n, extra,
                                             name, detail):
    original = getattr(special, family)
    monkeypatch.setattr(special, family, lambda m: original(m) + (extra if m == n else 0))
    assert main(["verify", suite, "--max-n", str(n), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(i["name"], i["detail"]) for i in doc["items"]
            if i["status"] == "fail" and "rational identity" in i["name"]] == [(name, detail)]


def _v_plus_one(fam):
    """``fam`` with ``v + 1`` in every ``beta(n, k)``."""
    beta = fam.beta
    return fam._replace(beta=lambda n, k: (*beta(n, k)[:2], beta(n, k)[2] + 1))


@pytest.mark.parametrize("family, change, suite, max_n, want", [
    # [n+3-2k] for [n+2-2k]: every d_n changes
    ("abar", _v_plus_one, "tangent", 5,
     [f"ArithmeticError at n={n}" for n in range(1, 6)]
     + [f"d_{n} rational identity" for n in range(1, 6)]),
    # [n+2-2k]_{q^2} for [n+1-2k]_{q^2}: G*_{2n}(1) changes too
    ("btilde", _v_plus_one, "secant", 4,
     [f"G*_{2*n}(1) == E_{2*n} == {e}" for n, e in zip(range(1, 5), (1, 5, 61, 1385))]
     + [f"G*_{2*n} rational identity" for n in range(1, 5)]),
    # [n+1-2k]_q for [n+1-2k]_{q^2}: G*_{2n}(1) stays, and from n = 2 on
    # the quotient does not
    ("btilde", lambda fam: fam._replace(stride=1), "secant", 4,
     [f"ArithmeticError at n={n}" for n in range(2, 5)]
     + [f"G*_{2*n} rational identity" for n in range(2, 5)]),
], ids=["abar v+1", "btilde v+1", "btilde stride 1"])
def test_a_broken_carried_out_triangle_fails_its_suite(monkeypatch, family, change, suite,
                                                       max_n, want):
    # d_n and G*_{2n} read the cones of abar and btilde alone; the quotient
    # checks against T_{2n+1} and E*_{2n}, the values at q = 1 and the
    # rational identities must see a wrong slot in either table
    monkeypatch.setitem(FAMILIES, family, change(FAMILIES[family]))
    _cold_central(monkeypatch)
    bad = [(i.name, i.detail) for i in run_suite(suite, max_n).items if i.status == "fail"]
    assert [name for name, _ in bad] == want
    # a quotient check names the product it compared
    for name, detail in bad:
        if name.startswith("ArithmeticError"):
            n = int(name.rpartition("=")[2])
            assert detail == (f"(1+q)...(1+q^{n}) d_{n} != T_{2*n+1}" if suite == "tangent"
                              else f"(-q;q^2)_{n} (1+q)^{n} G*_{2*n} != E*_{2*n}")


def _perturbed_row(monkeypatch, row_name, n, i, entry):
    """Make ``unimodality.<row_name>``, and the rows of its family that
    ``verify`` streams, give row ``n`` with entry ``i`` replaced by
    ``entry(row)``."""
    original, stream = getattr(unimodality, row_name), cli.iter_rows
    family = {"_carlitz_row": "A", "_typeB_row": "B"}[row_name]

    def perturbed(m, r):
        if m != n:
            return r
        r = list(r)
        r[i] = entry(r)
        return tuple(r)

    def rows(fam, N, *args):
        return ((m, perturbed(m, r) if fam == family else r) for m, r in stream(fam, N, *args))

    monkeypatch.setattr(unimodality, row_name, lambda m: perturbed(m, original(m)))
    monkeypatch.setattr(cli, "iter_rows", rows)


@pytest.mark.parametrize("family, row_name, n, k", [
    ("A", "_carlitz_row", 6, 2), ("B", "_typeB_row", 5, 1),
])
def test_reversal_failure_names_k(monkeypatch, family, row_name, n, k):
    _perturbed_row(monkeypatch, row_name, n, 1, lambda r: r[1] + 1)
    report = run_suite("reciprocity", 6)
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        (f"{family} row reversal n={n}", f"first bad k={k}"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


@pytest.mark.parametrize("family, row_name, n, at, before, q0", [
    ("A", "_carlitz_row", 7, 2, 1, Fraction(2)),      # A[7,3] := A[7,2] - 1
    ("B", "_typeB_row", 6, 3, 4, Fraction(1, 2)),     # B[6,3] := B[6,4] - 1, read backwards
])
def test_growth_failure_names_k_and_both_values(monkeypatch, family, row_name, n, at, before, q0):
    a = getattr(unimodality, row_name)(n)[before](q0)
    _perturbed_row(monkeypatch, row_name, n, at, lambda r: r[before] - 1)
    report = run_suite("monotone", n, (q0,))
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        (f"{family} strict growth n={n} q0={q0}", f"first bad k=2: {a - 1} does not exceed {a}"),
    ]
    assert all(i.detail == "" for i in report.items if i.status == "pass")


def _counted(monkeypatch, module, name):
    """Record the arguments of every call of ``module.<name>``."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("suite, max_n, points, module, locator, kind", [
    ("reciprocity", 7, None, unimodality, "_first_unreversed", "row reversal"),
    ("monotone", 7, (Fraction(2),), unimodality, "_first_fall", "strict growth"),
    ("tangent", 2, None, special, "_d_identity", "rational identity"),
])
def test_failed_item_finds_its_counterexample_once(monkeypatch, suite, max_n, points, module,
                                                   locator, kind):
    # A[7,3] := A[7,2] - 1 breaks the reversal and the growth of row 7, and
    # d_2 + q - 2 the d_2 rational identity
    _perturbed_row(monkeypatch, "_carlitz_row", 7, 2, lambda r: r[1] - 1)
    d = special.d_poly
    monkeypatch.setattr(special, "d_poly", lambda n: d(n) + (QPoly([-2, 1]) if n == 2 else 0))
    calls = _counted(monkeypatch, module, locator)
    items = [i for i in run_suite(suite, max_n, points).items if kind in i.name]
    assert [i.status for i in items].count("fail") == 1
    # one search per item: a failed item that asked its predicate and then
    # searched again for the detail would make one call more
    assert len(calls) == len(items)


def test_broken_library_claim_is_a_failed_item(monkeypatch, capsys):
    def broken(n):
        raise ArithmeticError(f"T_{2*n+1} has a negative coefficient")

    monkeypatch.setattr(special, "q_tangent", broken)
    assert main(["verify", "tangent", "--max-n", "3", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"

    def broken_at(n):
        return "fail", f"ArithmeticError at n={n}", f"T_{2*n+1} has a negative coefficient"

    # the T_{2n+1} nonnegativity check and the d_n checks (through their
    # quotient check) break at each n; T == a* and the reconstruction of A_{2n}, which do not
    # use q_tangent, still run
    assert [(i["status"], i["name"], i["detail"]) for i in doc["items"]] == (
        [x for n in range(4)
         for x in (broken_at(n), ("pass", f"T_{2*n+1} == a*[{2*n+1},{n+1}]", ""))]
        + [x for n in (1, 2, 3)
           for x in (broken_at(n), ("pass", f"A_{2*n}/(1+tq^{n}) reconstructs", ""))]
        + [broken_at(n) for n in (1, 2, 3)]
    )
    assert doc["counters"] == {"pass": 7, "fail": 10, "reported": 0}


def test_broken_library_claim_names_the_point(monkeypatch):
    original = unimodality._first_fall

    def broken(family, n, q0):
        if (family, n, q0) == ("A", 4, Fraction(3, 2)):
            raise ZeroDivisionError("row entry vanishes at q0")
        return original(family, n, q0)

    monkeypatch.setattr(unimodality, "_first_fall", broken)
    report = run_suite("monotone", 5, (Fraction(3, 2), Fraction(1, 2)))
    assert [(i.name, i.detail) for i in report.items if i.status == "fail"] == [
        ("ZeroDivisionError at q0=3/2, n=4", "row entry vanishes at q0")
    ]
    # the type-B check at the same index still runs
    assert report.counters()["pass"] == 2 * 2 * 4 - 1


def test_verify_monotone_with_points():
    proc = run_cli("verify", "monotone", "--max-n", "6", "--points", "2,3/2,1/2")
    assert proc.returncode == 0


def test_verify_bad_points_usage_error():
    assert run_cli("verify", "monotone", "--points", "2,x").returncode == 2


@pytest.mark.parametrize("points", [
    "1e5000,1/2",
    "1e10000000",
    "1" + "0" * MAX_POINT_DIGITS,          # a numerator one digit over the cap
    "2,1/1" + "0" * MAX_POINT_DIGITS,      # a denominator one digit over the cap
    ",".join(["2"] * (POINTS_DIGIT_BUDGET // 2 + 1)),  # one entry over the total budget
    f"{10**MAX_POINT_DIGITS - 1}/{10**MAX_POINT_DIGITS - 2}," * 2 + "2",  # two digits over it
])
def test_verify_points_over_the_digit_cap_usage_error(points):
    proc = run_cli("verify", "monotone", "--points", points)
    assert proc.returncode == 2
    assert "bad points list" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("points, detail", [
    (",".join(["2"] * 65_000), "65000 entries with 130000 digits in all, more than 120"),
    ("2," * 65_000 + "x", "entry 65001, 'x': not an integer"),
    ("2,1/0", "entry 2, '1/0': its denominator is 0"),
    ("1" * 65_000, "entry 1, '11111111111111111111... (65000 characters)': a point may have "
                   f"at most {MAX_POINT_DIGITS} digits"),
], ids=["over the budget", "bad last entry", "zero denominator", "long entry"])
def test_verify_points_errors_stay_short(capsys, points, detail):
    # a rejected list is named by its entry count or the bad entry's position,
    # never echoed whole
    with pytest.raises(SystemExit) as exc:
        main(["verify", "monotone", "--points", points])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"bad points list: {detail}" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("points", ["7" * 5_000, "2,1/" + "3" * 5_000, "0." + "7" * 5_000],
                         ids=["integer", "denominator", "decimal"])
def test_verify_points_past_the_int_string_limit(points):
    # past int()'s 4300 digits the entry gets the digit cap's error, not
    # Python's advice to raise its limit
    proc = run_cli("verify", "monotone", "--points", points)
    assert proc.returncode == 2
    assert f"at most {MAX_POINT_DIGITS} digits" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_default_points_fit_the_budget():
    assert cli._points_arg(",".join(map(str, DEFAULT_POINTS))) == DEFAULT_POINTS


def test_verify_points_at_the_digit_cap():
    big = 10**MAX_POINT_DIGITS - 1
    proc = run_cli("verify", "monotone", "--max-n", "6", "--points", f"{big}/{big - 1},{big - 1}/{big}")
    assert proc.returncode == 0
    assert "suite monotone: PASS" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("table", "B", "--max-n", "30"),
    ("poly", "B", "--n", "40", "--format", "csv"),
])
def test_closed_stdout_pipe_exits_1_without_traceback(argv):
    # both outputs are far longer than a pipe buffer, so the writer is still
    # writing when the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "qeuler", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""  # no traceback, nor any other message


def test_verify_unknown_suite_usage_error():
    assert run_cli("verify", "nosuite").returncode == 2


def test_verify_json_report_shape():
    proc = run_cli("verify", "brackets", "--max-n", "4", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "pass"
    assert doc["counters"]["fail"] == 0
    assert "wall_time_s" in doc
    assert all(i["status"] in ("pass", "fail", "reported") for i in doc["items"])


def test_all_suites_pass_in_process():
    # quick bounded pass over every registered suite through the library API
    for name in SUITES:
        report = run_suite(name, 4 if name != "doubloon" else 2, DEFAULT_POINTS)
        assert report.ok, name


@pytest.mark.parametrize(
    "args",
    [
        ("monotone", "--points", "1"),
        ("monotone", "--points", "-2"),
        ("monotone", "--points", "2,0"),
        ("expansionA", "--max-n", "-3"),
        ("tangent", "--max-n", "-1"),
        ("monotone", "--max-n", "1"),
        ("all", "--max-n", "1"),
    ],
    ids=lambda a: " ".join(a),
)
def test_verify_usage_errors_exit_2(args):
    proc = run_cli("verify", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


OVER_LIMIT_ARGVS = [
    *[("verify", name, "--max-n", str(suite.max_n_limit + 1)) for name, suite in SUITES.items()],
    ("verify", "all", "--max-n", str(min(s.max_n_limit for s in SUITES.values()) + 1)),
    ("verify", "series", "--max-n", "1000000", "--format", "json"),
    ("conjecture", "--max-n", str(CONJECTURE_MAX_N + 1)),
    ("conjecture", "--max-n", "-1"),
]


@pytest.mark.parametrize("args", OVER_LIMIT_ARGVS, ids=lambda a: " ".join(a))
def test_max_n_limits_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--max-n" in proc.stderr
    assert proc.stdout == ""


def test_benchmark_argvs_within_max_n_limits():
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    argvs = [a.split() for a in json.loads(digests.read_text())]
    checked = 0
    for argv in argvs:
        if argv[0] not in ("verify", "conjecture"):
            continue
        n = int(argv[argv.index("--max-n") + 1])
        limit = SUITES[argv[1]].max_n_limit if argv[0] == "verify" else CONJECTURE_MAX_N
        assert n <= limit, argv
        checked += 1
    assert checked > 0


def test_benchmark_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py wraps package functions and kernel methods by
    # name; a rename would leave a traced benchmark run without its layer.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import qeuler, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer, qeuler)\n"
        "print(tracer.missing)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_tracer_tables_name_wrappable_functions():
    # The tracer wraps a listed name only when it is a function defined in its
    # module; a table of functions or a functools.partial would hide the calls.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, (_, groups) in tracing.LAYERS.items():
        mod = importlib.import_module(f"qeuler.{modname}")
        for attr in groups:
            obj = vars(mod).get(attr)
            assert callable(obj) and not inspect.isclass(obj), f"{modname}.{attr}"
            assert obj.__module__ == mod.__name__, f"{modname}.{attr}"
            assert not inspect.isgeneratorfunction(obj), f"{modname}.{attr}"
    for cls_name, meth in tracing.METHODS:
        assert meth in vars(getattr(importlib.import_module("qeuler.qring"), cls_name)), meth
    for attr in tracing.ROW_CACHES:
        assert attr in tracing.LAYERS["eulerian"][1]
        assert hasattr(vars(eulerian)[attr], "cache_info"), attr


def test_benchmark_session_resolves_its_names(monkeypatch):
    # perfbench/session.py looks its calls up on the package when a Session
    # is made, and round-trips two of them through serialize; the names the
    # tracer wraps are checked above
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_session", bench / "session.py")
    session = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(session)
    runner = session.Session()
    for op in (("g_star", (2,)), ("d_poly", (2,))):
        assert runner.check(op, runner.call(op)) is None, op


def test_verify_smallest_bounds_still_check():
    proc = run_cli("verify", "series", "--max-n", "0")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("suite series: PASS  pass=1 fail=0")
    assert [i.name for i in run_suite("tangent", 0).items] == [
        "T_1 polynomial with nonneg coeffs",
        "T_1 == a*[1,1]",
    ]


def test_doubloon_order_does_not_follow_max_n():
    # --max-n 6 reaches order 9 doubloons (n = 4) and no further
    assert [i for _, i in SUITES["doubloon"].indices(6, None)] == [(1,), (2,), (3,), (4,)]
    assert [i for _, i in SUITES["doubloon"].indices(2, None)] == [(1,), (2,)]


def _report_digest(stdout: bytes) -> str:
    # verify JSON without its one nondeterministic field, wall_time_s
    docs = []
    for line in stdout.decode().splitlines():
        doc = json.loads(line)
        doc.pop("wall_time_s", None)
        docs.append(json.dumps(doc, sort_keys=True))
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


# Reference digests of verify reports: every item name, detail, order and
# counter must survive changes to the suite table.
VERIFY_GOLDEN_SHA256 = {
    ("verify", "all", "--format", "json"):
        "71e09d900cd8d766e7a6b807f3a882e38f2c7d1d1a011b2848b3e41833a49637",
    ("verify", "monotone", "--max-n", "4", "--points", "2,1/2", "--format", "json"):
        "f4e88ea7c545e25f39998448d3f7ae8f04040a94d61e519ca991c6aa3172d821",
}


@pytest.mark.parametrize("args", list(VERIFY_GOLDEN_SHA256), ids=lambda a: " ".join(a))
def test_verify_report_golden_digest(args):
    proc = run_cli(*args, binary=True)
    assert proc.returncode == 0
    assert _report_digest(proc.stdout) == VERIFY_GOLDEN_SHA256[args]


# ---------------------------------------------------------------------------
# conjecture command
# ---------------------------------------------------------------------------


def test_conjecture_consistent():
    proc = run_cli("conjecture", "--max-n", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "overall: consistent"
    values = [line.split()[3] for line in proc.stdout.splitlines()[1:-1]]
    assert values == ["1", "1", "5", "61", "1385"]


def test_conjecture_trivial():
    proc = run_cli("conjecture", "--max-n", "0")
    assert proc.returncode == 0
    assert "consistent" in proc.stdout


# ---------------------------------------------------------------------------
# oeis-check command
# ---------------------------------------------------------------------------


def test_oeis_check_bundled_fixtures():
    for seq, max_n in (("A101280", 6), ("A008971", 5)):
        proc = run_cli("oeis-check", seq, "--max-n", str(max_n))
        assert proc.returncode == 0, proc.stdout
        assert "PASS" in proc.stdout


def test_oeis_check_full_fixture_depth():
    assert run_cli("oeis-check", "A101280", "--max-n", "12").returncode == 0
    assert run_cli("oeis-check", "A008971", "--max-n", "12").returncode == 0


def test_oeis_check_mismatch_fails(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n3 1\n4 99\n5 1\n6 8\n7 1\n8 22\n9 16\n")
    proc = run_cli("oeis-check", "A101280", "--max-n", "5", "--fixture", str(bad))
    assert proc.returncode == 1
    assert "computed 2 != fixture 99" in proc.stdout


def test_oeis_check_short_fixture_fails(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("1 1\n2 1\n")
    proc = run_cli("oeis-check", "A101280", "--max-n", "6", "--fixture", str(short))
    assert proc.returncode == 1


def test_oeis_check_max_n_bounded_at_parser():
    proc = run_cli("oeis-check", "A101280", "--max-n", "100")
    assert proc.returncode == 2
    assert "--max-n must be in 1..60" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_oeis_check_short_fixture_fails_before_building_rows(capsys):
    # the bundled A101280 snapshot covers rows 1..12; the length check comes
    # before any row is built
    eulerian._gamma_a_row.cache_clear()
    assert main(["oeis-check", "A101280", "--max-n", "60"]) == 1
    assert "needs 930 terms, fixture has 42" in capsys.readouterr().out
    assert eulerian._gamma_a_row.cache_info().currsize == 0


def test_oeis_check_missing_fixture_usage_error(tmp_path):
    proc = run_cli("oeis-check", "A101280", "--fixture", str(tmp_path / "nope.txt"))
    assert proc.returncode == 2


# a value past int()'s digit limit is malformed, and is not echoed in full
LONG_LINE = "2 " + "7" * 200_000
BAD_FIXTURES = {"bad value": "1 1\n2 x\n", "three columns": "1 1 1\n",
                "long value": f"1 1\n{LONG_LINE}\n"}


@pytest.mark.parametrize("case", ["negative skip", *BAD_FIXTURES, "directory", "over the cap"])
def test_oeis_check_bad_input_exits_2(tmp_path, case):
    args = ["oeis-check", "A101280", "--max-n", "3"]
    if case == "negative skip":
        args += ["--skip", "-5"]
    elif case == "directory":
        args += ["--fixture", str(tmp_path)]
    elif case == "over the cap":
        # comment lines only, one byte more than the cap
        path = tmp_path / "fixture.txt"
        path.write_bytes((b"#" * 63 + b"\n") * (cli.MAX_FIXTURE_BYTES // 64) + b"\n")
        args += ["--fixture", str(path)]
    else:
        path = tmp_path / "fixture.txt"
        path.write_text(BAD_FIXTURES[case])
        args += ["--fixture", str(path)]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 1024


def test_oeis_check_refresh_is_not_an_option(capsys):
    # the bundled snapshots and --fixture cover every use; nothing is fetched
    with pytest.raises(SystemExit) as exc:
        main(["oeis-check", "A101280", "--refresh", "--fixture", "b101280.txt"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --refresh" in err


def test_oeis_check_skip_alignment(tmp_path):
    # a fixture with one extra leading term aligns with --skip 1
    shifted = tmp_path / "shifted.txt"
    shifted.write_text("0 1\n1 1\n2 1\n3 1\n4 2\n")
    proc = run_cli(
        "oeis-check", "A101280", "--max-n", "3", "--fixture", str(shifted), "--skip", "1"
    )
    assert proc.returncode == 0


def test_parse_bfile():
    assert parse_bfile("# c\n\n1 4\n2 -7\n") == [4, -7]
    with pytest.raises(ValueError):
        parse_bfile("1 2 3\n")
    # the line at fault by its number, its first 20 characters and its length
    with pytest.raises(ValueError) as exc:
        parse_bfile(f"# c\n1 4\n{LONG_LINE}\n")
    assert str(exc.value) == "malformed b-file line 3: '2 777777777777777777... (200002 characters)'"


def test_divisibility_check_in_expected():
    report = run_oeis_check("A008971", 10, [0] * 39)
    # divisibility by 4^k always holds for the real triangle, so the only
    # failure is the value mismatch against the all-zero fixture
    assert [i.name for i in report.items if i.status == "fail"] == [
        f"{len([None for n in range(1, 11) for _ in range(0, n // 2 + 1)])} terms match"
    ]


def _bundled_terms(sequence):
    return parse_bfile(cli.default_fixture_path(sequence).read_text())


def test_oeis_check_short_fixture_builds_no_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cli, "iter_rows", no_rows)
    report = run_oeis_check("A101280", 60, _bundled_terms("A101280"))
    assert [(i.name, i.status, i.detail) for i in report.items] == [
        ("fixture length", "fail", "needs 930 terms, fixture has 42"),
    ]


@pytest.mark.parametrize("sequence", sorted(cli.OEIS_SEQUENCES))
def test_oeis_check_builds_each_row_once(monkeypatch, sequence):
    steps = []
    next_row = eulerian._next_row

    def counted(fam, n, prev):
        steps.append(n)
        return next_row(fam, n, prev)

    monkeypatch.setattr(eulerian, "_next_row", counted)
    report = run_oeis_check(sequence, 12, _bundled_terms(sequence))
    assert report.ok
    seed_n = FAMILIES[cli.OEIS_SEQUENCES[sequence]].seed_n
    assert steps == list(range(seed_n + 1, 13))


def test_oeis_check_reports_each_indivisible_entry_in_place(monkeypatch):
    # b[3,1](1) = 20 and b[5,2](1) = 976 made one more: neither is then
    # divisible by 4^k, each is reported where the stream meets it, and each
    # is compared with the fixture as 0
    bad = {eulerian.gamma_b_entry(3, 1), eulerian.gamma_b_entry(5, 2)}
    monkeypatch.setattr(cli, "spec_q1", lambda p: spec_q1(p) + (p in bad))
    report = run_oeis_check("A008971", 6, _bundled_terms("A008971"))
    assert [(i.name, i.status, i.detail) for i in report.items] == [
        ("4^1 divides b[3,1](1)", "fail", "value=21"),
        ("4^2 divides b[5,2](1)", "fail", "value=977"),
        ("15 terms match", "fail", "term 4: computed 0 != fixture 5; term 10: computed 0 != fixture 61"),
    ]


def test_oeis_check_rejects_an_unknown_sequence():
    with pytest.raises(ValueError, match="unknown sequence A000001"):
        run_oeis_check("A000001", 3, [1] * 10)


# ---------------------------------------------------------------------------
# in-process entry point
# ---------------------------------------------------------------------------


def test_main_in_process(capsys):
    assert main(["poly", "T", "--n", "2"]) == 0
    assert capsys.readouterr().out == "2 + 4q + 4q^2 + 4q^3 + 2q^4\n"


def test_commands_import_only_the_standard_library():
    # -S keeps out what site-packages .pth files import at startup
    script = """
import contextlib, io, sys
from qeuler import cli
for argv in (["verify", "all", "--max-n", "3"], ["table", "B", "--max-n", "4"],
             ["poly", "A", "--n", "4"], ["oeis-check", "A008971", "--max-n", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top - set(sys.stdlib_module_names) - {"__main__", "qeuler"}))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_unused_machinery():
    # the same -S subprocess as above; oeis-check imports pathlib and
    # importlib.resources when it runs, and nothing needs the rest
    script = """
import sys
from qeuler import cli
cli.build_parser()
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
"""
    unused = ["dataclasses", "inspect", "typing", "pathlib", "importlib.resources",
              "tempfile", "zipfile", "argparse", "gettext", "shutil", "locale"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *unused],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_main_reuses_one_parser():
    assert cli.build_parser() is cli.build_parser()


# A usage error between data commands: what one call parses must not leak
# into the next through the shared parser.
PARSER_REUSE_ARGVS = [
    ["verify", "monotone", "--points", "3/2,1/2", "--format", "json"],
    ["table", "z"],
    ["table", "b", "--max-n", "6", "--format", "json"],
    ["verify", "monotone", "--max-n", "4"],
    ["conjecture", "--max-n", "5"],
    ["table", "b", "--max-n", "3"],
]


def _exit(argv):
    """``main(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def test_main_in_process_matches_fresh_processes():
    got = [_exit(argv)[:2] for argv in PARSER_REUSE_ARGVS]
    want = [(p.returncode, p.stdout) for p in (run_cli(*argv) for argv in PARSER_REUSE_ARGVS)]
    assert [rc for rc, _ in want] == [0, 2, 0, 0, 0, 0]
    assert all(out for rc, out in want if rc == 0)
    assert [(rc, _without_wall_time(out)) for rc, out in got] == \
        [(rc, _without_wall_time(out)) for rc, out in want]


def _without_wall_time(text):
    # verify text and JSON carry a wall time; everything else matches byte for byte
    return re.sub(r'(wall=|"wall_time_s": )[0-9.e-]+', r"\1", text)


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "z"])
    assert exc.value.code == 2


def test_suite_functions_report_wall_time():
    report = run_suite("doubloon", 1)
    assert report.wall_time_s >= 0
    report = run_suite("monotone", 3, (2,))
    assert report.ok


# ---------------------------------------------------------------------------
# seeded argv fuzz: every input exits 0, 1 or 2, never with a traceback
# ---------------------------------------------------------------------------

# small sizes that run, and sizes past every --max-n and --n limit
FUZZ_INTS = ["0", "1", "2", "3", "4", "-1", "-7", "101", "10" * 12, "", "x", "2.5", "3e1",
             " 2", "0x3", "½", "٣"]
FUZZ_POINTS = ["2", "3/2,1/2", "1", "0", "-2", "1/0", "x", "", "1e5", "2,,3", "5/4,", "9" * 31,
               "1/" + "9" * 29, ",".join(["1/2"] * 41), "10" * 2200, "0.5", "-1/2,3"]
FUZZ_WORDS = {
    "table": ["a", "b", "A", "B", "c", ""],
    "poly": [*cli.POLY_BUILDERS, "central", "x"],
    "verify": ["all", *SUITES, "nope"],
    "conjecture": [],
    "oeis-check": [*cli.OEIS_SEQUENCES, "A000001"],
}


def _fuzz_fixtures(tmp_path):
    """Fixture paths: missing, a directory, empty, binary, malformed, good."""
    files = {"empty.txt": b"", "binary.txt": bytes(range(256)),
             "malformed.txt": b"1 1\n2\n", "good.txt": b"1 1\n2 1\n3 1\n3 2\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return [str(tmp_path / name) for name in (*files, "missing.txt")] + [str(tmp_path)]


def _fuzz_argv(rng, fixtures):
    command = rng.choice([*FUZZ_WORDS, "bogus", ""])
    argv = [command] if command else []
    words = FUZZ_WORDS.get(command)
    if words and rng.random() < 0.9:
        argv.append(rng.choice(words))
    for _ in range(rng.randint(0, 4)):
        opt = rng.choice(["--max-n", "--n", "--format", "--points", "--fixture", "--skip",
                          "--q1", "--bogus", "-h"])
        argv.append(opt)
        if rng.random() < 0.1:
            continue  # an option without its value
        if opt in ("--max-n", "--n", "--skip"):
            argv.append(rng.choice(FUZZ_INTS))
        elif opt == "--format":
            argv.append(rng.choice(["text", "csv", "json", "xml", ""]))
        elif opt == "--points":
            argv.append(rng.choice(FUZZ_POINTS))
        elif opt == "--fixture":
            argv.append(rng.choice(fixtures))
    return argv


def test_fuzzed_argv_exits_0_1_or_2_without_traceback(tmp_path):
    rng = random.Random(20261019)
    fixtures = _fuzz_fixtures(tmp_path)
    codes = Counter()
    for _ in range(1500):
        argv = _fuzz_argv(rng, fixtures)
        rc, _, err = _exit(argv)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes[rc] += 1
    # the draw reaches every exit code
    assert set(codes) == {0, 1, 2}


# ---------------------------------------------------------------------------
# the table-driven parser against the argparse parser it replaced
# ---------------------------------------------------------------------------


def _reference_parser():
    """The argparse parser the CLI used before its own, the reference the
    differential test reads every argv with."""
    import argparse

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
    p.set_defaults(func=cli.cmd_table)

    p = sub.add_parser("poly", help="print one polynomial")
    p.add_argument("name", choices=tuple(cli.POLY_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cli.cmd_poly)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("all",) + tuple(SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--points", type=cli._points_arg, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("conjecture", help="scan G*_{2n}(q) coefficient positivity")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_conjecture)

    p = sub.add_parser("oeis-check", help="compare q=1 triangles against b-file fixtures")
    p.add_argument("sequence", choices=cli.OEIS_SEQUENCES)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--fixture", default=None, help="b-file path (default: bundled snapshot)")
    p.add_argument("--skip", type=int, default=0, help="drop this many leading fixture terms")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_oeis_check)

    return parser


def _read(parser, argv):
    """``parser``'s exit status on ``argv`` and, when it parses, its namespace."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return 0, vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


# Beyond the fuzz corpus: argv whose reading by argparse is the same on
# Python 3.10-3.13 (argparse's handling of a `--` before the command and of
# `-h` run together with other letters differs between them)
PARSER_CASES = [
    [], [""], ["-h"], ["--help"], ["--he"], ["bogus"], ["bogus", "-h"], ["-h", "bogus"],
    ["--bogus"], ["--bogus", "table", "B"], ["--bogus", "-h"], ["--max-n", "3", "table", "B"],
    # abbreviations and =
    ["table", "B", "--max=3"], ["table", "--max", "3", "B"], ["table", "B", "--max-n=3"],
    ["table", "B", "--max-n=-3"], ["table", "B", "--max-n="], ["table", "B", "--q", "--fo", "csv"],
    ["oeis-check", "A101280", "--f", "x"], ["oeis-check", "A101280", "--f=x"],
    ["oeis-check", "A101280", "--fi", "x"], ["oeis-check", "A101280", "--sk=2", "--fo", "json"],
    ["verify", "all", "--max-n", "3", "--p=2,1/2"],
    # repeats, and options on either side of the positional
    ["table", "B", "--max-n", "3", "--max-n", "4"], ["table", "--max-n", "x", "--max-n", "4", "B"],
    ["table", "--format", "csv", "B", "--format", "json", "--q1"],
    # --
    ["table", "--", "B"], ["table", "--max-n", "3", "--", "B"], ["table", "--", "B", "--max-n", "3"],
    ["table", "--", "--q1"], ["table", "B", "--max-n", "--", "3"], ["-h", "--", "table"],
    # -h before and after a bad token
    ["table", "-h", "z"], ["table", "z", "-h"], ["table", "B", "--bogus", "-h"],
    ["table", "B", "--max-n", "x", "-h"], ["table", "B", "-h", "--max-n", "x"],
    ["poly", "-h"], ["poly", "T", "--he"], ["conjecture", "--help", "--max-n", "x"],
    # negative and empty values
    ["table", "B", "--max-n", "-1"], ["table", "B", "--max-n", "-٣"], ["table", "B", "--max-n", "-1.5"],
    ["verify", "monotone", "--points", "-2"], ["verify", "monotone", "--points", "-.5"],
    ["table", "B", "--max-n", "-1 2"], ["oeis-check", "A101280", "--skip", "-3"],
    ["table", "B", "--max-n", ""], ["table", "B", "--format", ""], ["table", ""],
    ["oeis-check", "A101280", "--fixture", ""],
    # flags with values, unknown options and extra positionals
    ["table", "B", "--q1=x"], ["table", "B", "--help=x"], ["table", "B", "-x"], ["table", "B", "-"],
    ["table", "B", "C"], ["table", "--q1", "B", "C"], ["verify", "all", "--fixture", "x"],
    # missing positionals and required options
    ["poly", "T"], ["poly", "--n", "3"], ["poly"], ["poly", "T", "--n"], ["table"],
    ["conjecture", "x"], ["conjecture", "--max-n", "3", "--format=json"],
]


def test_parser_reads_argv_as_argparse_did(tmp_path):
    # on the fuzz corpus and the cases above, both exit with the same status,
    # and where both parse, every attribute has the same value
    rng = random.Random(20261019)
    fixtures = _fuzz_fixtures(tmp_path)
    reference, parser = _reference_parser(), cli.build_parser()
    argvs = [_fuzz_argv(rng, fixtures) for _ in range(1500)] + PARSER_CASES
    got = [(argv, _read(parser, argv)) for argv in argvs]
    assert [(argv, read) for argv, read in got if read != _read(reference, argv)] == []
    # the comparison covers a parse, a help text and a usage error
    assert {(status, ns is None) for _, (status, ns) in got} == {(0, False), (0, True), (2, True)}


# the parser's own help and usage text, the same at every terminal width
TOP_HELP = """\
usage: qeuler [-h] {table,poly,verify,conjecture,oeis-check} ...

Exact q-Eulerian polynomial triangles, expansions, and checks.

  table       print a coefficient triangle
  poly        print one polynomial
  verify      run a verification suite
  conjecture  scan G*_{2n}(q) coefficient positivity
  oeis-check  compare q=1 triangles against b-file fixtures
  -h, --help  show this help message and exit
"""
OEIS_CHECK_HELP = """\
usage: qeuler oeis-check [-h] [--max-n MAX_N] [--fixture FIXTURE] [--skip SKIP] \
[--format {text,json}] {A101280,A008971}

compare q=1 triangles against b-file fixtures

  --max-n MAX_N
  --fixture FIXTURE     b-file path (default: bundled snapshot)
  --skip SKIP           drop this many leading fixture terms
  --format {text,json}
  -h, --help            show this help message and exit
"""
USAGES = {
    "table": "usage: qeuler table [-h] [--max-n MAX_N] [--q1] [--format {text,csv,json}] {a,b,A,B}",
    "poly": "usage: qeuler poly [-h] --n N [--format {text,csv,json}] {A,B,T,dn,Estar,Gstar,Eq}",
    "verify": "usage: qeuler verify [-h] [--max-n MAX_N] [--points POINTS] [--format {text,json}] "
              "{all,expansionA,expansionB,series,tangent,secant,doubloon,reciprocity,monotone,brackets}",
    "conjecture": "usage: qeuler conjecture [-h] [--max-n MAX_N] [--format {text,json}]",
    "oeis-check": OEIS_CHECK_HELP.partition("\n")[0],
}


@pytest.mark.parametrize("columns", ["20", "200"])
def test_help_and_usage_bytes(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert _exit(["-h"]) == (0, TOP_HELP, "")
    assert _exit(["oeis-check", "--help"]) == (0, OEIS_CHECK_HELP, "")
    for name, usage in USAGES.items():
        status, out, _ = _exit([name, "-h"])
        assert (status, out.partition("\n")[0]) == (0, usage)
    assert _exit([]) == (2, "", f"{TOP_HELP.partition(chr(10))[0]}\n"
                         "qeuler: error: the following arguments are required: command\n")
    assert _exit(["table", "z", "--max-n", "3"]) == (
        2, "", f"{USAGES['table']}\nqeuler table: error: argument family: invalid choice: 'z' "
               "(choose from 'a', 'b', 'A', 'B')\n")
    # an error a command finds after parsing prints qeuler's own usage
    assert _exit(["table", "B", "--max-n", "61"]) == (
        2, "", f"{TOP_HELP.partition(chr(10))[0]}\nqeuler: error: --max-n must be in 1..60\n")


USAGE_ERRORS = [
    (["table", "B", "--max-n", "x"], "argument --max-n: invalid int value: 'x'"),
    (["table", "B", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'csv', 'json')"),
    (["poly", "T"], "the following arguments are required: --n"),
    (["poly", "--format", "json"], "the following arguments are required: name, --n"),
    (["table", "B", "--max-n"], "argument --max-n: expected one argument"),
    (["table", "B", "--max-n", "--q1"], "argument --max-n: expected one argument"),
    (["oeis-check", "A101280", "--refresh", "x"], "unrecognized arguments: --refresh x"),
    (["--bogus", "table", "B"], "unrecognized arguments: --bogus"),
    (["oeis-check", "A101280", "--f", "x"], "ambiguous option: --f could match --fixture, --format"),
    (["table", "B", "--q1=x"], "argument --q1: ignored explicit argument 'x'"),
    (["verify", "monotone", "--points", "2,x"],
     "argument --points: bad points list: entry 2, 'x': not an integer or a fraction a/b"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_errors_keep_argparse_wording(argv, message):
    status, out, err = _exit(argv)
    assert (status, out) == (2, "")
    # arguments no parser takes are reported at the top level, as argparse did
    prog = "qeuler" if message.startswith("unrecognized") else f"qeuler {argv[0]}"
    assert err.splitlines()[-1] == f"{prog}: error: {message}"


def test_readme_shows_the_help_text():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert TOP_HELP in readme
    assert all(usage[len("usage: "):] in readme for usage in USAGES.values())
