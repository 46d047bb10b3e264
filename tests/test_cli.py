import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qeuler import eulerian
from qeuler.cli import (
    CONJECTURE_MAX_N,
    DEFAULT_POINTS,
    SUITES,
    main,
    parse_bfile,
    run_oeis_check,
    run_suite,
)
from qeuler.serialize import from_json


def run_cli(*args, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "qeuler", *args],
        capture_output=True,
        text=not binary,
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


def test_verify_monotone_with_points():
    proc = run_cli("verify", "monotone", "--max-n", "6", "--points", "2,3/2,1/2")
    assert proc.returncode == 0


def test_verify_bad_points_usage_error():
    assert run_cli("verify", "monotone", "--points", "2,x").returncode == 2


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


BAD_FIXTURES = {"bad value": "1 1\n2 x\n", "three columns": "1 1 1\n"}


@pytest.mark.parametrize("case", ["negative skip", *BAD_FIXTURES, "directory"])
def test_oeis_check_bad_input_exits_2(tmp_path, case):
    args = ["oeis-check", "A101280", "--max-n", "3"]
    if case == "negative skip":
        args += ["--skip", "-5"]
    elif case == "directory":
        args += ["--fixture", str(tmp_path)]
    else:
        path = tmp_path / "fixture.txt"
        path.write_text(BAD_FIXTURES[case])
        args += ["--fixture", str(path)]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


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


def test_divisibility_check_in_expected():
    report = run_oeis_check("A008971", 10, "\n".join(f"{i} 0" for i in range(1, 40)))
    # divisibility by 4^k always holds for the real triangle, so the only
    # failure is the value mismatch against the all-zero fixture
    assert [i.name for i in report.items if i.status == "fail"] == [
        f"{len([None for n in range(1, 11) for _ in range(0, n // 2 + 1)])} terms match"
    ]


# ---------------------------------------------------------------------------
# in-process entry point
# ---------------------------------------------------------------------------


def test_main_in_process(capsys):
    assert main(["poly", "T", "--n", "2"]) == 0
    assert capsys.readouterr().out == "2 + 4q + 4q^2 + 4q^3 + 2q^4\n"


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "z"])
    assert exc.value.code == 2


def test_suite_functions_report_wall_time():
    report = run_suite("doubloon", 1)
    assert report.wall_time_s >= 0
    report = run_suite("monotone", 3, (2,))
    assert report.ok
