import hashlib
import json
import subprocess
import sys

import pytest

from qeuler.cli import (
    DEFAULT_POINTS,
    SUITES,
    main,
    parse_bfile,
    run_oeis_check,
    suite_doubloon,
    suite_monotone,
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


# Reference digests of data output: the row engine and the renderers must
# keep these bytes.
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
    for name, suite in SUITES.items():
        report = suite(4 if name != "doubloon" else 2, DEFAULT_POINTS)
        assert report.ok, name


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


def test_oeis_check_missing_fixture_usage_error(tmp_path):
    proc = run_cli("oeis-check", "A101280", "--fixture", str(tmp_path / "nope.txt"))
    assert proc.returncode == 2


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
    report = suite_doubloon(1)
    assert report.wall_time_s >= 0
    report = suite_monotone(3, (2,))
    assert report.ok
