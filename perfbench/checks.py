"""Output checks for the benchmark.  A cold operation fails when it exits
non-zero, when a verify report is not ``status: pass`` or a conjecture scan
is not ``consistent``, when the q = 1 values it prints disagree with the
benchmark's own integer code (:mod:`oracle`), or when the sha256 of its
output differs from the digest recorded at the baseline commit."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

from oracle import TRIANGLES, gamma_a, secant


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def output_digest(argv: list[str], out: bytes) -> str:
    """sha256 of the output; verify reports drop their ``wall_time_s`` field,
    the one part of them that is not deterministic."""
    if argv[0] == "verify":
        docs = []
        for line in out.decode().splitlines():
            doc = json.loads(line)
            doc.pop("wall_time_s", None)
            docs.append(json.dumps(doc, sort_keys=True))
        out = "\n".join(docs).encode()
    return hashlib.sha256(out).hexdigest()


def value_at_one(rendered: str) -> int:
    """q = 1 value of a polynomial in qeuler's text rendering,
    e.g. ``2 + 4q + 4q^2 - q^3``."""
    total = 0
    for term in rendered.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        digits = re.match(r"\d*", body).group()
        total += sign * (int(digits) if digits else 1)
    return total


def _table_values(argv: list[str], text: str) -> dict[int, list[int]]:
    """q = 1 entries of each printed row, by n."""
    q1 = "--q1" in argv
    fmt = argv[argv.index("--format") + 1]
    rows: dict[int, list[int]] = {}
    if fmt == "json":
        for row in json.loads(text)["rows"]:
            rows[row["n"]] = [
                e if q1 else sum(int(c) for c in e["coeffs"]) for e in row["entries"]
            ]
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != ["n", "k", "value"]:
            raise ValueError("bad csv header")
        for n, _k, v in reader:
            rows.setdefault(int(n), []).append(int(v) if q1 else value_at_one(v))
    elif q1:
        for line in text.splitlines():
            head, _, body = line.partition(": ")
            rows[int(head[2:])] = [int(v) for v in body.split()]
    else:
        for line in text.splitlines():
            head, _, body = line.partition(" = ")
            n = int(head[2:].split(",")[0])
            rows.setdefault(n, []).append(value_at_one(body))
    return rows


def check_table(argv: list[str], text: str) -> list[str]:
    family, max_n = argv[1], int(argv[3])
    first, _, q1_row, row_identity = TRIANGLES[family]
    rows = _table_values(argv, text)
    problems = []
    if sorted(rows) != list(range(first, max_n + 1)):
        problems.append(f"rows {sorted(rows)[:3]}... do not cover {first}..{max_n}")
    for n, row in rows.items():
        if row != list(q1_row(n)):
            problems.append(f"{family} row n={n} at q=1 differs from the integer recurrence")
        elif not row_identity(n, row):
            problems.append(f"{family} row n={n} fails its row-sum identity")
    return problems


def check_conjecture(text: str) -> list[str]:
    lines = text.splitlines()
    problems = []
    if lines[-1] != "overall: consistent":
        problems.append(f"verdict line {lines[-1]!r}")
    for line in lines[1:-1]:
        n, _deg, _min, at_one, sec, _pal, verdict = line.split()
        n = int(n)
        if verdict != "consistent":
            problems.append(f"n={n} verdict {verdict}")
        if int(at_one) != secant(n) or int(sec) != secant(n):
            problems.append(f"n={n}: G*(1)={at_one}, secant={sec}, zigzag E_{2*n}={secant(n)}")
    return problems


def check_verify(text: str) -> list[str]:
    problems = []
    for line in text.splitlines():
        doc = json.loads(line)
        if doc["status"] != "pass" or doc["counters"]["fail"]:
            problems.append(f"suite {doc['suite']} status {doc['status']}")
        if doc["suite"] == "doubloon":
            for n, item in enumerate(doc["items"], 1):
                count = int(item["detail"].removeprefix("count="))
                if count != gamma_a(2 * n + 1)[n]:
                    problems.append(f"order {2*n+1}: {count} interlaced doubloons")
    return problems


def check_cli(argv: list[str], rc: int, out: bytes) -> list[str]:
    """Problems with one CLI operation's exit code and output."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        text = out.decode()
        if argv[0] == "table":
            return check_table(argv, text)
        if argv[0] == "conjecture":
            return check_conjecture(text)
        return check_verify(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]


def compare_digest(argv: list[str], digest: str, expected: dict[str, str]) -> list[str]:
    want = expected.get(argv_key(argv))
    if want is None:
        return ["no recorded digest"]
    if want != digest:
        return [f"sha256 {digest[:12]} != recorded {want[:12]}"]
    return []
