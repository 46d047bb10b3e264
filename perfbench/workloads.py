"""Seeded input generators for the three benchmark workloads.

Nothing here imports qeuler: the program under test receives only the argv
lists (cold workloads) or call lists (``session``) built from the seed.

Inputs come in *decks*.  A deck holds a fixed multiset of operation kinds
(every family and size the workload draws from), and the seed chooses the
order and the free parameters (format, ``--q1``, sample points, entry
indices).  Timed runs execute whole decks, so every seed runs the same mix
of work.  Each kind is spread evenly through its deck, so that a traced
run, which stops part way through a deck, still sees close to the full mix.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("tables", "checks", "session")

# table F --max-n N: N ranges per family.
TABLE_N = {"A": range(16, 31), "a": range(20, 41), "B": range(12, 25), "b": range(16, 31)}
TABLE_FORMATS = ("text", "json", "csv")
TABLE_Q1_RATE = 0.2

# verify <suite> --max-n N --format json, and conjecture --max-n N.  The
# multiplicity spreads the time across the layers ``tables`` bypasses: dense
# and TQPoly products (series, expansionA/B), exact division and substitution
# (conjecture, tangent, secant), Fraction evaluation (monotone, rational
# identities), and order-9 brute-force doubloons, kept to about a sixth of
# the time.
CHECK_KINDS = {
    # name: (argv prefix, N values, copies per deck)
    "series": (("verify", "series"), range(8, 11), 2),
    "expansionA": (("verify", "expansionA"), range(8, 14), 1),
    "expansionB": (("verify", "expansionB"), range(8, 14), 1),
    "tangent": (("verify", "tangent"), range(8, 14), 1),
    "secant": (("verify", "secant"), range(8, 12), 1),
    "conjecture": (("conjecture",), range(8, 14), 1),
    "monotone": (("verify", "monotone"), range(8, 14), 3),
    "reciprocity": (("verify", "reciprocity"), range(8, 14), 1),
    "brackets": (("verify", "brackets"), range(8, 14), 1),
    "doubloon": (("verify", "doubloon"), range(4, 5), 1),
}

# Monotone sample points: one above 1 and one in (0, 1) per call.
POINTS_ABOVE = ("3/2", "2", "7/3", "5/2", "3", "5/4")
POINTS_BELOW = ("1/2", "2/3", "3/4", "2/5", "1/3", "4/5")

SESSION_MAX_N = 14
SESSION_FAMILY_MAX_N = 7  # g_star / d_poly


def _spread(rng: random.Random, groups: list[list]) -> list:
    """Interleave the groups so that each is spread evenly over the result:
    item i of a group of size m sits at (i + u) / m for one random offset
    u per group, and the result is sorted by that position."""
    keyed = []
    for group in groups:
        rng.shuffle(group)
        u = rng.random()
        m = len(group)
        keyed.extend(((i + u) / m, rng.random(), item) for i, item in enumerate(group))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def tables_decks(rng: random.Random) -> Iterator[list[list[str]]]:
    """Every (family, N) once per deck.  Each family's calls are dealt the
    three formats evenly, and the formats rotate from deck to deck, so that
    any three consecutive decks print every (family, N) in every format;
    ``--q1`` is dealt to a fifth of each family's calls in each deck."""
    offsets = {}
    for family, ns in TABLE_N.items():
        offsets[family] = [i % len(TABLE_FORMATS) for i in range(len(ns))]
        rng.shuffle(offsets[family])
    turn = 0
    while True:
        groups = []
        for family, ns in TABLE_N.items():
            m = len(ns)
            q1 = [i < round(m * TABLE_Q1_RATE) for i in range(m)]
            rng.shuffle(q1)
            formats = [TABLE_FORMATS[(o + turn) % len(TABLE_FORMATS)] for o in offsets[family]]
            groups.append([
                ["table", family, "--max-n", str(n), "--format", fmt] + (["--q1"] if flag else [])
                for n, fmt, flag in zip(ns, formats, q1)
            ])
        yield _spread(rng, groups)
        turn += 1


def checks_deck(rng: random.Random) -> list[list[str]]:
    groups = []
    for kind, (prefix, ns, copies) in CHECK_KINDS.items():
        group = []
        for _ in range(copies):
            for n in ns:
                argv = [*prefix, "--max-n", str(n)]
                if kind == "monotone":
                    argv += ["--points", f"{rng.choice(POINTS_ABOVE)},{rng.choice(POINTS_BELOW)}"]
                if kind != "conjecture":
                    argv += ["--format", "json"]
                group.append(argv)
        groups.append(group)
    return _spread(rng, groups)


def _point(rng: random.Random) -> Fraction:
    pool = POINTS_ABOVE if rng.random() < 0.5 else POINTS_BELOW
    return Fraction(rng.choice(pool))


def session_deck(rng: random.Random) -> list[tuple]:
    """Calls ``(name, args)``; names are resolved against the public API by
    the session runner.  Every call has n <= 14."""
    N = SESSION_MAX_N
    groups = []
    entries = []
    for fam, lo, kmax in (
        ("carlitz_entry", 1, lambda n: n),
        ("gamma_a_entry", 1, lambda n: (n + 1) // 2),
        ("typeB_entry", 0, lambda n: n),
        ("gamma_b_entry", 0, lambda n: n // 2),
    ):
        for _ in range(15):
            n = rng.randint(1, N)
            entries.append((fam, (n, rng.randint(lo, kmax(n)))))
    groups.append(entries)
    groups.append([("gamma_expand_A", (n,)) for n in range(1, N + 1)]
                  + [("gamma_expand_B", (n,)) for n in range(1, N + 1)])
    basis = []
    for _ in range(10):
        n = rng.randint(1, N)
        basis.append(("basis_change_A", (n, rng.randint(1, n))))
        n = rng.randint(1, N)
        basis.append(("basis_change_B", (n, rng.randint(0, n))))
    groups.append(basis)
    groups.append([("reciprocity_A", (n,)) for n in range(1, N + 1)]
                  + [("reciprocity_B", (n,)) for n in range(0, N + 1)])
    groups.append([("monotone_check_A", (rng.randint(2, N), _point(rng))) for _ in range(14)]
                  + [("monotone_check_B", (rng.randint(2, N), _point(rng))) for _ in range(14)])
    M = SESSION_FAMILY_MAX_N
    groups.append([("g_star", (n,)) for n in range(0, M + 1)]
                  + [("d_poly", (n,)) for n in range(1, M + 1)])
    brackets = []
    for _ in range(30):
        n = rng.randint(1, N)
        k = rng.randint(1, n)
        brackets.append(("bracket_identity_A", (n, k, rng.randint(1, k))))
    groups.append(brackets)
    return _spread(rng, groups)


def _endless(make):
    def gen(rng: random.Random) -> Iterator[list]:
        while True:
            yield make(rng)

    return gen


DECKS = {
    "tables": tables_decks,
    "checks": _endless(checks_deck),
    "session": _endless(session_deck),
}


def decks(workload: str, seed: int) -> Iterator[list]:
    """Endless stream of the workload's decks for this seed."""
    return DECKS[workload](random.Random(f"{workload}:{seed}"))


def schedule(workload: str, seed: int, seconds: float, whole_decks: bool = True,
             pause=None, pauses: int = 0) -> Iterator:
    """The operations of one run: decks until ``seconds`` of running have
    passed, checked at the end of each deck, or after every operation when
    ``whole_decks`` is false.  ``pause()``, when given, is called between
    operations about ``pauses`` times, evenly over the run; time spent in
    it does not count."""
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    interval = seconds / (pauses + 1) if pause else float("inf")
    next_pause = start + interval
    for deck in decks(workload, seed):
        for op in deck:
            yield op
            now = clock()
            if not whole_decks and now >= deadline:
                return
            if now >= next_pause and now < deadline:
                pause()
                deadline += clock() - now
                next_pause = clock() + interval
        if clock() >= deadline:
            return


def all_argvs(workload: str) -> list[list[str]]:
    """Every argv the generator can draw for a cold workload; the recorded
    digests must cover exactly this set."""
    out = []
    if workload == "tables":
        for family, ns in TABLE_N.items():
            for n in ns:
                for fmt in TABLE_FORMATS:
                    base = ["table", family, "--max-n", str(n), "--format", fmt]
                    out += [base, base + ["--q1"]]
    elif workload == "checks":
        for kind, (prefix, ns, _) in CHECK_KINDS.items():
            for n in ns:
                argv = [*prefix, "--max-n", str(n)]
                if kind == "monotone":
                    out += [
                        argv + ["--points", f"{hi},{lo}", "--format", "json"]
                        for hi in POINTS_ABOVE
                        for lo in POINTS_BELOW
                    ]
                elif kind == "conjecture":
                    out.append(argv)
                else:
                    out.append(argv + ["--format", "json"])
    else:
        raise ValueError(f"{workload} has no argv space")
    return out
