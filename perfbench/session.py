"""The warm ``session`` workload: small public-API calls in one process,
each checked after it returns."""

from __future__ import annotations

from fractions import Fraction

import qeuler
from qeuler import serialize

from oracle import TRIANGLES, eulerian_A, eulerian_B, secant, tangent
from workloads import SESSION_FAMILY_MAX_N, SESSION_MAX_N

ENTRY_FAMILY = {
    "carlitz_entry": "A",
    "gamma_a_entry": "a",
    "typeB_entry": "B",
    "gamma_b_entry": "b",
}
PREDICATES = {
    "reciprocity_A",
    "reciprocity_B",
    "monotone_check_A",
    "monotone_check_B",
    "bracket_identity_A",
}


def _at_one(p) -> int:
    return sum(p.coeffs)


def _round_trip(fn):
    def op(n):
        p = fn(n)
        text = serialize.dumps(p)
        return p, serialize.loads(text), len(text)

    return op


class Session:
    """Resolves call names against the public API at construction, so that
    wrappers installed later by the tracer are picked up only by a new
    Session."""

    def __init__(self):
        self.fns = {name: getattr(qeuler, name) for name in (*ENTRY_FAMILY, *PREDICATES)}
        for name in ("gamma_expand_A", "gamma_expand_B", "basis_change_A", "basis_change_B"):
            self.fns[name] = getattr(qeuler, name)
        self.fns["g_star"] = _round_trip(qeuler.g_star)
        self.fns["d_poly"] = _round_trip(qeuler.d_poly)
        self.serialized_bytes = 0

    def call(self, op):
        name, args = op
        return self.fns[name](*args)

    def warm_up(self, deck) -> None:
        """Fill the row and q-binomial caches for every n the deck can draw."""
        for n in range(1, 2 * SESSION_FAMILY_MAX_N + 2):
            qeuler.carlitz_entry(n, 1)
            qeuler.typeB_entry(n, 0)
        for n in range(1, SESSION_MAX_N + 1):
            qeuler.gamma_a_entry(n, 1)
            qeuler.gamma_b_entry(n, 0)
            for k in range(1, n + 1):
                qeuler.basis_change_A(n, k)
            for k in range(0, n + 1):
                qeuler.basis_change_B(n, k)
        for op in deck:
            self.call(op)

    def check(self, op, result) -> str | None:
        """A description of what is wrong with the result, or None."""
        name, args = op
        if name in PREDICATES:
            return None if result is True else f"{name}{args} returned {result!r}"
        if name in ENTRY_FAMILY:
            n, k = args
            _, first_k, q1_row, _ = TRIANGLES[ENTRY_FAMILY[name]]
            want = q1_row(n)[k - first_k]
            got = _at_one(result)
        elif name.startswith("gamma_expand"):
            want = list((eulerian_A if name.endswith("A") else eulerian_B)(args[0]))
            got = [sum(c.base.coeffs) for c in result.terms]
        elif name == "basis_change_A":
            n, k = args
            want, got = eulerian_A(n)[k - 1], _at_one(result)
        elif name == "basis_change_B":
            n, k = args
            want, got = eulerian_B(n)[k], _at_one(result)
        else:
            p, back, nbytes = result
            self.serialized_bytes += nbytes
            if back != p:
                return f"{name}{args}: from_json(to_json(p)) != p"
            n = args[0]
            want = secant(n) if name == "g_star" else Fraction(tangent(n), 2**n)
            got = _at_one(p)
        return None if got == want else f"{name}{args} at q=1: {got} != {want}"
