"""The benchmark's own integer arithmetic: q = 1 values the outputs are
checked against.  Independent of qeuler by construction (no import)."""

from __future__ import annotations

from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def eulerian_A(n: int) -> tuple[int, ...]:
    """Eulerian numbers A(n,k), k = 1..n: A(n,k) = k A(n-1,k) + (n-k+1) A(n-1,k-1)."""
    if n == 1:
        return (1,)
    prev = eulerian_A(n - 1)
    at = lambda k: prev[k - 1] if 1 <= k <= n - 1 else 0
    return tuple(k * at(k) + (n - k + 1) * at(k - 1) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def eulerian_B(n: int) -> tuple[int, ...]:
    """Type-B Eulerian numbers, k = 0..n: B(n,k) = (2k+1) B(n-1,k) + (2n-2k+1) B(n-1,k-1)."""
    if n == 0:
        return (1,)
    prev = eulerian_B(n - 1)
    at = lambda k: prev[k] if 0 <= k <= n - 1 else 0
    return tuple((2 * k + 1) * at(k) + (2 * n - 2 * k + 1) * at(k - 1) for k in range(n + 1))


@lru_cache(maxsize=None)
def gamma_a(n: int) -> tuple[int, ...]:
    """k = 1..(n+1)//2: a(n,k) = k a(n-1,k) + 2(n+2-2k) a(n-1,k-1)."""
    if n == 1:
        return (1,)
    prev = gamma_a(n - 1)
    at = lambda k: prev[k - 1] if 1 <= k <= n // 2 else 0
    return tuple(k * at(k) + 2 * (n + 2 - 2 * k) * at(k - 1) for k in range(1, (n + 1) // 2 + 1))


@lru_cache(maxsize=None)
def gamma_b(n: int) -> tuple[int, ...]:
    """k = 0..n//2: b(n,k) = (2k+1) b(n-1,k) + 4(n+1-2k) b(n-1,k-1)."""
    if n == 0:
        return (1,)
    prev = gamma_b(n - 1)
    at = lambda k: prev[k] if 0 <= k <= (n - 1) // 2 else 0
    return tuple(
        (2 * k + 1) * at(k) + 4 * (n + 1 - 2 * k) * at(k - 1) for k in range(n // 2 + 1)
    )


# family -> (first row, first column, q=1 row, weighted row-sum identity)
TRIANGLES = {
    "A": (1, 1, eulerian_A, lambda n, row: sum(row) == factorial(n)),
    "a": (
        1,
        1,
        gamma_a,
        lambda n, row: sum(v * 2 ** (n + 1 - 2 * k) for k, v in enumerate(row, 1)) == factorial(n),
    ),
    "B": (0, 0, eulerian_B, lambda n, row: sum(row) == 2**n * factorial(n)),
    "b": (
        1,
        0,
        gamma_b,
        lambda n, row: sum(v * 2 ** (n - 2 * k) for k, v in enumerate(row)) == 2**n * factorial(n),
    ),
}


@lru_cache(maxsize=None)
def zigzag(m: int) -> tuple[int, ...]:
    """Euler zigzag numbers E_0..E_m by Seidel's boustrophedon:
    E_{2n} are the secant numbers, E_{2n+1} the tangent numbers."""
    out = [1]
    row = [1]
    for _ in range(m):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return tuple(out)


def secant(n: int) -> int:
    return zigzag(2 * n)[2 * n]


def tangent(n: int) -> int:
    """E_{2n+1}."""
    return zigzag(2 * n + 1)[2 * n + 1]
