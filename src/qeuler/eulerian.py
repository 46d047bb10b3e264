"""The q-Eulerian coefficient triangles, their generating polynomials, and
the two triangles whose central entries are the tangent and secant quotients.

Every triangle is built by one two-term recurrence of one shape,

    P[n,k] = [u]_q P[n-1,k] + q^e prod_{f in fs} (1 + q^f) [v]_{q^s} P[n-1,k-1].

The ``FAMILIES`` table gives, per family, the column range ``krange(n)``,
the seed row ``(1,)`` at ``seed_n``, the first public row ``first_n``,
``alpha(n,k) = u``, ``beta(n,k) = (e, fs, v)`` and the stride ``s``:

* ``A`` -- Carlitz q-Eulerian coefficients ``A[n,k]``, ``1 <= k <= n``,
  ``A[n,k] = [k] A[n-1,k] + q^(k-1) [n+1-k] A[n-1,k-1]``.
* ``a`` -- the gamma coefficients of the type-A expansion,
  ``1 <= k <= (n+1)//2``,
  ``a[n,k] = [k] a[n-1,k] + q^(k-1) (1 + q^(k-1)) [n+2-2k] a[n-1,k-1]``.
* ``B`` -- Chow-Gessel type-B q-Eulerian coefficients ``B[n,k]``,
  ``0 <= k <= n``,
  ``B[n,k] = [2k+1] B[n-1,k] + q^(2k-1) [2n-2k+1] B[n-1,k-1]``.
* ``b`` -- the type-B gamma coefficients, ``0 <= k <= n//2``,
  ``b[n,k] = [2k+1] b[n-1,k] + q^(2k-1) [2]_q (1 + q^(2k-1)) [n+1-2k]_{q^2} b[n-1,k-1]``,
  which is the shape above with ``v = 2(n+1-2k)``, since
  ``[2]_q [m]_{q^2} = [2m]_q``; it seeds at ``b[0,0] = 1`` (forced by
  ``B_0(t,q) = 1``) and is public from n=1.
* ``abar`` and ``btilde`` -- ``a`` and ``b`` with the factors that every
  step raising ``k`` carries taken out, ``a[n,k] = q^C(k,2) prod_{i<k}
  (1 + q^i) abar[n,k]`` and ``b[n,k] = q^(k^2) prod_{i<=k} (1 + q^(2i-1))
  (1 + q)^k btilde[n,k]``, so that their ``beta`` is ``[n+2-2k]`` and
  ``[n+1-2k]_{q^2}`` alone.  Every ``u`` and ``v`` is at least 1 on
  ``krange(n)``, so their entries, sums of products of q-integers, lie in
  N[q].  Their central entries are ``d_n`` and ``G*_{2n}``.

As ``[m]_{q^s} = (1 - q^(s m)) / (1 - q^s)``, each entry times ``1 - q^s`` is
``[s] (x - q^u x) + q^e y' - q^(e+s v) y'``, where ``x = P[n-1,k]``,
``y = P[n-1,k-1]``, and ``y' = y prod_f (1 + q^f)`` and ``[s] x`` take one
pass each; the entry is its running sums along each residue class mod ``s``:
O(degree) per entry, and no product of two polynomials.  The passes run over
each entry's support only: they start at the lowest power that ``x`` or
``q^e y`` reaches, and the zeros below it are prepended once.  That matters
because ``A[n,k]`` and ``B[n,k]`` have ``C(k,2)`` and ``k^2`` leading zeros:
the rows of ``A`` to 30 hold 67,890 coefficients, of which 31,930 are past
each entry's leading zeros.

``A_n(t,q) = sum_k A[n,k] t^(k-1)`` and ``B_n(t,q) = sum_k B[n,k] t^k`` are
also definable through their generating series

    sum_{k>=0} [k+1]^n t^k = A_n(t,q) / (t;q)_{n+1}
    sum_{k>=0} [2k+1]^n t^k = B_n(t,q) / (t;q^2)_{n+1}

which the ``*_series_oracle`` functions implement as independent
cross-checks of the recurrence route.  They share one body, which works on
the identity multiplied by ``(1 - q)^n``: each column ``(1 - q)^n [m]^n`` is
``(1 - q^m)^n``, written down from its ``n + 1`` binomial terms; the
Pochhammer product is applied one factor ``1 - t q^e`` at a time, as
``c_d - q^e c_(d-1)`` on the truncated columns; and the kept columns are
divided back by ``(1 - q)^n`` as ``n`` prefix-sum passes.  No two polynomials
are multiplied.  The oracles read neither ``FAMILIES`` nor the row builders,
so they stay independent of the recurrences they check.

Both gamma expansions have one shape: with ``s = 1`` and ``g_j = a[n,j+1]``,
or ``s = 2`` and ``g_j = b[n,j]``, ``A_n(t,q)`` or ``B_n(t,q)`` is

    sum_j g_j t^j (-t q^(s j+1); q^s)_(n+s-2-2j),

and by the q-binomial theorem its ``t^i`` coefficient, ``A[n,i+1]`` or
``B[n,i]``, is ``sum_{j<=i} [n+s-2-2j choose d]_{q^s} q^(s C(d,2) + (s j+1) d) g_j``
with ``d = i-j``.  ``gamma_expand_*`` and ``basis_change_*`` use these sums.

The ``*_entry`` functions and the generating polynomials read rows of ``A``,
``a``, ``B`` and ``b`` built once, bottom up, and cached.  :func:`iter_rows`
walks the same row step without the cache, for readers that need each row
once and in order, and with a lag it walks only the dependency cone of the
entries near the diagonal: each central entry that the q-tangent and q-secant
families read comes from one such stream per family.
:func:`iter_point_rows` walks the recurrence at a point ``q = a/b`` in Z,
row ``n`` times ``b^D_n``, so the values at the point cost no q-row, and
:func:`iter_q1_rows` is its ``q = 1`` case, where ``[m]_{q^s}`` is ``m`` and
each ``1 + q^f`` is 2; they share the package's one integer row engine with
``classical_gamma_a/b``, which keep their own coefficients as independent
``q = 1`` references.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import accumulate, compress, count
from math import comb, prod
from operator import add, mul, sub

from .qring import QLaurent, QPoly, RatLike, TQPoly, poch_t, q_int


# ``(e, fs, v)`` stands for ``q^e prod_{f in fs} (1 + q^f) [v]_{q^s}``.
Beta = tuple[int, tuple[int, ...], int]


class Family(namedtuple("Family", "first_n seed_n krange alpha beta stride", defaults=(1,))):
    """One triangle of the two-term recurrence (see the module docstring):
    ``first_n`` and ``seed_n`` are row numbers, ``krange(n)`` is the
    ``range`` of columns of row ``n``, ``alpha(n, k)`` is the ``u`` of
    ``[u]_q`` and ``beta(n, k)`` the :data:`Beta` spec ``(e, fs, v)``."""

    __slots__ = ()


FAMILIES = {
    "A": Family(
        first_n=1,
        seed_n=1,
        krange=lambda n: range(1, n + 1),
        alpha=lambda n, k: k,
        beta=lambda n, k: (k - 1, (), n + 1 - k),
    ),
    "a": Family(
        first_n=1,
        seed_n=1,
        krange=lambda n: range(1, (n + 1) // 2 + 1),
        alpha=lambda n, k: k,
        beta=lambda n, k: (k - 1, (k - 1,), n + 2 - 2 * k),
    ),
    "B": Family(
        first_n=0,
        seed_n=0,
        krange=lambda n: range(0, n + 1),
        alpha=lambda n, k: 2 * k + 1,
        beta=lambda n, k: (2 * k - 1, (), 2 * n - 2 * k + 1),
    ),
    "b": Family(
        first_n=1,
        seed_n=0,
        krange=lambda n: range(0, n // 2 + 1),
        alpha=lambda n, k: 2 * k + 1,
        beta=lambda n, k: (2 * k - 1, (2 * k - 1,), 2 * (n + 1 - 2 * k)),
    ),
}
# a and b with the factors of each step that raises k taken out (see above)
FAMILIES["abar"] = FAMILIES["a"]._replace(beta=lambda n, k: (0, (), n + 2 - 2 * k))
FAMILIES["btilde"] = FAMILIES["b"]._replace(beta=lambda n, k: (0, (), n + 1 - 2 * k), stride=2)


def _recur(x: tuple[int, ...], u: int, y: tuple[int, ...], beta: Beta, s: int = 1) -> QPoly:
    """``[u] x + q^e prod_f (1 + q^f) [v]_{q^s} y`` for ``beta = (e, fs, v)``,
    from the coefficients ``x`` and ``y`` of two ``QPoly`` values (empty for
    a zero operand), as the running sums of the module docstring.  Each
    operand is read from its first nonzero coefficient: every partial sum
    below ``min(vx, e + vy)``, the lowest power that ``x`` or ``q^e y``
    reaches, is 0, so the sums start there and those zeros are prepended."""
    e, fs, v = beta
    if x:
        vx = next(compress(count(), x))
        x = x[vx:]
        if s > 1:  # [s] x, the sum of s shifted copies of x
            x = tuple(map(sum, zip(*[(0,) * i + x + (0,) * (s - 1 - i) for i in range(s)])))
    if y:  # B and b have no y at k = 0, where e is -1
        vy = next(compress(count(), y))
        y = y[vy:]
        for f in fs:
            pad = (0,) * f
            y = tuple([*map(add, y + pad, pad + y)])
        vy += e
        low = min(vx, vy) if x else vy
    elif x:
        low = vx
    else:
        return QPoly()
    lx, ly = len(x), len(y)
    out = [0] * (max(vx + u + lx if x else 0, vy + s * v + ly if y else 0) - low)
    if x:
        i = vx - low
        out[i:i + lx] = x
        i += u
        out[i:i + lx] = map(sub, out[i:i + lx], x)
    if y:
        i = vy - low
        out[i:i + ly] = map(add, out[i:i + ly], y)
        i += s * v
        out[i:i + ly] = map(sub, out[i:i + ly], y)
    # 1 - q^s divides the whole, so the last s prefix sums (one per class) are 0
    del out[-s:]
    if s == 1:  # one residue class: a plain running sum, with no slice copies
        return QPoly([*[0] * low, *accumulate(out)])
    for r in range(s):
        out[r::s] = accumulate(out[r::s])
    return QPoly([0] * low + out)


# ---------------------------------------------------------------------------
# The row engine
# ---------------------------------------------------------------------------


def _next_row(fam: Family, n: int, prev: tuple[QPoly, ...]) -> tuple[QPoly, ...]:
    """Row ``n`` of ``fam``, entries in ``krange(n)`` order, from row ``n-1``."""
    pk = fam.krange(n - 1)
    return tuple([
        _recur(prev[k - pk.start].coeffs if k in pk else (), fam.alpha(n, k),
               prev[k - 1 - pk.start].coeffs if k - 1 in pk else (), fam.beta(n, k),
               fam.stride)
        for k in fam.krange(n)
    ])


def _row_builder(family: str) -> Callable[[int], tuple[QPoly, ...]]:
    """The cached ``row(n)`` of ``family``, entries in ``krange(n)`` order."""
    fam = FAMILIES[family]

    @lru_cache(maxsize=None)
    def row(n: int) -> tuple[QPoly, ...]:
        if n < fam.seed_n:
            raise ValueError(f"family {family} rows start at n={fam.seed_n}, got {n}")
        if n == fam.seed_n:
            return (QPoly.one(),)
        # The cache holds rows seed_n, seed_n+1, ... without a gap, so the rows
        # missing below n are built bottom up, each finding its predecessor
        # cached: the call depth stays constant whatever n is.
        for m in range(fam.seed_n + row.cache_info().currsize, n):
            row(m)
        return _next_row(fam, n, row(n - 1))

    return row


def iter_rows(family: str, N: int, lag: int | None = None
              ) -> Iterator[tuple[int, tuple[QPoly, ...]]]:
    """``(n, row(n))`` for ``n = first_n..N`` of ``family``, each row built
    from the one before it and none cached: a reader of the rows in order
    holds two rows at a time, not the triangle.

    With ``lag``, row ``n`` holds only its columns ``k >= kmin(n) = n - lag``,
    in ``krange(n)`` order from the first of them.  A row step keeps ``k`` or
    raises it by one, so these are the entries that the entries ``(n, k)``
    with ``n - k <= lag`` depend on: their dependency cone."""
    fam = FAMILIES[family]
    if N < fam.first_n:
        raise ValueError(f"family {family} needs N >= {fam.first_n}, got {N}")
    if lag is not None:
        # the one row step reads the columns of the previous row, and builds
        # those of its own, through krange: the cone is the family with
        # krange bounded below
        full = fam.krange

        def krange(n: int) -> range:
            kr = full(n)
            return range(max(kr.start, n - lag), kr.stop)

        fam = fam._replace(krange=krange)
    row = (QPoly.one(),)
    for n in range(fam.seed_n, N + 1):
        if n > fam.seed_n:
            row = _next_row(fam, n, row)
        if n >= fam.first_n:
            yield n, row


# Callers name these module attributes instead of reaching them through the
# table, so a profiler that rebinds them (perfbench/tracing.py) sees every call.
_carlitz_row = _row_builder("A")
_gamma_a_row = _row_builder("a")
_typeB_row = _row_builder("B")
_gamma_b_row = _row_builder("b")


# The central entries by n of each family that has them, each tuple filled
# by one cone stream (see _central_entry).
_CENTRAL: dict[str, tuple[QPoly, ...]] = {"a": (), "b": (), "abar": (), "btilde": ()}


def _central_entry(family: str, n: int) -> QPoly:
    """The central entry ``[2n + seed_n, n + seed_n]`` of ``family``, the
    last entry of its row, read from the cache.

    A miss streams the dependency cone of lag ``n`` (:func:`iter_rows`).  That
    cone holds the central entry of every ``n' <= n``, so the one stream
    fills the cache up to ``n``, and the rows of the triangle below the cone
    are never built."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    entries = _CENTRAL[family]
    if n >= len(entries):
        fam = FAMILIES[family]
        # a seed row that no stream yields, b[0,0] or btilde[0,0], is entry 0
        entries = (QPoly.one(),) * (fam.first_n > fam.seed_n)
        if 2 * n + fam.seed_n >= fam.first_n:
            entries += tuple(row[-1] for m, row in iter_rows(family, 2 * n + fam.seed_n, lag=n)
                             if m % 2 == fam.seed_n)
        _CENTRAL[family] = entries
    return entries[n]


def _entry(family: str, row, n: int, k: int) -> QPoly:
    kr = FAMILIES[family].krange(n)
    return row(n)[k - kr.start] if k in kr else QPoly.zero()


def carlitz_entry(n: int, k: int) -> QPoly:
    return _entry("A", _carlitz_row, n, k)


def gamma_a_entry(n: int, k: int) -> QPoly:
    return _entry("a", _gamma_a_row, n, k)


def typeB_entry(n: int, k: int) -> QPoly:
    return _entry("B", _typeB_row, n, k)


def gamma_b_entry(n: int, k: int) -> QPoly:
    return _entry("b", _gamma_b_row, n, k)


# ---------------------------------------------------------------------------
# Generating polynomials and series oracles
# ---------------------------------------------------------------------------


def carlitz_poly(n: int) -> TQPoly:
    """``A_n(t,q) = sum_{k=1}^n A[n,k](q) t^(k-1)``."""
    return TQPoly(_carlitz_row(n))


def typeB_poly(n: int) -> TQPoly:
    """``B_n(t,q) = sum_{k=0}^n B[n,k](q) t^k``."""
    return TQPoly(_typeB_row(n))


def _scaled_column(m: int, n: int) -> list[int]:
    """The coefficients of ``(1 - q)^n [m]^n = (1 - q^m)^n``: ``(-1)^i C(n, i)``
    at ``q^(m i)``."""
    col = [0] * (m * n + 1)
    col[::m] = [(-1) ** i * comb(n, i) for i in range(n + 1)]
    return col


def _series_oracle(n: int, step: int) -> TQPoly:
    """Truncate ``(t;q^step)_{n+1} * sum_{k=0}^{W} (1 - q^(step*k+1))^n t^k``
    at ``t^W``, ``W = max(2n, keep)``, demand that every t-coefficient from
    ``keep = n + step - 1`` through ``W`` vanishes, and return the ones below,
    each divided by ``(1 - q)^n``.  Each Pochhammer factor ``1 - t q^e`` maps
    column ``c_d`` to ``c_d - q^e c_(d-1)``, walking ``d`` downwards, and each
    division by ``1 - q`` is one prefix-sum pass whose last sum must be 0, so
    no two polynomials are ever multiplied."""
    keep = n + step - 1
    W = max(2 * n, keep)
    cols = [_scaled_column(step * k + 1, n) for k in range(W + 1)]
    for j in range(n + 1):
        e = step * j
        for d in range(W, 0, -1):
            col, prev = cols[d], cols[d - 1]
            end = e + len(prev)
            col.extend([0] * (end - len(col)))
            col[e:end] = map(sub, col[e:end], prev)
    for j in range(keep, W + 1):
        if any(cols[j]):
            raise ArithmeticError(f"series tail nonzero at t^{j} (n={n})")
    out = []
    for j, col in enumerate(cols[:keep]):
        for _ in range(n):
            col = list(accumulate(col))
            if col.pop():
                raise ArithmeticError(f"series column t^{j} not divisible by (1-q)^{n}")
        out.append(QPoly(col))
    return TQPoly(out)


def carlitz_series_oracle(n: int) -> TQPoly:
    """Recover ``A_n(t,q)`` from its defining series: truncate
    ``(t;q)_{n+1} * sum_{k=0}^{2n} [k+1]^n t^k`` and demand that every
    t-coefficient from degree n through 2n vanishes.

    A nonzero tail signals an arithmetic bug, not a user error.
    """
    if n < 1:
        raise ValueError(f"series oracle needs n >= 1, got {n}")
    return _series_oracle(n, 1)


def typeB_series_oracle(n: int) -> TQPoly:
    """Type-B analogue of :func:`carlitz_series_oracle`, with base ``q^2``
    Pochhammer and series ``sum [2k+1]^n t^k``; tail must vanish above
    t-degree n."""
    if n < 0:
        raise ValueError(f"series oracle needs n >= 0, got {n}")
    return _series_oracle(n, 2)


# ---------------------------------------------------------------------------
# Gamma-basis assembly and change of basis
# ---------------------------------------------------------------------------


def _gamma_expand(row, n: int, s: int) -> TQPoly:
    """The gamma expansion (module docstring) over the gamma row ``row(n)``."""
    if n < 1:
        raise ValueError(f"gamma expansion needs n >= 1, got {n}")
    acc = TQPoly.zero()
    for j, g in enumerate(row(n)):
        acc = acc + (g * poch_t(s * j + 1, n + s - 2 - 2 * j, sign=-1, step=s)).t_shift(j)
    return acc


def gamma_expand_A(n: int) -> TQPoly:
    """Assemble ``sum_k a[n,k](q) t^(k-1) (-t q^k; q)_{n+1-2k}``; equals
    ``carlitz_poly(n)`` exactly."""
    return _gamma_expand(_gamma_a_row, n, 1)


def gamma_expand_B(n: int) -> TQPoly:
    """Assemble ``sum_k b[n,k](q) t^k (-t q^(2k+1); q^2)_{n-2k}``; equals
    ``typeB_poly(n)`` exactly."""
    return _gamma_expand(_gamma_b_row, n, 2)


def _basis_change(row, n: int, i: int, s: int) -> QPoly:
    """The ``t^i`` coefficient of :func:`_gamma_expand` (module docstring),
    summed in one integer list: each ``[N, d]_{q^s} g_j`` is made from
    ``g_j``'s coefficients by ``min(d, N - d)`` ratio factors, each the
    prefix sums of ``g - q^a g`` along the residue classes mod ``b``, as
    :func:`~qeuler.qring._mul_q_ratio` makes them; ``d > N`` gives 0."""
    acc = []
    for j, g in enumerate(row(n)[: i + 1]):
        d, N = i - j, n + s - 2 - 2 * j
        if d > N:
            continue
        # [N, d]_{q^s} = prod_{m=1}^{d'} (1 - q^(s(N-d'+m))) / (1 - q^(s m)),
        # d' = min(d, N - d); each partial product is [N-d'+m, m]_{q^s} g
        low = min(d, N - d)
        g = g.coeffs
        for m in range(1, low + 1):
            a, b = s * (N - low + m), s * m
            pad = [0] * a
            g = list(map(sub, [*g, *pad], [*pad, *g]))
            for r in range(b):
                g[r::b] = accumulate(g[r::b])
            del g[-b:]  # the last b sums run through whole residue classes: 0
        e = s * (d * (d - 1) // 2) + (s * j + 1) * d
        end = e + len(g)
        if len(acc) < end:
            acc += [0] * (end - len(acc))
        acc[e:end] = map(add, acc[e:end], g)
    return QPoly(acc)


def basis_change_A(n: int, k: int) -> QPoly:
    """``A[n,k](q)`` computed from the gamma row:
    ``sum_s [n+1-2s choose k-s]_q q^((k-s)s + C(k-s,2)) a[n,s](q)``."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _basis_change(_gamma_a_row, n, k - 1, 1)


def basis_change_B(n: int, k: int) -> QPoly:
    """``B[n,k](q)`` from the gamma row, with the Gaussian binomial taken in
    the variable ``q^2``:
    ``sum_s [n-2s choose k-s]_{q^2} q^(k^2 - s^2) b[n,s](q)``."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _basis_change(_gamma_b_row, n, k, 2)


# ---------------------------------------------------------------------------
# Integer rows: the recurrence at a point, and the classical (q = 1) triangles
# ---------------------------------------------------------------------------


def _integer_rows(N: int, seed_n: int, steps) -> Iterator[tuple[int, int, list[int]]]:
    """``(n, D_n, P[n])`` for ``n = seed_n..N`` of the integer recurrence
    ``P[n,j] = xs[j] P[n-1,j] + ys[j] P[n-1,j-1]`` from ``P[seed_n] = [1]``
    and ``D_seed_n = 0``, with ``(delta, xs, ys) = steps(n)`` the multiplier
    lists of row ``n``, one per entry, and ``D_n = D_(n-1) + delta``; each
    row is built from the one before it and none kept.  Every row starts at
    the same ``k``, so entry ``j`` reads row ``n-1``, zero-padded, at ``j``
    and ``j-1``."""
    row, D = [1], 0
    yield seed_n, D, row
    for n in range(seed_n + 1, N + 1):
        delta, xs, ys = steps(n)
        row = [*map(add, map(mul, xs, [*row, 0]), map(mul, ys, [0, *row]))]
        D += delta
        yield n, D, row


def _point_steps(fam: Family, a: int, b: int):
    """The ``steps`` of :func:`_integer_rows` that run ``fam`` at ``q = a/b``
    with row ``n`` scaled by ``b^D_n``.  ``[m]_{q^s}`` at ``a/b`` is
    ``H^(s)_m / b^(s(m-1))`` with ``H^(s)_m = sum_{i<m} a^(s i) b^(s(m-1-i))``,
    ``q^e`` is ``a^e / b^e`` and ``1 + q^f`` is ``(a^f + b^f) / b^f``, so
    each term of the recurrence is an integer times ``b`` to minus its top
    degree: ``u - 1`` for ``[u] P[n-1,k]`` and ``e + sum(fs) + s(v-1)`` for
    the other.  ``delta`` is the largest top degree among the terms row
    ``n`` has, and each term's multiplier makes up the rest in powers of
    ``b``.  At ``a = b = 1`` the multipliers are ``u`` and ``v 2^len(fs)``."""
    s = fam.stride
    # a^i, b^i, H^(1)_m and H^(s)_m by index, grown as the rows need them:
    # every exponent of a term that a row has is at least 0 (u and v at
    # least 1, e and each f at least 0) and at most that row's delta (+ s)
    pa, pb, h = [1], [1], [0]
    hs = h if s == 1 else [0]

    def steps(n: int) -> tuple[int, list[int], list[int]]:
        kr, width = fam.krange(n), len(fam.krange(n - 1))
        # [u] P[n-1,k] is a term where k is a column of row n-1, and the
        # other term where k-1 is
        us = [fam.alpha(n, k) for k in kr[:width]]
        betas = [fam.beta(n, k) for k in kr[1:width + 1]]
        tops = [e + sum(fs) + s * (v - 1) for e, fs, v in betas]
        delta = max(max(us) - 1, max(tops, default=0))
        while len(pa) <= delta + s:
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * b)
        while len(h) <= delta + 1:
            h.append(a * h[-1] + pb[len(h) - 1])
        while s * (len(hs) - 1) <= delta:
            hs.append(pa[s] * hs[-1] + pb[s * (len(hs) - 1)])
        xs = [h[u] * pb[delta + 1 - u] for u in us] + [0] * (len(kr) - width)
        ys = [0] + [pa[e] * prod([pa[f] + pb[f] for f in fs]) * hs[v] * pb[delta - top]
                    for (e, fs, v), top in zip(betas, tops)]
        return delta, xs, ys

    return steps


def iter_point_rows(family: str, N: int, q0: RatLike) -> Iterator[tuple[int, int, list[int]]]:
    """:func:`iter_rows` at ``q = q0 = a/b``: ``(n, D_n, [b^D_n P[n,k](a/b)
    for k in krange(n)])`` for ``n = first_n..N``, computed in Z by the
    ``FAMILIES`` recurrence at ``a/b`` (:func:`_point_steps`), so no q-row is
    built.  ``D_n`` is at least the degree of every entry of row ``n``."""
    fam = FAMILIES[family]
    if N < fam.first_n:
        raise ValueError(f"family {family} needs N >= {fam.first_n}, got {N}")
    for item in _integer_rows(N, fam.seed_n, _point_steps(fam, q0.numerator, q0.denominator)):
        if item[0] >= fam.first_n:
            yield item


def iter_q1_rows(family: str, N: int) -> Iterator[tuple[int, list[int]]]:
    """:func:`iter_point_rows` at ``q = 1``, where ``[m]_q`` is ``m`` and each
    ``1 + q^f`` is 2: ``(n, [P[n,k](1) for k in krange(n)])`` for ``n =
    first_n..N``."""
    for n, _, row in iter_point_rows(family, N, 1):
        yield n, row


def _classical_triangle(N: int, krange, alpha, beta) -> list[list[int]]:
    """Rows 1..N of ``P[n,k] = alpha(n,k) P[n-1,k] + beta(n,k) P[n-1,k-1]``
    from ``P[1] = [1]``, row ``n`` over ``krange(n)``, on
    :func:`_integer_rows`."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")

    def steps(n: int) -> tuple[int, list[int], list[int]]:
        kr = krange(n)
        return 0, [alpha(n, k) for k in kr], [beta(n, k) for k in kr]

    return [row for _, _, row in _integer_rows(N, 1, steps)]


def classical_gamma_a(N: int) -> list[list[int]]:
    """Integer rows 1..N by ``a[n,k] = k a[n-1,k] + 2(n+2-2k) a[n-1,k-1]``."""
    return _classical_triangle(N, lambda n: range(1, (n + 1) // 2 + 1),
                               lambda n, k: k, lambda n, k: 2 * (n + 2 - 2 * k))


def classical_gamma_b(N: int) -> list[list[int]]:
    """Integer rows 1..N by ``b[n,k] = (2k+1) b[n-1,k] + 4(n+1-2k) b[n-1,k-1]``."""
    return _classical_triangle(N, lambda n: range(0, n // 2 + 1),
                               lambda n, k: 2 * k + 1, lambda n, k: 4 * (n + 1 - 2 * k))


# ---------------------------------------------------------------------------
# Proof-lemma bracket identities
# ---------------------------------------------------------------------------


def q_int_ext(m: int, step: int = 1) -> QLaurent:
    """The q-integer ``(1 - q^(step*m)) / (1 - q^step)`` extended to all
    integers ``m``; for ``m < 0`` this is ``-q^(step*m) [\\,-m\\,]``."""
    if m >= 0:
        return QLaurent(q_int(m, step=step))
    return -QLaurent(q_int(-m, step=step)).shift(step * m)


# The bracket identities are checked with their denominators cleared: since
# ``[m]_{q^s} = (1 - q^(s m)) / (1 - q^s)`` for every integer ``m``, each side
# times ``(1 - q)^2`` (type A) or ``(1 - q)(1 - q^2)`` (type B) is a sum of
# products of binomials ``1 +- q^e``.  ``Z[q, q^-1]`` has no zero divisors, so
# the cleared identity holds exactly when the bracket identity does.


def _binomial_terms(factors: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """The signed monomials ``(e, sign)`` of ``prod (1 + sign_i q^(e_i))``
    over ``factors = ((sign_i, e_i), ...)``, one per subset of the factors
    and before any cancellation.

    >>> _binomial_terms(((-1, 2), (1, 3)))          # (1 - q^2)(1 + q^3)
    [(0, 1), (2, -1), (3, 1), (5, -1)]
    """
    terms = [(0, 1)]
    for sign, e in factors:
        terms += [(x + e, c * sign) for x, c in terms]
    return terms


def _cancels(lhs, rhs) -> bool:
    """True when ``sum(lhs) == sum(rhs)``, each side a list of products of
    binomials given as :func:`_binomial_terms` factors: every exponent has
    as many ``+`` terms as ``-`` terms on ``lhs - rhs``."""
    plus, minus = [], []
    for side, (pos, neg) in ((lhs, (plus, minus)), (rhs, (minus, plus))):
        for factors in side:
            for e, c in _binomial_terms(factors):
                (pos if c > 0 else neg).append(e)
    return sorted(plus) == sorted(minus)


def _bracket_A(n: int, k: int, s: int) -> bool:
    """The cleared type-A lemma at one triple: the body of
    :func:`bracket_identity_A`."""
    a, b = n - k - s + 1, k - s
    return _cancels(
        [((-1, n + 1 - 2 * s), (-1, s)), ((-1, a), (1, s), (-1, b))],
        [((-1, k), (-1, a)), ((-1, n + 1 - k), (-1, b))],
    )


def _bracket_B(n: int, k: int, s: int) -> bool:
    """The cleared type-B lemma at one triple: the body of
    :func:`bracket_identity_B`."""
    a, b = 2 * (n - k - s), 2 * (k - s)
    return _cancels(
        [((-1, 2 * (n - 2 * s)), (-1, 2 * s + 1)), ((-1, a), (1, 2 * s + 1), (-1, b))],
        [((-1, 2 * k + 1), (-1, a)), ((-1, 2 * n + 1 - 2 * k), (-1, b))],
    )


# Every exponent in the two lemma bodies is a linear form in (n, k, s) with
# coefficients of a few units, and so is each monomial's exponent, a sum of at
# most three of them.  At n = X, k = X^2, s = X^3 a form c + c_n n + c_k k +
# c_s s takes the value c + c_n X + c_k X^2 + c_s X^3, and two distinct forms
# whose difference has every coefficient below X/2 in size take distinct
# values there.  So one check at that point tells whether the two sides
# cancel term for term as forms; when they do, they cancel at every integer
# triple.  Each verdict is computed once, at import.
_X = 2**20
_HOLDS_A = _bracket_A(_X, _X**2, _X**3)
_HOLDS_B = _bracket_B(_X, _X**2, _X**3)


def bracket_identity_A(n: int, k: int, s: int) -> bool:
    """Exact identity behind the type-A gamma recurrence:
    ``[n+1-2s][s] + [n-k-s+1](1+q^s)[k-s] = [k][n-k-s+1] + [n+1-k][k-s]``.
    Brackets with negative arguments take the Laurent extension, so the
    check covers every triple ``1 <= s <= k <= n``.  Whether the lemma holds
    at every integer triple is decided once (``_HOLDS_A``); the triple itself
    is checked only when that verdict is false."""
    return _HOLDS_A or _bracket_A(n, k, s)


def bracket_identity_B(n: int, k: int, s: int) -> bool:
    """Type-B analogue:
    ``[n-2s]_{q^2}[2s+1] + [n-k-s]_{q^2}(1+q)(1+q^(2s+1))[k-s]_{q^2}
      = [2k+1][n-k-s]_{q^2} + [2n+1-2k][k-s]_{q^2}``,
    decided like :func:`bracket_identity_A`."""
    return _HOLDS_B or _bracket_B(n, k, s)
