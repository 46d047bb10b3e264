"""Exact arithmetic kernel for q-polynomial combinatorics.

Three immutable value types built on Python's unbounded integers:

* :class:`QPoly` -- dense univariate polynomial in ``q`` over the integers.
* :class:`QLaurent` -- a ``QPoly`` together with a (possibly negative)
  lowest-exponent offset, i.e. an element of ``Z[q, q^-1]``.
* :class:`TQPoly` -- polynomial in ``t`` whose coefficients are ``QLaurent``
  values (bivariate in ``t`` and ``q``).

Ring arithmetic is exposed through the usual operators; every operation
canonicalizes its result, so ``==`` is structural equality.  Rational values
(evaluation points, exact rational identities) are plain
:class:`fractions.Fraction` objects.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads.  The three types are
plain classes with ``__slots__`` and written-out ``__eq__``/``__hash__``, not
dataclasses: importing ``dataclasses`` (which imports ``inspect``) and
decorating the classes took longer, in every cold CLI process, than a small
command's work, and a slotted instance carries no ``__dict__``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from operator import add, indexOf, sub

RatLike = Fraction | int


class NotDivisible:
    """Signal value returned by :func:`exact_div` when the divisor does not
    divide exactly in the ring.  Callers decide whether that is an error."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NotDivisible"

    def __bool__(self) -> bool:
        return False


NOT_DIVISIBLE = NotDivisible()


def _fmt(coeffs: tuple[int, ...], offset: int = 0) -> str:
    """Ascending text of ``q^offset * sum coeffs[i] q^i``: explicit signs,
    ``q^e`` exponents, ``0`` for no terms."""
    parts = []
    for e, c in enumerate(coeffs, offset):
        if c > 0:
            sign = " + " if parts else ""
        elif c < 0:
            sign = " - " if parts else "-"
            c = -c
        else:
            continue
        if e == 0:
            parts.append(f"{sign}{c}")
        elif c == 1:
            parts.append(f"{sign}q" if e == 1 else f"{sign}q^{e}")
        else:
            parts.append(f"{sign}{c}q" if e == 1 else f"{sign}{c}q^{e}")
    return "".join(parts) or "0"


def _power(base, n: int, one):
    """``base ** n`` for ``n >= 0`` by square-and-multiply."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _mul_q_ratio(p: QPoly, a: int, b: int) -> QPoly:
    """``(1 - q^a) / (1 - q^b) * p`` in O(deg p + a): the prefix sums of
    ``p - q^a p`` along each residue class mod ``b``.  Valid only when
    ``1 - q^b`` divides ``(1 - q^a) p``; then the last ``b`` sums have run
    through a whole residue class and are zero."""
    pad = (0,) * a
    out = list(map(sub, p.coeffs + pad, pad + p.coeffs))
    for r in range(b):
        out[r::b] = accumulate(out[r::b])
    return QPoly(out)


class QPoly:
    """A polynomial in ``q`` with integer coefficients, stored densely:
    ``coeffs[i]`` is the coefficient of ``q^i``.  Trailing zeros are trimmed,
    so the zero polynomial has an empty coefficient tuple.

    >>> QPoly([1, 1]) * QPoly([1, 1])
    QPoly('1 + 2q + q^2')
    >>> QPoly([1, 1]) + QPoly([1, -1])
    QPoly('2')
    >>> QPoly([0, 0]).is_zero()
    True
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        # built from a list at its final size: a tuple grown from an iterator
        # is resized as it grows, which fragments a long-running process's heap
        cs = coeffs if type(coeffs) is tuple else tuple(
            coeffs if type(coeffs) is list else [*coeffs])
        if cs and not cs[-1]:
            # one slice, to the last nonzero coefficient found by a C-level scan
            cs = cs[: next(compress(range(len(cs), 0, -1), reversed(cs)), 0)]
        self.coeffs = cs

    def __eq__(self, other):
        if other.__class__ is not QPoly:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def zero() -> QPoly:
        return QPoly()

    @staticmethod
    def one() -> QPoly:
        return QPoly((1,))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> QPoly:
        """``coeff * q^exp`` with ``exp >= 0``."""
        if exp < 0:
            raise ValueError("QPoly exponents must be nonnegative; use QLaurent")
        if coeff == 0:
            return QPoly()
        return QPoly([0] * exp + [coeff])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Lowest exponent with nonzero coefficient, or 0 for zero."""
        # a nonzero QPoly ends in a nonzero coefficient, so the scan finds one
        return indexOf(map(bool, self.coeffs), True) if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        """Coefficient of ``q^i`` (zero out of range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: int | QPoly) -> QPoly:
        if isinstance(other, int):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # ``(0,) * m`` is empty for ``m <= 0``: only the shorter side is padded
        return QPoly(map(add, a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))))

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: int | QPoly) -> QPoly:
        if isinstance(other, int):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented  # the richer type's __rsub__ runs
        a, b = self.coeffs, other.coeffs
        return QPoly(map(sub, a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))))

    def __rsub__(self, other: int) -> QPoly:
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented  # a QLaurent or TQPoly handles it
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValueError("negative powers leave Z[q]; use QLaurent")
        return _power(self, n, QPoly.one())

    def shift(self, e: int) -> QPoly:
        """Multiply by ``q^e``; for ``e < 0`` only when ``q^-e`` divides."""
        if e == 0 or self.is_zero():
            return self
        if e > 0:
            return QPoly((0,) * e + self.coeffs)
        if (low := self.valuation() + e) < 0:
            raise ValueError(f"negative offset {low}: not a polynomial")
        return QPoly(self.coeffs[-e:])

    def _scaled(self, a: int, b: int, top: int) -> int:
        """``b^top p(a/b)`` in Z, ``top >= deg p = d``: homogeneous Horner from the
        lowest nonzero ``c_v`` up, with a running ``b^(d-i)``, times ``a^v b^(top-d)``."""
        v = self.valuation()
        coeffs = reversed(self.coeffs[v:])
        acc, power = next(coeffs, 0), 1
        for c in coeffs:
            power *= b
            acc = acc * a + c * power
        return acc * a**v * b ** (top - self.degree())

    def __call__(self, x: RatLike) -> Fraction:
        """Exact evaluation at ``x = a/b``: the one fraction ``b^d p(a/b) / b^d``.

        >>> QPoly([1, 1])(Fraction(1, 2))
        Fraction(3, 2)
        >>> QPoly([1, 0, 2])(-3)
        Fraction(19, 1)
        """
        d = max(self.degree(), 0)
        return Fraction(self._scaled(x.numerator, x.denominator, d), x.denominator**d)

    def __repr__(self) -> str:
        return f"QPoly('{self._fmt()}')"

    def _fmt(self) -> str:
        return _fmt(self.coeffs)


class QLaurent:
    """A Laurent polynomial ``q^offset * base`` where ``base`` is a
    :class:`QPoly`.  Canonical form: either zero (offset 0), or ``base`` has a
    nonzero constant term, the offset absorbing every factor of ``q``.

    >>> QLaurent(QPoly([0, 1, 1]), -1)
    QLaurent('1 + q')
    >>> QLaurent(QPoly([1, 2, 1]), -3)
    QLaurent('q^-3 + 2q^-2 + q^-1')

    A base with a nonzero constant term is kept as it is; any other nonzero
    base loses its leading zeros by one slice, whose last entry is nonzero,
    so the constructor keeps it as it is.
    """

    __slots__ = ("base", "offset")
    base: QPoly
    offset: int

    def __init__(self, base: QPoly | int = 0, offset: int = 0):
        if isinstance(base, int):
            base = QPoly((base,))
        if base.is_zero():
            self.base = QPoly()
            self.offset = 0
        else:
            v = base.valuation()
            self.base = QPoly(base.coeffs[v:]) if v else base
            self.offset = offset + v

    def __eq__(self, other):
        if other.__class__ is not QLaurent:
            return NotImplemented
        return self.offset == other.offset and self.base == other.base

    def __hash__(self) -> int:
        return hash((self.base.coeffs, self.offset))

    @staticmethod
    def coerce(x: int | QPoly | QLaurent) -> QLaurent:
        if isinstance(x, QLaurent):
            return x
        return QLaurent(x)

    @staticmethod
    def zero() -> QLaurent:
        return QLaurent()

    @staticmethod
    def one() -> QLaurent:
        return QLaurent(1)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> QLaurent:
        """``coeff * q^e`` for any integer ``e``."""
        return QLaurent(QPoly((coeff,)), e)

    def is_zero(self) -> bool:
        return self.base.is_zero()

    def valuation(self) -> int:
        return self.offset

    def degree(self) -> int:
        return self.offset + self.base.degree()

    def shift(self, e: int) -> QLaurent:
        """Multiply by ``q^e`` for any integer ``e``: only the offset moves.

        >>> QLaurent(QPoly([1, 1])).shift(-2)
        QLaurent('q^-2 + q^-1')
        """
        if e == 0 or self.is_zero():
            return self
        return QLaurent(self.base, self.offset + e)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: int | QPoly | QLaurent) -> QLaurent:
        if isinstance(other, TQPoly):
            return NotImplemented
        other = QLaurent.coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        off = min(self.offset, other.offset)
        return QLaurent(
            self.base.shift(self.offset - off) + other.base.shift(other.offset - off),
            off,
        )

    __radd__ = __add__

    def __neg__(self) -> QLaurent:
        return QLaurent(-self.base, self.offset)

    def __sub__(self, other: int | QPoly | QLaurent) -> QLaurent:
        if isinstance(other, TQPoly):
            return NotImplemented
        return self + (-QLaurent.coerce(other))

    def __rsub__(self, other: int | QPoly) -> QLaurent:
        return (-self) + other

    def __mul__(self, other: int | QPoly | QLaurent) -> QLaurent:
        if isinstance(other, TQPoly):
            return NotImplemented
        other = QLaurent.coerce(other)
        return QLaurent(self.base * other.base, self.offset + other.offset)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QLaurent:
        if n < 0:
            raise ValueError("negative powers are not supported")
        return QLaurent(self.base**n, self.offset * n)

    def __call__(self, x: RatLike) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if x == 0 and self.offset < 0:
            raise ZeroDivisionError("evaluating negative q-powers at q=0")
        return self.base(x) * Fraction(x) ** self.offset

    def __repr__(self) -> str:
        return f"QLaurent('{self._fmt()}')"

    def _fmt(self) -> str:
        return _fmt(self.base.coeffs, self.offset)


class TQPoly:
    """A polynomial in ``t`` whose coefficients are :class:`QLaurent` values;
    ``terms[d]`` is the coefficient of ``t^d``.  The highest-index term is
    nonzero unless the whole polynomial is zero.

    >>> TQPoly([1, QLaurent.q_power(1)])          # 1 + q t
    TQPoly('1 + q t')
    """

    __slots__ = ("terms",)
    terms: tuple[QLaurent, ...]

    def __init__(self, terms: Iterable[int | QPoly | QLaurent] = ()):
        ts = [QLaurent.coerce(t) for t in terms]
        while ts and ts[-1].is_zero():
            ts.pop()
        self.terms = tuple(ts)

    def __eq__(self, other):
        if other.__class__ is not TQPoly:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @staticmethod
    def coerce(x: int | QPoly | QLaurent | TQPoly) -> TQPoly:
        if isinstance(x, TQPoly):
            return x
        return TQPoly([QLaurent.coerce(x)])

    @staticmethod
    def zero() -> TQPoly:
        return TQPoly()

    @staticmethod
    def one() -> TQPoly:
        return TQPoly([1])

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, d: int) -> QLaurent:
        """Coefficient of ``t^d`` (zero out of range)."""
        if 0 <= d < len(self.terms):
            return self.terms[d]
        return QLaurent.zero()

    def t_shift(self, d: int) -> TQPoly:
        """Multiply by ``t^d``."""
        if d < 0:
            raise ValueError("t-exponents must be nonnegative")
        if self.is_zero():
            return self
        return TQPoly((QLaurent.zero(),) * d + self.terms)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> TQPoly:
        other = TQPoly.coerce(other)
        n = max(len(self.terms), len(other.terms))
        return TQPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> TQPoly:
        return TQPoly([-c for c in self.terms])

    def __sub__(self, other) -> TQPoly:
        return self + (-TQPoly.coerce(other))

    def __rsub__(self, other) -> TQPoly:
        return (-self) + other

    def __mul__(self, other) -> TQPoly:
        other = TQPoly.coerce(other)
        if self.is_zero() or other.is_zero():
            return TQPoly()
        out = [QLaurent.zero()] * (len(self.terms) + len(other.terms) - 1)
        for i, c in enumerate(self.terms):
            if c.is_zero():
                continue
            for j, d in enumerate(other.terms):
                if not d.is_zero():
                    out[i + j] = out[i + j] + c * d
        return TQPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TQPoly:
        if n < 0:
            raise ValueError("negative t-powers are not supported")
        return _power(self, n, TQPoly.one())

    def __repr__(self) -> str:
        return f"TQPoly('{self._fmt()}')"

    def _fmt(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d, c in enumerate(self.terms):
            if c.is_zero():
                continue
            body = c._fmt()
            if d > 0:
                tpow = "t" if d == 1 else f"t^{d}"
                if len(c.base.coeffs) - c.base.coeffs.count(0) > 1 or body.startswith("-"):
                    body = f"({body}) {tpow}"
                elif body == "1":
                    body = tpow
                else:
                    body = f"{body} {tpow}"
            parts.append(body)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


def q_int(n: int, step: int = 1) -> QPoly:
    """The q-integer ``[n] = 1 + q + ... + q^(n-1)``; with ``step=2`` the
    same sum in the variable ``q^2``.

    >>> q_int(3)
    QPoly('1 + q + q^2')
    >>> q_int(0)
    QPoly('0')
    >>> q_int(3, step=2)
    QPoly('1 + q^2 + q^4')
    """
    if n < 0:
        raise ValueError(f"q_int requires n >= 0, got {n}")
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    return _mul_q_ratio(QPoly.one(), step * n, step)


def subst_q_power(p: QPoly, e: int) -> QPoly:
    """Substitute ``q -> q^e`` (``e >= 1``) into ``p``; ``e = 1`` returns ``p``.

    >>> p = q_int(3); subst_q_power(p, 2), subst_q_power(p, 1) is p
    (QPoly('1 + q^2 + q^4'), True)
    """
    if e < 1:
        raise ValueError(f"substitution power must be >= 1, got {e}")
    if e == 1 or p.is_zero():
        return p
    out = [0] * (e * p.degree() + 1)
    for i, c in enumerate(p.coeffs):
        out[e * i] = c
    return QPoly(out)


@lru_cache(maxsize=None)
def q_binom(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient by the product formula
    ``[n,k] = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i)``, taken over the
    smaller of ``k`` and ``n-k``.  Each partial product is ``[n-k+i, i]``, a
    polynomial, so every factor costs one pass of strided prefix sums.  Zero
    when ``k < 0`` or ``k > n``.

    >>> q_binom(4, 2)
    QPoly('1 + q + 2q^2 + q^3 + q^4')
    >>> q_binom(3, 5)
    QPoly('0')
    """
    if n < 0:
        raise ValueError(f"q_binom requires n >= 0, got {n}")
    if k < 0 or k > n:
        return QPoly()
    k = min(k, n - k)
    out = QPoly.one()
    for i in range(1, k + 1):
        out = _mul_q_ratio(out, n - k + i, i)
    return out


def poch_t(k_exp: int, m: int, sign: int = -1, step: int = 1) -> TQPoly:
    """The t-Pochhammer product ``prod_{j=0}^{m-1} (1 - sign * t * q^(k_exp + step*j))``.

    ``sign=-1`` gives the ``(-t q^k; q^step)_m`` products used in the
    gamma-basis expansions; ``sign=+1`` gives ``(t q^k; q^step)_m``.

    >>> poch_t(1, 2, sign=-1)                    # (1 + tq)(1 + tq^2)
    TQPoly('1 + (q + q^2) t + q^3 t^2')
    >>> poch_t(1, 2, sign=-1, step=2)            # (1 + tq)(1 + tq^3)
    TQPoly('1 + (q + q^3) t + q^4 t^2')
    >>> poch_t(0, 0)
    TQPoly('1')
    """
    if m < 0:
        raise ValueError(f"poch_t requires m >= 0, got {m}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    out = TQPoly.one()
    for j in range(m):
        factor = TQPoly([QLaurent.one(), QLaurent.q_power(k_exp + step * j, -sign)])
        out = out * factor
    return out


def poch_num(a: int | QPoly | QLaurent, m: int, step: int = 1) -> QLaurent:
    """The numeric Pochhammer product ``prod_{j=0}^{m-1} (1 - a * q^(step*j))``.

    >>> poch_num(-1, 3)                          # (1+1)(1+q)(1+q^2)
    QLaurent('2 + 2q + 2q^2 + 2q^3')
    >>> poch_num(QLaurent.q_power(1, -1), 2, step=2)   # (1+q)(1+q^3)
    QLaurent('1 + q + q^3 + q^4')
    """
    if m < 0:
        raise ValueError(f"poch_num requires m >= 0, got {m}")
    a = QLaurent.coerce(a)
    out = QLaurent.one()
    for j in range(m):
        out = out * (QLaurent.one() - a.shift(step * j))
    return out


# ---------------------------------------------------------------------------
# Evaluation and substitution
# ---------------------------------------------------------------------------


def eval_rat(p: QPoly | QLaurent | TQPoly, q0: RatLike, t0: RatLike | None = None) -> Fraction:
    """Exact rational evaluation.  ``t0`` is required for :class:`TQPoly`.

    >>> eval_rat(QPoly([1, 1]), 2)
    Fraction(3, 1)
    >>> eval_rat(QLaurent(QPoly([1, 1]), -1), Fraction(1, 2))
    Fraction(3, 1)
    """
    q0 = Fraction(q0)
    if isinstance(p, (QPoly, QLaurent)):
        return p(q0)
    if isinstance(p, TQPoly):
        if t0 is None:
            raise ValueError("t0 is required to evaluate a TQPoly")
        t0 = Fraction(t0)
        acc = Fraction(0)
        for c in reversed(p.terms):
            acc = acc * t0 + c(q0)
        return acc
    raise TypeError(f"cannot evaluate {type(p).__name__}")


def subst_q_recip(p: QPoly | QLaurent) -> QLaurent:
    """Substitute ``q -> 1/q``, returning an exact Laurent polynomial.

    >>> subst_q_recip(QPoly([1, 2, 0, 1]))
    QLaurent('q^-3 + 2q^-1 + 1')
    >>> subst_q_recip(QPoly([5]))
    QLaurent('5')
    """
    p = QLaurent.coerce(p)
    if p.is_zero():
        return p
    return QLaurent(QPoly(tuple(reversed(p.base.coeffs))), -p.degree())


def subst_t_signed_power(p: TQPoly, e: int, shift: int) -> QPoly:
    """``q^shift p(-q^e, q)``, exactly, in one pass over the coefficients and
    with no product; a ``ValueError`` when a negative power of q survives.

    >>> subst_t_signed_power(TQPoly([1, QPoly([0, 1])]), -1, 0)   # 1+qt at t=-1/q
    QPoly('0')
    """
    # ``(-1)^d c_d q^(shift+e*d)`` is ``c_d``'s coefficients from exponent
    # ``c_d.offset + shift + e*d``, added or (for odd d) subtracted in place.
    terms = [(c.offset + shift + e * d, c.base.coeffs, sub if d % 2 else add)
             for d, c in enumerate(p.terms) if c]
    low = min((off for off, _, _ in terms), default=0)
    out = [0] * max((off + len(cs) - low for off, cs, _ in terms), default=0)
    for off, cs, op in terms:
        i = off - low
        out[i:i + len(cs)] = map(op, out[i:i + len(cs)], cs)
    return QPoly(out).shift(low)


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------


def _int_div(a: int, b: int) -> int | NotDivisible:
    """``a / b`` in Z, or :data:`NOT_DIVISIBLE`."""
    c, r = divmod(a, b)
    return NOT_DIVISIBLE if r else c


def _long_div(p: Sequence, d: Sequence, div, ring):
    # Long division from the top over a coefficient sequence, each leading
    # coefficient divided by ``div`` (quotient or NOT_DIVISIBLE).  The
    # quotient over the fraction field is unique, and it lies in the ring
    # exactly when every leading-coefficient division is exact and nothing
    # is left over.  Each exact step cancels rem[i + dd], so only the dd
    # terms below it change.
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return ring()
    *low, lead = d
    dd = len(low)
    rem = list(p)
    qd = len(rem) - 1 - dd
    if qd < 0:
        return NOT_DIVISIBLE
    quot = [0] * (qd + 1)
    for i in range(qd, -1, -1):
        c = div(rem[i + dd], lead)
        if c is NOT_DIVISIBLE:
            return NOT_DIVISIBLE
        if c:
            quot[i] = c
            rem[i:i + dd] = [x - c * y for x, y in zip(rem[i:i + dd], low)]
    if any(rem[:dd]):
        return NOT_DIVISIBLE
    return ring(quot)


def _qlaurent_exact_div(p: QLaurent, d: QLaurent) -> QLaurent | NotDivisible:
    # Units in Z[q, q^-1] are +-q^k, so divisibility reduces to the bases.
    base = _long_div(p.base.coeffs, d.base.coeffs, _int_div, QPoly)
    if base is NOT_DIVISIBLE:
        return NOT_DIVISIBLE
    return QLaurent(base, p.offset - d.offset)


def _div_one_plus_t_q_power(p: TQPoly, e: int) -> TQPoly | NotDivisible:
    """``p / (1 + t q^e)``, or :data:`NOT_DIVISIBLE`, by the recurrence
    ``c_d = p_d - q^e c_(d-1)``: the step past the last quotient
    coefficient is the remainder, which must vanish."""
    c = QLaurent.zero()
    quot = []
    for pd in p.terms:
        c = pd - c.shift(e)
        quot.append(c)
    if quot and not quot.pop().is_zero():
        return NOT_DIVISIBLE
    return TQPoly(quot)


def _mul_one_plus_t_q_power(p: TQPoly, e: int) -> TQPoly:
    """``p * (1 + t q^e)`` as ``c_d = p_d + q^e p_(d-1)``, with no product:
    the inverse of :func:`_div_one_plus_t_q_power`."""
    zero = (QLaurent.zero(),)
    return TQPoly(map(add, p.terms + zero, zero + tuple(c.shift(e) for c in p.terms)))


def exact_div(p, d):
    """Exact ring quotient ``p / d``, or :data:`NOT_DIVISIBLE` when ``d`` does
    not divide ``p`` in the respective ring.  Division by zero raises.

    >>> exact_div(QPoly([1, 2, 1]), QPoly([1, 1]))
    QPoly('1 + q')
    >>> exact_div(QPoly([1, 0, 1]), QPoly([1, 1]))
    NotDivisible
    """
    if isinstance(p, TQPoly) or isinstance(d, TQPoly):
        p, d = TQPoly.coerce(p), TQPoly.coerce(d)
        return _long_div(p.terms, d.terms, _qlaurent_exact_div, TQPoly)
    if isinstance(p, QLaurent) or isinstance(d, QLaurent):
        return _qlaurent_exact_div(QLaurent.coerce(p), QLaurent.coerce(d))
    if isinstance(p, QPoly) and isinstance(d, (QPoly, int)):
        d = d if isinstance(d, QPoly) else QPoly((d,))
        return _long_div(p.coeffs, d.coeffs, _int_div, QPoly)
    raise TypeError(f"cannot divide {type(p).__name__} by {type(d).__name__}")


# ---------------------------------------------------------------------------
# Specialization at q = 1 and structural predicates
# ---------------------------------------------------------------------------


def spec_q1(p: QPoly | QLaurent) -> int:
    """Exact value at ``q = 1`` (the offset of a Laurent value is immaterial).

    >>> spec_q1(QPoly([0, 1, 1]))
    2
    """
    if isinstance(p, QLaurent):
        p = p.base
    return sum(p.coeffs)


def is_nonneg(p: QPoly | QLaurent) -> bool:
    """True iff every coefficient is nonnegative."""
    if isinstance(p, QLaurent):
        p = p.base
    return all(c >= 0 for c in p.coeffs)


def is_palindromic(p: QPoly | QLaurent) -> bool:
    """True iff the coefficient window from valuation to degree reads the same
    in both directions.

    >>> is_palindromic(QPoly([0, 2, 5, 6, 5, 2]))
    True
    >>> is_palindromic(QPoly([1, 2]))
    False
    """
    window = QLaurent.coerce(p).base.coeffs
    return window == window[::-1]


def is_unimodal_ints(s: Sequence[int]) -> bool:
    """True iff the integer sequence weakly rises then weakly falls.

    >>> is_unimodal_ints([1, 4, 1])
    True
    >>> is_unimodal_ints([2, 1, 2])
    False
    """
    i, n = 0, len(s)
    if n == 0:
        return True
    while i + 1 < n and s[i] <= s[i + 1]:
        i += 1
    while i + 1 < n and s[i] >= s[i + 1]:
        i += 1
    return i == n - 1
