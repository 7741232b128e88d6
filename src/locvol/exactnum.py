"""Exact scalar arithmetic beyond the rationals.

Everything downstream computes with `fractions.Fraction`; this module adds the
one extension field we need, real quadratic irrationals a + b*sqrt(c), plus
certified rational enclosures of k-th roots for the handful of places where an
inequality between radicals has to be decided.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

from . import LocvolError

TRIAL_LIMIT = 10 ** 5  # largest trial divisor of a fresh square-free split


class RadicandBudget(LocvolError):
    """A radicand's square-free part needs trial division past TRIAL_LIMIT."""


class FieldMismatch(ArithmeticError):
    """Raised when mixing quadratic numbers over different square-free radicands."""


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer, exactly."""
    if n < 0:
        raise ValueError("iroot of negative integer")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*f with f square-free; returns (s, f).

    Trial division stops at D = TRIAL_LIMIT.  The cofactor m left then has
    no prime factor <= D, so below D^3 it is a prime, a prime square or a
    product of two distinct primes, and isqrt tells them apart.  Past D^3
    a cofactor that is not a square is square-free when it is a prime below
    PRIME_BOUND, which _is_prime decides; any other raises RadicandBudget.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return (1, n)
    s, f, d = 1, 1, 2
    m = n
    while d * d <= m and d <= TRIAL_LIMIT:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    if d * d <= m:  # stopped at the bound
        r = isqrt(m)
        if r * r == m:
            return (s * r, f)
        if m >= TRIAL_LIMIT ** 3 and not _is_prime(m):
            raise RadicandBudget(f"the square-free part of {n} needs trial "
                                 f"division past {TRIAL_LIMIT}")
    return (s, f * m)


PRIME_BOUND = 3317044064679887385961981  # strong pseudoprimes to bases 2..41 start here


def _is_prime(m: int) -> bool:
    """Whether an odd m with no prime factor below 41 is a prime below PRIME_BOUND.

    A strong probable prime to the 13 prime bases 2..41 below that bound is
    prime (Sorenson & Webster, Math. Comp. 86, 2017).
    """
    if m >= PRIME_BOUND:
        return False
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class QuadraticNumber:
    """Exact element a + b*sqrt(c) of a real quadratic field.

    c is square-free and >= 2 whenever b != 0; purely rational values are
    stored with b == 0, c == 0.  Arithmetic is closed for a fixed c and
    allows rational operands on either side.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        a, b, c = Fraction(a), Fraction(b), int(c)
        if c < 0:
            raise ValueError("radicand must be non-negative")
        if b:
            s, f = squarefree_split(c)
            b *= s
            c = f
            if c == 0:
                b = Fraction(0)
            elif c == 1:
                a += b
                b = Fraction(0)
                c = 0
        if not b:
            b, c = Fraction(0), 0
        self.a, self.b, self.c = a, b, c

    # -- helpers ---------------------------------------------------------

    @classmethod
    def _of(cls, a, b, c):
        """a + b*sqrt(c) for Fractions a, b over the operands' square-free c,
        which arithmetic keeps instead of splitting it again."""
        out = object.__new__(cls)
        out.a, out.b, out.c = (a, b, c) if b else (a, Fraction(0), 0)
        return out

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber(Fraction(x), Fraction(0), 0)
        return NotImplemented

    def _join(self, other) -> int:
        """Common radicand for two operands; FieldMismatch if incompatible."""
        if self.c and other.c and self.c != other.c:
            raise FieldMismatch(f"sqrt({self.c}) vs sqrt({other.c})")
        return self.c or other.c

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(c)."""
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 c
        lhs, rhs = a * a, b * b * c
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c = self._join(o)
        return self._of(self.a + o.a, self.b + o.b, c)

    __radd__ = __add__

    def __neg__(self):
        return self._of(-self.a, -self.b, self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c = self._join(o)
        return self._of(self.a * o.a + self.b * o.b * c, self.a * o.b + self.b * o.a, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        c = self._join(o)
        norm = o.a * o.a - o.b * o.b * c
        if norm == 0:
            if o.a == 0 and o.b == 0:
                raise ZeroDivisionError("division by zero")
            raise ZeroDivisionError("division by zero norm element")
        inv = self._of(o.a / norm, -o.b / norm, c)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = self._of(Fraction(1), Fraction(0), 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons -----------------------------------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare with {other!r}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.c == o.c)

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions -----------------------------------------------------

    def bounds(self, scale: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure [lo, hi] with hi - lo <= 1/scale."""
        if self.b == 0:
            return (self.a, self.a)
        babs = abs(self.b)
        inner = scale * (babs.numerator // babs.denominator + 1)
        lo_r, hi_r = nth_root_bounds(self.c, 2, inner)
        if self.b > 0:
            return (self.a + self.b * lo_r, self.a + self.b * hi_r)
        return (self.a + self.b * hi_r, self.a + self.b * lo_r)

    def __float__(self):
        lo, hi = self.bounds(10 ** 17)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.is_rational:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self.c}))"


def sqrt_fraction(r) -> QuadraticNumber:
    """Exact square root of a non-negative rational as a QuadraticNumber."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    p, q = r.numerator, r.denominator
    s, f = squarefree_split(p * q)
    return QuadraticNumber(Fraction(0), Fraction(s, q), f)


def solve_quadratic(a2, a1, a0) -> tuple[QuadraticNumber, QuadraticNumber]:
    """Both real roots of a2*t^2 + a1*t + a0 = 0 (a2 != 0), smaller first."""
    a2, a1, a0 = Fraction(a2), Fraction(a1), Fraction(a0)
    if a2 == 0:
        raise ValueError("not a quadratic")
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        raise ValueError("complex roots")
    rt = sqrt_fraction(disc)
    r1 = (QuadraticNumber(-a1, Fraction(0), 0) - rt) / (2 * a2)
    r2 = (QuadraticNumber(-a1, Fraction(0), 0) + rt) / (2 * a2)
    return (r1, r2) if a2 > 0 else (r2, r1)


def nth_root_bounds(x, k: int, scale: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= x**(1/k) <= hi with hi - lo <= 1/scale, for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    # x^(1/k) = (p q^(k-1))^(1/k) / q
    t = iroot(p * q ** (k - 1) * scale ** k, k)
    return (Fraction(t, q * scale), Fraction(t + 1, q * scale))


def compare_cbrt_sum(x, y, z) -> int:
    """Exact sign of x^(1/3) + y^(1/3) - z^(1/3) for non-negative rationals."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if min(x, y, z) < 0:
        raise ValueError("negative inputs")
    # the sum vanishes iff (x+y-z)^3 == -27xyz: for the real cube roots u, v,
    # w of x, y, -z, u^3+v^3+w^3 = 3uvw iff u+v+w = 0 or u = v = w, and the
    # latter forces u = v = w = 0 on non-negative inputs
    if (x + y - z) ** 3 == -27 * x * y * z:
        return 0
    scale = 10 ** 9
    while True:
        xl, xh = nth_root_bounds(x, 3, scale)
        yl, yh = nth_root_bounds(y, 3, scale)
        zl, zh = nth_root_bounds(z, 3, scale)
        if xl + yl > zh:
            return 1
        if xh + yh < zl:
            return -1
        scale *= 1000


def format_decimal(value, digits: int = 12) -> str:
    """Correctly rounded decimal rendering with `digits` significant digits."""
    if isinstance(value, QuadraticNumber):
        if value.is_rational:
            value = value.a
        else:
            scale = 10 ** (digits + 25)
            lo, hi = value.bounds(scale)
            s_lo = format_decimal(lo, digits)
            s_hi = format_decimal(hi, digits)
            while s_lo != s_hi:
                scale *= 10 ** 10
                lo, hi = value.bounds(scale)
                s_lo = format_decimal(lo, digits)
                s_hi = format_decimal(hi, digits)
            return s_lo
    r = Fraction(value)
    ctx = getcontext().copy()
    ctx.prec = digits
    return str(ctx.divide(Decimal(r.numerator), Decimal(r.denominator)))
