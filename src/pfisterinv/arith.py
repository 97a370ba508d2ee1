"""Exact arithmetic over Q: square classes, places, Hilbert symbols, 2-torsion Brauer classes.

Every rational follows one scalar rule: an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a ``float``. ``rat`` is the one
coercion to that rule (``linalg.scalar`` is the same function). Everything
here is a pure function on immutable data, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]

_TRIAL_LIMIT = 1 << 10
_RHO_LIMIT = 1 << 13  # rho steps before sympy: factors to ~24 bits, a few ms


class ZeroInputError(ValueError):
    """An operation that requires a nonzero rational received zero."""


class FactorizationError(RuntimeError):
    """An integer could not be factored within the configured bounds."""


def rat(value: Union[Scalar, str]) -> Scalar:
    """An int, Fraction or "num/den" string as an int if integral, else a Fraction.

    A float, or any other type, raises TypeError: it is not exact. A string
    that is not a rational, or has denominator 0, raises ValueError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif isinstance(value, int):
        return int(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    return value.numerator if value.denominator == 1 else value


def rat_str(x: Union[Scalar, str]) -> str:
    """Serialize a rational as "num/den", omitting a denominator of 1."""
    return str(rat(x))


# ---------------------------------------------------------------------------
# integer factorization
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact far beyond 64-bit inputs)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, limit: Optional[int] = None) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant); 0 when
    none shows within ``limit`` steps of the iteration."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            if limit is not None and steps + 2 * r > limit:
                return 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += r + k
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationError(f"rho failed on {n}")


@lru_cache(maxsize=65536)
def factorize(n: int) -> dict[int, int]:
    """Factor |n| into primes.

    Trial division takes the primes below ``_TRIAL_LIMIT``; Miller-Rabin and
    a deterministic Brent rho split the cofactor. Above 10^18 the rho is
    bounded by ``_RHO_LIMIT`` steps, and sympy's ``factorint`` splits what it
    leaves. The primes come in ascending order.
    """
    if n == 0:
        raise ZeroInputError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # wheel over 6k+-1
    d = 7
    step = 4
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            g = _brent_rho(m, _RHO_LIMIT if m > 10**18 else None)
            if not g:
                # sympy's factorint (p - 1, rho and ECM) splits large hard
                # composites, such as products of two primes above 40 bits
                from sympy import factorint

                for p, e in factorint(m).items():
                    stack.extend([int(p)] * e)
                continue
            stack.append(g)
            stack.append(m // g)
    return dict(sorted(factors.items()))  # one prime order whatever the route


def square_class(x: Scalar) -> int:
    """Reduce a nonzero rational modulo squares to its squarefree integer representative.

    ``x`` and ``square_class(x)`` differ by the square of a rational, and the
    result is the unique squarefree integer with this property.
    """
    x = rat(x)
    if x == 0:
        raise ZeroInputError("square class of 0 is undefined")
    n = abs(x.numerator) * x.denominator
    rep = 1
    for p, e in factorize(n).items():
        if e % 2:
            rep *= p
    return rep if x > 0 else -rep


def sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of n modulo an odd prime p (Tonelli-Shanks).

    Raises ValueError when n is a quadratic non-residue.
    """
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        raise ValueError(f"{n} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _power_root(n: int) -> int:
    """The least b with n = b^e for some e >= 1, for n > 1, with no floats.

    Takes exact prime-order roots while one exists (integer Newton from
    above); the primitive root of a perfect power is unique, so the order
    does not matter.
    """
    k = 2
    while k < n.bit_length():
        r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits / k) > n^(1/k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            n = r
            continue
        k += 1
        while not is_prime(k):
            k += 1
    return n


def _coprime_basis(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 multiplicatively generating the inputs.

    Standard gcd refinement; additionally each basis element is replaced by
    the root of its maximal perfect-power representation, since only the root
    can matter modulo squares and roots are far cheaper to factor.
    """
    base: list[int] = []

    def add(n: int) -> None:
        while n > 1:
            for i, b in enumerate(base):
                g = math.gcd(n, b)
                if g > 1:
                    base.pop(i)
                    add(b // g)
                    add(g)
                    n //= g
                    break
            else:
                base.append(_power_root(n))
                return

    for v in values:
        add(abs(v))
    return base


def square_classes(values: Iterable[Scalar]) -> list[int]:
    """Square classes of many rationals at once.

    A pairwise coprime basis of all numerators and denominators is extracted
    first, so only basis elements -- typically far smaller than the inputs,
    with shared parts handled once -- ever reach the prime factorizer. This
    is what makes square classes of the entries of a joint diagonalization
    tractable: those share enormous common factors.
    """
    xs = [rat(v) for v in values]
    ints = []
    for x in xs:
        if x == 0:
            raise ZeroInputError("square class of 0 is undefined")
        ints.append(abs(x.numerator) * x.denominator)
    base = _coprime_basis(ints)
    out = []
    for x, n in zip(xs, ints):
        odd = 1
        for b in base:
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            if e % 2:
                odd *= b
        if n != 1:
            raise FactorizationError("coprime basis failed to exhaust a value")
        rep = square_class(odd)
        out.append(rep if x > 0 else -rep)
    return out


def sqrt_rational(x: Scalar) -> Scalar:
    """Exact square root of a rational square; raises if x is not a square."""
    x = rat(x)
    if x < 0:
        raise ValueError(f"{x} is not a rational square")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a rational square")
    return rn if rd == 1 else Fraction(rn, rd)


# ---------------------------------------------------------------------------
# places of Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the real place (p == 0) or the p-adic place at a prime."""

    p: int

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def real() -> "Place":
        return Place(0)

    @staticmethod
    def finite(p: int) -> "Place":
        return Place(p)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    @property
    def label(self) -> str:
        return "real" if self.p == 0 else f"p{self.p}"

    @staticmethod
    def from_label(label: str) -> "Place":
        if label == "real":
            return Place.real()
        if label.startswith("p"):
            return Place.finite(int(label[1:]))
        raise ValueError(f"bad place label {label!r}")


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def _val_unit(x: Scalar, p: int) -> tuple[int, Scalar]:
    """Write x = p^v * u with u a p-adic unit; returns (v, u)."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num if den == 1 else Fraction(num, den)


def _unit_mod(u: Scalar, m: int) -> int:
    return u.numerator % m * pow(u.denominator % m, -1, m) % m


def _legendre_unit(u: Scalar, p: int) -> int:
    t = pow(_unit_mod(u, p), (p - 1) // 2, p)
    return 1 if t == 1 else -1


def hilbert_symbol(a: Scalar, b: Scalar, place: Place) -> int:
    """Hilbert symbol (a, b) at a place of Q.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion, via the classical closed-form formulas at the real place, at
    odd primes and at 2.
    """
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise ZeroInputError("hilbert symbol requires nonzero arguments")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p == 2:
        # units are normalized mod 8; eps(u) = (u-1)/2, omega(u) = (u^2-1)/8 mod 2
        um, vm = _unit_mod(u, 8), _unit_mod(v, 8)
        eps_u, eps_v = (um - 1) // 2 % 2, (vm - 1) // 2 % 2
        om_u = 0 if um in (1, 7) else 1
        om_v = 0 if vm in (1, 7) else 1
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        sign = -sign
    if beta % 2 and _legendre_unit(u, p) == -1:
        sign = -sign
    if alpha % 2 and _legendre_unit(v, p) == -1:
        sign = -sign
    return sign


def relevant_places(*values: Scalar) -> list[Place]:
    """Real place, 2, and the odd primes dividing any numerator or denominator."""
    primes = {2}
    for x in values:
        x = rat(x)
        if x == 0:
            raise ZeroInputError("zero has no square class")
        primes.update(factorize(abs(x.numerator) * x.denominator))
    return [Place.real()] + [Place.finite(p) for p in sorted(primes)]


# ---------------------------------------------------------------------------
# 2-torsion Brauer classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrauerClass:
    """An element of the 2-torsion Brauer group of Q, stored as its -1 places.

    Hilbert reciprocity forces an even number of -1 local signs, which is
    checked at construction.
    """

    minus_places: frozenset[Place]

    def __post_init__(self):
        if len(self.minus_places) % 2:
            raise ValueError("odd number of -1 places violates reciprocity")

    @staticmethod
    def trivial() -> "BrauerClass":
        return BrauerClass(frozenset())

    @property
    def is_trivial(self) -> bool:
        return not self.minus_places

    def local_sign(self, place: Place) -> int:
        return -1 if place in self.minus_places else 1

    def __add__(self, other: "BrauerClass") -> "BrauerClass":
        return BrauerClass(self.minus_places ^ other.minus_places)

    def labels(self) -> list[str]:
        return [pl.label for pl in sorted(self.minus_places)]

    @staticmethod
    def from_labels(labels: Iterable[str]) -> "BrauerClass":
        return BrauerClass(frozenset(Place.from_label(s) for s in labels))


def brauer_class_of_symbol(a: Scalar, b: Scalar) -> BrauerClass:
    """Brauer class of the quaternion symbol (a, b) over Q."""
    a, b = rat(a), rat(b)
    minus = [v for v in relevant_places(a, b) if hilbert_symbol(a, b, v) == -1]
    return BrauerClass(frozenset(minus))
