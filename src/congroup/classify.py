"""Classification data for abelian contraction groups.

Torsion groups are shift groups over finite abelian F and are classified by
the multiplicity table nu(p, n) of cyclic blocks Z/p^n; two tables are equal
iff the groups are isomorphic.  The linear blocks at the places p and
infinity are cut out by monic polynomials with all roots strictly inside
the unit circle of the local field; membership is decided exactly by the
Schur-Cohn reduction over Q (real place) and by coefficient valuations
(p-adic places).  The embedding theta_x realizes the smallest shift-stable
closed subgroup generated by an element of order p^k.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Mapping

from .errors import BadParams, DegreeZero, MalformedInput, NotContractive, NotExact, OrderMismatch
from .series import P_CAP, Modulus, TruncSeries, _is_prime, make_series, ring_mul


# -- finite abelian data -------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianType:
    """A finite abelian group given by a multiset of cyclic factor orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(n, int) or n < 2 for n in self.orders):
            raise BadParams("cyclic factor orders must be integers >= 2")
        for n in self.orders:
            if n >= P_CAP:
                raise BadParams(f"cyclic factor order {n} is too large: orders must lie below 2**64")
        object.__setattr__(self, "orders", tuple(sorted(self.orders)))

    @classmethod
    def of(cls, *orders: int) -> "FiniteAbelianType":
        return cls(tuple(orders))


@dataclass(frozen=True)
class NuTable:
    """Finitely supported multiplicities nu(p, n) of the blocks Z/p^n((t)).

    Table equality (``==``) decides isomorphism of the torsion contraction
    groups."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], int]) -> "NuTable":
        for (p, n), mult in d.items():
            if mult < 0 or n < 1:
                raise BadParams(f"bad table entry nu{(p, n)} = {mult}")
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def mult(self, p: int, n: int) -> int:
        return self.as_dict().get((p, n), 0)

    def __add__(self, other: "NuTable") -> "NuTable":
        out = self.as_dict()
        for k, v in other.entries:
            out[k] = out.get(k, 0) + v
        return NuTable.from_dict(out)

    def length(self) -> int:
        """Composition length: sum of n * nu(p, n)."""
        return sum(n * mult for (_, n), mult in self.entries)

    def delta(self) -> int:
        """Scale factor of the inverse shift: product of p^(n nu(p, n))."""
        out = 1
        for (p, n), mult in self.entries:
            out *= p ** (n * mult)
        return out

    def to_json(self):
        return {
            "format": 1,
            "nu": [{"p": p, "n": n, "mult": m} for (p, n), m in self.entries],
        }


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: k} of 1 <= n < 2**64: trial division below
    100, then Pollard-Brent rho splits what is left until every part passes
    the deterministic Miller-Rabin test (exact below 2**64).  A factor p
    costs about sqrt(p) steps, so a product of two 32-bit primes takes
    milliseconds."""
    out: dict[int, int] = {}
    for d in range(2, 100):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            parts += [d, m // d]
    return out


def _rho(n: int) -> int:
    """A proper factor of an odd composite n without prime factors below
    100: Pollard's rho on y -> y^2 + c with Brent's cycle search, taking
    gcds of products of up to 128 differences; c = 1, 2, ... until a run
    does not collapse to n, so the result is deterministic."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def primary_decompose(group: FiniteAbelianType) -> NuTable:
    """Split each cyclic order into prime powers and tally the multiplicities."""
    table: dict[tuple[int, int], int] = {}
    for order in group.orders:
        for p, k in _factorize(order).items():
            table[(p, k)] = table.get((p, k), 0) + 1
    return NuTable.from_dict(table)


@dataclass(frozen=True)
class CompositionData:
    chain_exponents: tuple[int, ...]  # subgroup p^e F((t)) per step, top exponent first
    length: int
    delta: int

    def to_json(self):
        return {
            "format": 1,
            "chain": [f"p^{e}" for e in self.chain_exponents],
            "length": self.length,
            "delta": self.delta,
        }


def composition_data(p: int, m: int) -> CompositionData:
    """The totally ordered stable-subgroup chain of Z/p^m((t)): length m,
    inverse-shift scale p^m."""
    Modulus(p, m)  # validates
    return CompositionData(tuple(range(m, -1, -1)), m, p**m)


# -- element orders and the generated stable subgroup ---------------------------


def _coeff_padic_val(c: int, p: int, m: int) -> int:
    v = 0
    while v < m and c % p == 0:
        c //= p
        v += 1
    return v


def element_order(x: TruncSeries) -> int:
    """The order p^k of a finitely supported x over Z/p^m: k = m minus the
    least coefficient valuation."""
    if not x.is_exact:
        raise NotExact("element order needs a finitely supported value")
    p, m = x.ring.p, x.ring.m
    if x.is_exact_zero():
        return 1
    k = m - min(_coeff_padic_val(c, p, m) for _, c in x.support())
    return p**k


def stable_subgroup_locate(x: TruncSeries) -> int:
    """k with <x>_shift = p^(m-k) Z/p^m((t)); 0 for x = 0, m for full order."""
    order = element_order(x)
    k = 0
    while order > 1:
        order //= x.ring.p
        k += 1
    # consistency: every coefficient lies in p^(m-k) Z/p^m
    assert all(c % x.ring.p ** (x.ring.m - k) == 0 for _, c in x.support())
    return k


def theta_x(x: TruncSeries, z: TruncSeries) -> TruncSeries:
    """The morphism Z/p^k((t)) -> Z/p^m((t)) determined by t^0 -> x:
    z = sum k_j t^j maps to sum k_j (t^j x).

    Requires x finitely supported of order exactly p^k where Z/p^k is the
    ring of z; the image generates the smallest shift-stable closed subgroup
    containing x."""
    if z.ring.p != x.ring.p:
        raise OrderMismatch("domain and codomain primes differ")
    order = element_order(x)
    if order != x.ring.p**z.ring.m:
        raise OrderMismatch(
            f"x has order {order}, domain ring expects p^{z.ring.m}"
        )
    lifted = make_series(x.ring, z.start, z.coeffs, z.prec)  # digits in [0, p^k)
    return ring_mul(lifted, x)


# -- contractivity of linear blocks ---------------------------------------------


@dataclass(frozen=True)
class RationalPoly:
    """A monic polynomial X^d + a_{d-1} X^{d-1} + ... + a_0 over Q."""

    coeffs: tuple[Fraction, ...]  # a_0 .. a_{d-1}

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __str__(self):
        parts = ["x" if self.degree == 1 else f"x^{self.degree}"]
        for i in range(self.degree - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            coeff = "" if mag == 1 and i > 0 else f"{mag}*"
            power = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            term = f"{coeff}{power}" if i > 0 else f"{mag}"
            parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[0-9]+(?:/0*[1-9][0-9]*)?)?\s*(?:\*?\s*(?P<var>[xX])(?:\^(?P<pow>[0-9]+))?)?\s*$"
)


def parse_poly(text: str) -> RationalPoly:
    """Parse e.g. "x^2 - 1/2*x + 1/8" into a monic RationalPoly."""
    tokens = re.split(r"(?=[+-])", text.replace(" ", ""))
    coeffs: dict[int, Fraction] = {}
    for tok in tokens:
        if not tok:
            continue
        sign = -1 if tok.startswith("-") else 1
        body = tok.lstrip("+-")
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise MalformedInput(f"cannot parse polynomial term {tok!r}")
        c = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("var"):
            power = int(m.group("pow")) if m.group("pow") else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * c
    degree = max(coeffs, default=0)
    if degree < 1:
        raise DegreeZero("constant polynomials have no contraction block")
    if coeffs.get(degree) != 1:
        raise MalformedInput("polynomial must be monic")
    return RationalPoly(tuple(coeffs.get(i, Fraction(0)) for i in range(degree)))


def schur_cohn(f: RationalPoly) -> bool:
    """Exact test: all complex roots strictly inside the unit circle.

    Each reduction step compares |a_0| with |a_d| and passes to
    (a_d f - a_0 f*) / z; no floating point anywhere."""
    cs = list(f.coeffs) + [Fraction(1)]
    if len(cs) < 2:
        raise DegreeZero("degree must be at least 1")
    while len(cs) > 1:
        a0, ad = cs[0], cs[-1]
        if abs(a0) >= abs(ad):
            return False
        d = len(cs) - 1
        cs = [ad * cs[i + 1] - a0 * cs[d - i - 1] for i in range(d)]
    return True


def _val_p(r: Fraction, p: int) -> int | float:
    if r == 0:
        return float("inf")
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def omega_p_contractive(f: RationalPoly, p: int) -> bool:
    """All roots of modulus < 1 in the p-adic absolute value.

    For monic f over Q this holds iff v_p(a_i) >= 1 for every lower
    coefficient: positive root valuations push every elementary symmetric
    function to positive (hence >= 1, integrality on Q) valuation, and
    conversely such coefficients give a strictly descending lower Newton
    polygon, so every root valuation is positive."""
    if not isinstance(p, int) or not _is_prime(p):
        raise BadParams(f"p = {p!r} is not a prime")
    return all(_val_p(c, p) >= 1 for c in f.coeffs)


# -- full classification tuples --------------------------------------------------

INF_PLACE = "inf"


@dataclass(frozen=True)
class Block:
    """One linear block (place, f, n) with multiplicity."""

    place: int | str  # a prime or INF_PLACE
    poly: RationalPoly
    n: int
    mult: int

    def sort_key(self):
        at_inf = self.place == INF_PLACE
        return (at_inf, self.place if not at_inf else 0, self.poly.degree, self.poly.coeffs, self.n)


@dataclass(frozen=True)
class ContractionSpec:
    """The classification tuple: linear blocks plus the torsion table."""

    blocks: tuple[Block, ...]
    nu: NuTable

    def to_json(self):
        return {
            "format": 1,
            "blocks": [
                {"place": b.place, "poly": str(b.poly), "n": b.n, "mult": b.mult}
                for b in self.blocks
            ],
            "nu": self.nu.to_json()["nu"],
        }


def canonicalize_spec(spec: ContractionSpec) -> ContractionSpec:
    """Validate contractivity per place, merge duplicate blocks, sort
    canonically (finite places ascending, then infinity; then degree,
    coefficients, n)."""
    merged: dict[tuple, Block] = {}
    for b in spec.blocks:
        if b.n < 1 or b.mult < 0:
            raise BadParams(f"bad block {b}")
        if b.place == INF_PLACE:
            if not schur_cohn(b.poly):
                raise NotContractive(INF_PLACE, str(b.poly), "schur-cohn")
        else:
            if not omega_p_contractive(b.poly, b.place):
                raise NotContractive(b.place, str(b.poly), "p-adic-valuation")
        key = (b.place, b.poly.coeffs, b.n)
        if key in merged:
            prev = merged[key]
            merged[key] = Block(b.place, b.poly, b.n, prev.mult + b.mult)
        else:
            merged[key] = b
    blocks = tuple(sorted((b for b in merged.values() if b.mult), key=Block.sort_key))
    return ContractionSpec(blocks, spec.nu)


def spec_iso_test(s1: ContractionSpec, s2: ContractionSpec) -> bool:
    return canonicalize_spec(s1) == canonicalize_spec(s2)


def spec_from_json(blob) -> ContractionSpec:
    """The tuple of a JSON object or its text, as :meth:`ContractionSpec.to_json`
    writes it; text that is not such an object raises MalformedInput."""
    try:
        if isinstance(blob, str):
            blob = json.loads(blob)
        blocks = []
        for b in blob.get("blocks", []):
            place = b["place"]
            if place != INF_PLACE:
                place = int(place)
            blocks.append(Block(place, parse_poly(b["poly"]), int(b["n"]), int(b["mult"])))
        nu = {(int(e["p"]), int(e["n"])): int(e["mult"]) for e in blob.get("nu", [])}
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise MalformedInput(f"bad classification tuple: {err!r}") from err
    return ContractionSpec(tuple(blocks), NuTable.from_dict(nu))
