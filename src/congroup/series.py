"""Exact, precision-tracked arithmetic in F((t)) for F = Z/p^m Z.

A :class:`TruncSeries` records what is *known* about a formal Laurent series
x = sum_n x_n t^n over Z/p^m Z:

* indices below ``start`` are exactly zero,
* indices in the half-open window ``[start, prec)`` equal the stored residues,
* indices at or above ``prec`` are unknown,

unless ``prec`` is the marker :data:`EXACT`, in which case the series is
finitely supported and fully known.  Values are immutable and canonical: the
first stored residue is nonzero (or the window is empty), so equal knowledge
compares equal bit for bit.  The contractive shift automorphism is
``x -> t x``, and the absolute value is p^(-N) with N the least nonzero index.

Every addition goes through one summation kernel, :func:`_sum`, which builds
a sum of any number of parts (negated on request) as a single series; ``+``
is its two-part case, and the cocycle and extension layers pass it whole
lists of terms instead of accumulating them one ``+`` at a time.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator, Sequence

from .errors import InsufficientPrecision, MalformedInput, RingMismatch, SeriesSyntaxError

#: Precision marker for finitely supported (fully known) series.
EXACT = None


#: Every prime ``p`` must lie below this cap: Miller-Rabin with the prime
#: bases 2..37 is a proof of primality for every integer below 2**64.
P_CAP = 2**64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every ``p < P_CAP``."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        a = pow(b, d, p)
        if a == 1 or a == p - 1:
            continue
        for _ in range(s - 1):
            a = a * a % p
            if a == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """Coefficient ring Z/p^m Z with m >= 1 and p a prime below ``P_CAP`` =
    2**64, checked by deterministic Miller-Rabin (exact below the cap)."""

    p: int
    m: int = 1

    def __post_init__(self):
        if isinstance(self.p, int) and self.p >= P_CAP:
            raise MalformedInput(f"p = {self.p!r} is too large: p must be a prime below 2**64")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise MalformedInput(f"p = {self.p!r} is not a prime integer")
        if not isinstance(self.m, int) or self.m < 1:
            raise MalformedInput(f"m = {self.m!r} must be a positive integer")
        # q = p^m is read once per coefficient of every construction, and the
        # exact zero is built once here for zero() and for every sum or
        # product with nothing to add; both are attributes, not fields, so
        # ==, hash and repr see only (p, m)
        object.__setattr__(self, "q", self.p**self.m)
        object.__setattr__(self, "_zero", TruncSeries._canonical(self, 0, (), EXACT))

    def reduce(self, c: int) -> int:
        return c % self.q

    def __repr__(self):
        return f"Modulus({self.p}, {self.m})"

    def __str__(self):
        return f"Z/{self.q}" if self.m > 1 else f"F_{self.p}"


@total_ordering
class AbsValue:
    """The absolute value |x|, either known exactly or only bounded above.

    ``exact`` is True iff some stored coefficient is nonzero (then the value
    is p^(-valuation)) or the series is the exact zero (value 0).  Otherwise
    the value is the upper bound p^(-prec).  Comparisons use the rational
    ``value``; bounds compare by their bound.
    """

    __slots__ = ("p", "exact", "valuation")

    def __init__(self, p: int, exact: bool, valuation: int | None):
        self.p = p
        self.exact = exact
        self.valuation = valuation  # None encodes the exact zero

    @property
    def value(self) -> Fraction:
        if self.valuation is None:
            return Fraction(0)
        if self.valuation >= 0:
            return Fraction(1, self.p**self.valuation)
        return Fraction(self.p ** (-self.valuation))

    def __eq__(self, other):
        if not isinstance(other, AbsValue):
            return NotImplemented
        return (self.exact, self.value) == (other.exact, other.value)

    def __lt__(self, other):
        if isinstance(other, AbsValue):
            return self.value < other.value
        return self.value < other

    def __hash__(self):
        # exactly what __eq__ compares: |1| over F_2 equals |1| over F_3
        return hash((self.exact, self.value))

    def __repr__(self):
        if self.valuation is None:
            return "AbsValue(0, exact)"
        kind = "exact" if self.exact else "upper bound"
        return f"AbsValue({self.p}^{-self.valuation}, {kind})"


class TruncSeries:
    """Canonical truncated Laurent series over a :class:`Modulus`.

    Construction canonicalizes: residues are reduced mod p^m, the window is
    zero-filled up to ``prec``, leading zeros raise ``start``, and an EXACT
    series drops trailing zeros (the exact zero keeps start = 0).
    """

    __slots__ = ("ring", "start", "coeffs", "prec")

    def __init__(self, ring: Modulus, start: int, coeffs: Sequence[int], prec: int | None = EXACT):
        q = ring.q
        cs = [c % q for c in coeffs]
        if prec is EXACT:
            while cs and cs[-1] == 0:
                cs.pop()
        else:
            if prec < start + len(cs):
                raise MalformedInput(
                    f"prec {prec} below declared window end {start + len(cs)}"
                )
            cs.extend([0] * (prec - start - len(cs)))
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        if lead:
            cs = cs[lead:]
            start += lead
        if not cs:
            start = 0 if prec is EXACT else prec
        _set_ring(self, ring)
        _set_start(self, start)
        _set_coeffs(self, tuple(cs))
        _set_prec(self, prec)

    @classmethod
    def _canonical(cls, ring: Modulus, start: int, coeffs: tuple[int, ...], prec: int | None) -> "TruncSeries":
        """A series from parts already in canonical form, with no reduction
        and no checks.  Only this module calls it, and only with parts derived
        from canonical values by a map that keeps them canonical: every
        residue in [0, q), the first one nonzero, a truncated window filled
        exactly to ``prec`` (start = prec when empty), an exact one ending in
        a nonzero residue (start = 0 when empty)."""
        self = object.__new__(cls)
        _set_ring(self, ring)
        _set_start(self, start)
        _set_coeffs(self, coeffs)
        _set_prec(self, prec)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is EXACT

    def known(self, i: int) -> bool:
        """Is the coefficient at index ``i`` determined by this value?"""
        return self.is_exact or i < self.prec

    def coeff(self, i: int) -> int:
        """Coefficient at index ``i``; raises when ``i`` is beyond prec."""
        if i < self.start:
            return 0
        if self.is_exact:
            return self.coeffs[i - self.start] if i - self.start < len(self.coeffs) else 0
        if i >= self.prec:
            raise InsufficientPrecision(f"coefficient at t^{i} unknown (prec {self.prec})")
        return self.coeffs[i - self.start]

    def valuation(self) -> int | None:
        """Least index with a nonzero stored coefficient, None if there is none."""
        # canonical form: the first stored coefficient is nonzero
        return self.start if self.coeffs else None

    def is_zero(self) -> bool:
        """Zero at the available precision (every known coefficient vanishes)."""
        return self.valuation() is None

    def is_exact_zero(self) -> bool:
        return self.is_exact and not self.coeffs

    def support(self) -> Iterator[tuple[int, int]]:
        """Pairs (index, residue) with nonzero residue, ascending."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.start + i, c

    def abs_val(self) -> AbsValue:
        v = self.valuation()
        if v is not None:
            return AbsValue(self.ring.p, True, v)
        if self.is_exact:
            return AbsValue(self.ring.p, True, None)
        return AbsValue(self.ring.p, False, self.prec)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "TruncSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return _sum(self.ring, (self, other))

    def __neg__(self) -> "TruncSeries":
        q = self.ring.q
        return TruncSeries._canonical(
            self.ring, self.start, tuple([q - c if c else 0 for c in self.coeffs]), self.prec
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def int_mul(self, k: int) -> "TruncSeries":
        return TruncSeries(self.ring, self.start, [k * c for c in self.coeffs], self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.int_mul(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return ring_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.int_mul(other)
        return NotImplemented

    def shift(self, k: int) -> "TruncSeries":
        """The automorphism x -> t^k x: indices move up by k."""
        if self.prec is EXACT:
            if not self.coeffs:
                return self  # the exact zero keeps start 0
            return TruncSeries._canonical(self.ring, self.start + k, self.coeffs, EXACT)
        return TruncSeries._canonical(self.ring, self.start + k, self.coeffs, self.prec + k)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.start == other.start
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.ring, self.start, self.coeffs, self.prec))

    def agree(self, other: "TruncSeries") -> bool:
        """Equality at shared precision: all commonly known coefficients match."""
        if self.ring is not other.ring:
            self._check_ring(other)
        if self.is_exact and other.is_exact:
            return self.coeffs == other.coeffs and (
                self.start == other.start or not self.coeffs
            )
        bound = min(p for p in (self.prec, other.prec) if p is not EXACT)
        lo = min(self.start, other.start, bound)
        return self._window(lo, bound) == other._window(lo, bound)

    def agree_through(self, other: "TruncSeries", idx: int) -> bool:
        """Do both values determine and match every coefficient at index <= idx?"""
        self._check_ring(other)
        if not (self.known(idx) and other.known(idx)):
            raise InsufficientPrecision(f"cannot compare through t^{idx}")
        lo = min(self.start, other.start, idx)
        return self._window(lo, idx + 1) == other._window(lo, idx + 1)

    def _window(self, lo: int, hi: int) -> tuple[int, ...]:
        """The coefficients at indices lo..hi-1, with lo <= start and every
        index below hi known."""
        k = min(max(hi - self.start, 0), len(self.coeffs))
        head = min(self.start, hi) - lo
        return (0,) * head + self.coeffs[:k] + (0,) * (hi - lo - head - k)

    def __repr__(self):
        return f"TruncSeries({self.ring!r}, {format_series(self)!r})"

    def __str__(self):
        return format_series(self)


# the slots' own member descriptors: __setattr__ raises, and a descriptor's
# __set__ takes about half the time of object.__setattr__ (timeit, CPython
# 3.11, x86-64)
_set_ring = TruncSeries.ring.__set__
_set_start = TruncSeries.start.__set__
_set_coeffs = TruncSeries.coeffs.__set__
_set_prec = TruncSeries.prec.__set__


def _sum(ring: Modulus, parts: Sequence[TruncSeries], negate: bool = False) -> TruncSeries:
    """The sum of ``parts`` over ``ring`` (or its negation), built as one
    series; equal bit for bit to the left fold of ``+`` from the exact zero
    (then unary ``-``), and raising RingMismatch where that fold would.

    The precision is the least truncated prec, EXACT when every part is
    exact.  The window starts at the least start of a part with stored
    residues (and at most at the prec) and ends at the prec, or at the last
    stored residue of an exact sum; every part is clipped to the window and
    the residues are reduced once, by the one construction."""
    prec = EXACT
    live = []
    for x in parts:
        if x.ring is not ring and x.ring != ring:
            raise RingMismatch(f"{ring} vs {x.ring}")
        if x.prec is not EXACT and (prec is EXACT or x.prec < prec):
            prec = x.prec
        if x.coeffs:
            live.append(x)
    if prec is EXACT:
        if not live:
            return ring._zero
        lo = min([x.start for x in live])
        hi = max([x.start + len(x.coeffs) for x in live])
    else:
        lo = min([x.start for x in live] + [prec])
        hi = prec
    cs = [0] * (hi - lo)
    first = True
    for x in live:
        n = hi - x.start
        if n <= 0:
            continue  # a part that starts at or past the prec adds nothing
        xs = x.coeffs[:n]
        i = x.start - lo
        if first:
            cs[i : i + len(xs)] = xs
            first = False
        else:
            for i, c in enumerate(xs, i):
                cs[i] += c
    if negate:
        cs = [-c for c in cs]
    return TruncSeries(ring, lo, cs, prec)


# -- module-level operation surface ----------------------------------------


def make_series(ring: Modulus, start: int, coeffs: Sequence[int], prec: int | None = EXACT) -> TruncSeries:
    """Construct a canonical series; declared window is zero-filled to prec."""
    return TruncSeries(ring, start, coeffs, prec)


def zero(ring: Modulus, prec: int | None = EXACT) -> TruncSeries:
    """The exact zero, or the zero known below ``prec`` (start = prec)."""
    if prec is EXACT:
        return ring._zero
    return TruncSeries._canonical(ring, prec, (), prec)


def one_term(ring: Modulus, idx: int, c: int = 1) -> TruncSeries:
    """The exact monomial c*t^idx."""
    return TruncSeries(ring, idx, [c], EXACT)


def ring_mul(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """Product by Kronecker substitution.  Result prec is min(prec_x + start_y,
    prec_y + start_x), the sharpest bound sound against unknown tails; a
    product with an exact zero is the exact zero.

    Only the first ``n = hi - lo`` coefficients of each operand reach the
    window.  Each operand's residues are packed into one integer, one slot per
    coefficient; a slot of ``bitlen(min(len_x, len_y) * (q - 1)**2)`` bits
    holds any coefficient of the integer product, so no slot carries into the
    next and a single big-integer multiply (Karatsuba in CPython) gives every
    product coefficient exactly.  Operands with at most
    :data:`_SCHOOLBOOK_PAIRS` coefficient pairs are multiplied by a plain
    schoolbook loop instead, since packing costs more than a handful of
    multiplications."""
    if x.ring is not y.ring:
        x._check_ring(y)
    if (x.prec is EXACT and not x.coeffs) or (y.prec is EXACT and not y.coeffs):
        return zero(x.ring)
    lo = x.start + y.start
    bounds = []
    if x.prec is not EXACT:
        bounds.append(x.prec + y.start)
    if y.prec is not EXACT:
        bounds.append(y.prec + x.start)
    if not bounds:
        hi = x.start + len(x.coeffs) + y.start + len(y.coeffs) - 1
        prec = EXACT
    else:
        hi = min(bounds)
        prec = hi
        if hi <= lo:
            return zero(x.ring, hi)
    n = hi - lo
    xs, ys = x.coeffs[:n], y.coeffs[:n]
    if len(xs) * len(ys) <= _SCHOOLBOOK_PAIRS:
        cs = [0] * n
        for i, a in enumerate(xs):
            for d, b in enumerate(ys[: n - i], i):
                cs[d] += a * b
    else:
        cs = _kronecker(xs, ys, x.ring.q, n)
    return TruncSeries(x.ring, lo, cs, prec)


#: Largest ``len_x * len_y`` multiplied by schoolbook.  Timed with timeit on
#: CPython 3.11, x86-64, 2 vCPUs: packing costs 1.5-3 us more than
#: schoolbook at 1-4 pairs, the two cross between 25 and 36 pairs for
#: balanced operands and q <= 65537, and packing wins from 6 x 6 on, by
#: about 4x at 16 x 16.
_SCHOOLBOOK_PAIRS = 32

#: Unsigned ``array`` typecode for each item size in bytes.
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _kronecker(xs: Sequence[int], ys: Sequence[int], q: int, n: int) -> list[int]:
    """The first ``n`` integer coefficients of the product of two non-empty
    residue lists (unreduced), by one multiplication of packed integers.
    Slots of 1, 2, 4 or 8 bytes go through ``array``; wider slots (large q)
    through ``int.to_bytes``."""
    bits = (min(len(xs), len(ys)) * (q - 1) ** 2).bit_length()
    size = next((s for s in (1, 2, 4, 8) if 8 * s >= bits), -(-bits // 8))
    code = _ARRAY_CODES.get(size)
    order = sys.byteorder
    if code:
        pack = lambda cs: array(code, cs).tobytes()
    else:
        pack = lambda cs: b"".join(c.to_bytes(size, order) for c in cs)
    product = int.from_bytes(pack(xs), order) * int.from_bytes(pack(ys), order)
    raw = product.to_bytes(size * (len(xs) + len(ys) - 1), order)[: size * n]
    if code:
        out = array(code)
        out.frombytes(raw)
        return out.tolist()
    return [int.from_bytes(raw[i : i + size], order) for i in range(0, len(raw), size)]


# -- text grammar -----------------------------------------------------------
#
# series := "0" | term (" + " term)* [" + " "O(t^" INT ")"]
# term   := COEFF "*t^" INT | "t^" INT
#
# with COEFF a decimal residue in [0, p^m), powers strictly ascending, and
# the O-term present iff the series is truncated.  A truncated zero is the
# bare "O(t^" INT ")".  format always emits the COEFF*t^N form.


def format_series(x: TruncSeries) -> str:
    terms = [f"{c}*t^{i}" for i, c in x.support()]
    if x.is_exact:
        return " + ".join(terms) if terms else "0"
    o = f"O(t^{x.prec})"
    return " + ".join(terms + [o]) if terms else o


def parse(ring: Modulus, text: str) -> TruncSeries:
    """Parse the series grammar; inverse of :func:`format_series` on canonical
    values.  Raises :class:`SeriesSyntaxError` with the failing offset."""
    if text == "0":
        return zero(ring)
    pos = 0
    entries: list[tuple[int, int]] = []
    prec: int | None = EXACT
    while True:
        sep = text.find(" + ", pos)
        token = text[pos:sep] if sep >= 0 else text[pos:]
        if prec is not EXACT:
            raise SeriesSyntaxError("term after O(...)", pos)
        if token.startswith("O(t^") and token.endswith(")"):
            prec = _parse_int(token[4:-1], pos + 4)
        else:
            entries.append(_parse_term(ring, token, pos))
        if sep < 0:
            break
        pos = sep + 3
    powers = [i for i, _ in entries]
    if sorted(set(powers)) != powers:
        raise SeriesSyntaxError("powers must be strictly ascending", 0)
    if not entries:
        if prec is EXACT:
            raise SeriesSyntaxError("empty series", 0)
        return zero(ring, prec)
    start = entries[0][0]
    end = entries[-1][0]
    if prec is not EXACT and prec <= end:
        raise SeriesSyntaxError(f"O(t^{prec}) does not cover stated term t^{end}", 0)
    cs = [0] * (end - start + 1)
    for i, c in entries:
        cs[i - start] = c
    return TruncSeries(ring, start, cs, prec)


def _parse_int(text: str, pos: int) -> int:
    tidy = text[1:] if text[:1] == "-" else text
    if not tidy.isdecimal():
        raise SeriesSyntaxError(f"expected integer, got {text!r}", pos)
    return int(text)


def _parse_term(ring: Modulus, token: str, pos: int) -> tuple[int, int]:
    if token.startswith("t^"):
        return _parse_int(token[2:], pos + 2), 1
    star = token.find("*t^")
    if star < 0:
        raise SeriesSyntaxError(f"malformed term {token!r}", pos)
    coeff_text = token[:star]
    if not coeff_text.isdecimal():
        raise SeriesSyntaxError(f"coefficient must be a decimal residue, got {coeff_text!r}", pos)
    c = int(coeff_text)
    if c >= ring.q:
        raise SeriesSyntaxError(f"coefficient {c} outside [0, {ring.q})", pos)
    return _parse_int(token[star + 3 :], pos + star + 3), c
