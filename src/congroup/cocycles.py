"""Biadditive shift-equivariant 2-cocycles on A = F((t)) and their calculus.

The family in scope:

* ``BasisOmega(n)``:   omega_n(x, y) = sum_i x_i y_{i+n} t^i
* ``ParamOmega(a)``:   omega_a(x, y) = sum_n a_n omega_n(x, y), a a finite
  window of a two-sided sequence (a_m -> 0, t^m a_{-m} -> 0 in the full space)
* ``Eta(s)``:          eta_s(x, y) = sum_{n>=1} s_n t^n omega_{2n}(x, y),
  s a finite window of a 0/1 sequence
* ``QuadCoboundary``:  the coboundary of f(x) = sum_k u_k omega_k(x, x)
* ``Transformed``:     a * base(b x, b y) + coboundary, for units a, b

Every variant is additive in each slot and equivariant for the shift, so it
satisfies the 2-cocycle identity.  Evaluation tracks per-coefficient
knownness from the index conditions only: the output coefficient at degree d
is stored iff every contributing (bit, input coefficient) is inside the
declared windows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import EmptyWindowWarning, MalformedInput, RingMismatch, WindowTooSmall
from .series import EXACT, Modulus, TruncSeries, one_term, ring_mul, shift, zero


@dataclass(frozen=True)
class BitSeq:
    """A finite window s_1..s_L of a 0/1 sequence; later bits are unknown."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise MalformedInput("bit window must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise MalformedInput("entries must be bits")

    @classmethod
    def from_string(cls, text: str) -> "BitSeq":
        if not text or set(text) - {"0", "1"}:
            raise MalformedInput(f"not a bitstring: {text!r}")
        return cls(tuple(int(c) for c in text))

    @property
    def window(self) -> int:
        return len(self.bits)

    def bit(self, n: int) -> int:
        """s_n for 1 <= n <= window."""
        return self.bits[n - 1]

    @property
    def first_set(self) -> int | None:
        """n0 = min{n : s_n != 0}, None if the window is all zero."""
        for n, b in enumerate(self.bits, start=1):
            if b:
                return n
        return None

    def __str__(self):
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class ParamSeq:
    """A finite window [lo, hi] of a two-sided parameter sequence (a_n).

    Entries not stored are zero; indices outside the window are absent from
    the model (see eval_param_omega for the sufficiency guard).  Membership
    in the full sequence space is asymptotic and stays the caller's
    obligation; check_b_decay reports what is visible on the window.
    """

    ring: Modulus
    lo: int
    hi: int
    entries: tuple[tuple[int, TruncSeries], ...]

    def __post_init__(self):
        if self.lo > self.hi:
            raise MalformedInput("empty parameter window")
        for n, a in self.entries:
            if not self.lo <= n <= self.hi:
                raise MalformedInput(f"entry index {n} outside window [{self.lo}, {self.hi}]")
            if a.ring != self.ring:
                raise RingMismatch(f"entry a_{n} over {a.ring}, expected {self.ring}")

    @classmethod
    def from_dict(cls, ring: Modulus, window: tuple[int, int], entries: dict[int, TruncSeries]) -> "ParamSeq":
        items = tuple(sorted((n, a) for n, a in entries.items() if not a.is_exact_zero()))
        return cls(ring, window[0], window[1], items)

    def entry(self, n: int) -> TruncSeries:
        for i, a in self.entries:
            if i == n:
                return a
        return zero(self.ring)

    def check_b_decay(self) -> list[str]:
        """Decay violations visible on the window: |a_n| (resp. |t^n a_{-n}|)
        must not grow along the stored nonzero entries.  Interior zeros are
        decay-compatible and skipped."""
        issues = []
        pos = [(n, self.entry(n).abs_val().value) for n in range(0, self.hi + 1)]
        neg = [(n, self.entry(-n).shift(n).abs_val().value) for n in range(1, -self.lo + 1)]
        for label, seq in (("|a_{}|", pos), ("|t^{0} a_-{0}|", neg)):
            nonzero = [(n, v) for n, v in seq if v]
            for (n1, v1), (n2, v2) in zip(nonzero, nonzero[1:]):
                if v2 > v1:
                    issues.append(f"{label.format(n2)} > {label.format(n1)}")
        return issues


# -- pointwise evaluations ---------------------------------------------------


def eval_basis_omega(n: int, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """omega_n(x, y): coefficient at i is x_i * y_{i+n}.

    Coefficient i is known iff i < prec_x and i + n < prec_y; exact inputs
    give an exact value (in particular an exact zero input annihilates).  An
    empty known window returns the zero at the sound precision, silently;
    :func:`evaluate` is where that is reported."""
    x._check_ring(y)
    if x.is_exact_zero() or y.is_exact_zero():
        return zero(x.ring)
    lo = max(x.start, y.start - n)
    bounds = []
    if not x.is_exact:
        bounds.append(x.prec)
    if not y.is_exact:
        bounds.append(y.prec - n)
    if not bounds:
        hi = min(x.start + len(x.coeffs), y.start + len(y.coeffs) - n)
        cs = [x.coeff(i) * y.coeff(i + n) for i in range(lo, max(hi, lo))]
        return TruncSeries(x.ring, lo, cs, EXACT)
    prec = min(bounds)
    if prec <= lo:
        return zero(x.ring, prec)
    cs = [x.coeff(i) * y.coeff(i + n) for i in range(lo, prec)]
    return TruncSeries(x.ring, lo, cs, prec)


def eval_eta(s: BitSeq, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """eta_s(x, y): coefficient at d is sum_n s_n x_{d-n} y_{d+n} over
    n in [max(1, start_y - d), d - start_x].

    Precision is the largest P with every degree below P fully inside the
    bit window and the inputs' known windows (an exact zero input
    annihilates).  When nothing is known, for instance because the first
    degree already needs bits past the window, the result is the zero at
    that P; :func:`evaluate` raises WindowTooSmall for the short bit window."""
    x._check_ring(y)
    if x.is_exact_zero() or y.is_exact_zero():
        return zero(x.ring)
    sx, sy = x.start, y.start
    L = s.window
    lo = max(sx + 1, -((-(sx + sy)) // 2))
    d, cs = lo, []
    while True:
        n_min = max(1, sy - d)
        n_max = d - sx
        if n_max > L:
            break
        if not (x.is_exact or d - n_min < x.prec):
            break
        if not (y.is_exact or d + n_max < y.prec):
            break
        cs.append(sum(s.bit(n) * x.coeff(d - n) * y.coeff(d + n) for n in range(n_min, n_max + 1)))
        d += 1
    if d <= lo:
        return zero(x.ring, d)
    return TruncSeries(x.ring, lo, cs, d)


def eval_param_omega(a: ParamSeq, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """omega_a(x, y) = sum over the stored window of a_n * omega_n(x, y).

    For exact inputs the index range of basis terms that could be nonzero is
    [start_y - end_x, end_y - start_x]; if it leaves the window the result
    would depend on absent entries and WindowTooSmall is raised.  Truncated
    inputs cannot prove insufficiency, so the windowed sum is returned with
    the precision its terms support."""
    x._check_ring(y)
    if x.ring != a.ring:
        raise RingMismatch(f"inputs over {x.ring}, parameters over {a.ring}")
    if x.is_exact and y.is_exact and x.coeffs and y.coeffs:
        need_lo = y.start - (x.start + len(x.coeffs) - 1)
        need_hi = (y.start + len(y.coeffs) - 1) - x.start
        if need_lo < a.lo or need_hi > a.hi:
            raise WindowTooSmall(
                f"evaluation needs parameter window [{need_lo}, {need_hi}],"
                f" stored [{a.lo}, {a.hi}]",
                needed=(need_lo, need_hi),
            )
    acc = zero(a.ring)
    for n, a_n in a.entries:
        acc = acc + ring_mul(a_n, eval_basis_omega(n, x, y))
    return acc


def coboundary_potential(terms: Sequence[tuple[int, TruncSeries]], x: TruncSeries) -> TruncSeries:
    """f(x) = sum_k u_k omega_k(x, x); continuous, equivariant, f(0) = 0."""
    acc = zero(x.ring)
    for k, u in terms:
        acc = acc + ring_mul(u, eval_basis_omega(k, x, x))
    return acc


def eval_coboundary(terms: Sequence[tuple[int, TruncSeries]], x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """The coboundary f(x) + f(y) - f(x+y) of the quadratic potential,
    computed through its bilinear expansion -sum_k u_k (omega_k(x,y) + omega_k(y,x))."""
    x._check_ring(y)
    acc = zero(x.ring)
    for k, u in terms:
        mixed = eval_basis_omega(k, x, y) + eval_basis_omega(k, y, x)
        acc = acc + ring_mul(u, mixed)
    return -acc


def eval_coboundary_direct(terms: Sequence[tuple[int, TruncSeries]], x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """Same value by the defining formula; agrees with eval_coboundary at
    shared precision."""
    f = coboundary_potential
    return f(terms, x) + f(terms, y) - f(terms, x + y)


# -- closed spec descriptions -------------------------------------------------


class Cocycle:
    """Base for closed cocycle descriptions; subclasses are frozen values."""

    ring: Modulus

    def __call__(self, x: TruncSeries, y: TruncSeries) -> TruncSeries:
        raise NotImplementedError


def _check_unit(u: TruncSeries, name: str):
    v = u.valuation()
    if v is None:
        raise MalformedInput(f"{name} must have a computable nonzero absolute value")
    if u.coeff(v) % u.ring.p == 0:
        raise MalformedInput(f"{name} leading coefficient must be invertible mod p")


@dataclass(frozen=True)
class BasisOmega(Cocycle):
    ring: Modulus
    n: int

    def __call__(self, x, y):
        return eval_basis_omega(self.n, x, y)


@dataclass(frozen=True)
class ParamOmega(Cocycle):
    seq: ParamSeq

    @property
    def ring(self) -> Modulus:
        return self.seq.ring

    def __call__(self, x, y):
        return eval_param_omega(self.seq, x, y)


@dataclass(frozen=True)
class Eta(Cocycle):
    ring: Modulus
    s: BitSeq

    def __call__(self, x, y):
        return eval_eta(self.s, x, y)


@dataclass(frozen=True)
class QuadCoboundary(Cocycle):
    ring: Modulus
    terms: tuple[tuple[int, TruncSeries], ...] = ()

    def __post_init__(self):
        for _, u in self.terms:
            if u.ring != self.ring:
                raise RingMismatch("coboundary coefficient over the wrong ring")

    def __call__(self, x, y):
        return eval_coboundary(self.terms, x, y)

    def potential(self, x):
        return coboundary_potential(self.terms, x)


@dataclass(frozen=True)
class Transformed(Cocycle):
    """a * base(b x, b y) + coboundary, the orbit of ``base`` under
    multiplication automorphisms and coboundary shifts."""

    base: Cocycle
    a_unit: TruncSeries
    b_unit: TruncSeries
    cob: tuple[tuple[int, TruncSeries], ...] = ()

    def __post_init__(self):
        ring = self.base.ring
        for u, name in ((self.a_unit, "a_unit"), (self.b_unit, "b_unit")):
            if u.ring != ring:
                raise RingMismatch(f"{name} over the wrong ring")
            _check_unit(u, name)
        for _, u in self.cob:
            if u.ring != ring:
                raise RingMismatch("coboundary coefficient over the wrong ring")

    @property
    def ring(self) -> Modulus:
        return self.base.ring

    def __call__(self, x, y):
        bx = ring_mul(self.b_unit, x)
        by = ring_mul(self.b_unit, y)
        out = ring_mul(self.a_unit, self.base(bx, by))
        if self.cob:
            out = out + eval_coboundary(self.cob, x, y)
        return out


EvalTarget = Cocycle | Callable[[TruncSeries, TruncSeries], TruncSeries]


def evaluate(spec: EvalTarget, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """Evaluate a closed spec (or any raw (x, y) -> series map) at a pair.

    This is the public boundary of the empty-window policy; internal code
    calls ``spec(x, y)``, which returns the sound zero when nothing is known.
    Here a plain Eta whose bit window is too short for the first degree
    raises WindowTooSmall, and a result whose absolute value is only an
    upper bound warns EmptyWindowWarning once."""
    if isinstance(spec, Eta) and not (x.is_exact_zero() or y.is_exact_zero()):
        x._check_ring(y)
        needed = max(1, -((x.start - y.start) // 2))
        if needed > spec.s.window:
            raise WindowTooSmall(
                f"eta evaluation needs bits through s_{needed}, window has {spec.s.window}",
                needed=needed,
            )
    out = spec(x, y)
    if not out.abs_val().exact:
        warnings.warn(f"no coefficient known below t^{out.prec}", EmptyWindowWarning, stacklevel=2)
    return out


def antisymmetrize(spec: EvalTarget, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """spec(x, y) - spec(y, x); kills every symmetric (e.g. quadratic
    coboundary) part."""
    return spec(x, y) - spec(y, x)


def b_map(spec: EvalTarget, window: tuple[int, int], ring: Modulus | None = None) -> ParamSeq:
    """The window of probe values (spec(t^0, t^m))_m; recovers the parameter
    sequence of a ParamOmega and inverts the parametrization on the window."""
    if ring is None:
        ring = spec.ring
    lo, hi = window
    entries = {m: spec(one_term(ring, 0), one_term(ring, m)) for m in range(lo, hi + 1)}
    return ParamSeq.from_dict(ring, window, entries)


# -- batch verification --------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    inputs: tuple[TruncSeries, ...]
    lhs: TruncSeries
    rhs: TruncSeries

    def to_json(self):
        return {
            "inputs": [str(v) for v in self.inputs],
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass(frozen=True)
class CheckReport:
    checked: int
    witnesses: tuple[Witness, ...] = ()

    @property
    def failed(self) -> int:
        return len(self.witnesses)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def to_json(self):
        return {
            "format": 1,
            "checked": self.checked,
            "failed": self.failed,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def check_cocycle_identity(spec: EvalTarget, triples: Iterable[tuple[TruncSeries, TruncSeries, TruncSeries]]) -> CheckReport:
    """Evaluate w(y,z) - w(x+y,z) + w(x,y+z) - w(x,y) = 0 at each triple,
    compared at shared precision; failures are reported, not raised."""
    checked, bad = 0, []
    for x, y, z in triples:
        checked += 1
        lhs = spec(y, z) + spec(x, y + z)
        rhs = spec(x + y, z) + spec(x, y)
        if not lhs.agree(rhs):
            bad.append(Witness((x, y, z), lhs, rhs))
    return CheckReport(checked, tuple(bad))


def check_equivariance(spec: EvalTarget, pairs: Iterable[tuple[TruncSeries, TruncSeries]], k_range: Iterable[int]) -> CheckReport:
    """t^k w(x, y) = w(t^k x, t^k y) over the sampled pairs and exponents."""
    ks = list(k_range)
    checked, bad = 0, []
    for x, y in pairs:
        for k in ks:
            checked += 1
            lhs = shift(spec(x, y), k)
            rhs = spec(x.shift(k), y.shift(k))
            if not lhs.agree(rhs):
                bad.append(Witness((x, y, one_term(x.ring, k)), lhs, rhs))
    return CheckReport(checked, tuple(bad))
