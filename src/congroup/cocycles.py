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

Every sum of basis omegas (``ParamOmega``, the quadratic potential, its
coboundary and the coboundary part of ``Transformed``) goes through one
evaluation kernel, :func:`_bilinear`, which works on raw (start, residues,
prec) triples and builds one series for the whole sum; omega_n's window and
precision are stated once, in :func:`_omega`, which ``BasisOmega`` shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .errors import EmptyWindowWarning, MalformedInput, RingMismatch, WindowTooSmall
from .series import EXACT, Modulus, TruncSeries, one_term, ring_mul, zero


@dataclass(frozen=True)
class BitSeq:
    """A finite window s_1..s_L of a 0/1 sequence; later bits are unknown."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise MalformedInput("bit window must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise MalformedInput("entries must be bits")
        # the positions n with s_n = 1, read by every eta evaluation; an
        # attribute, not a field, so ==, hash and repr see only the bits
        object.__setattr__(self, "_ones", tuple(n for n, b in enumerate(self.bits, start=1) if b))

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


def _omega(n: int, x: TruncSeries, y: TruncSeries) -> tuple[int, list[int], int | None]:
    """omega_n(x, y) as a raw triple ``(lo, products, prec)``: products[i] is
    the unreduced x_{lo+i} y_{lo+i+n}, and every known coefficient past the
    list is zero.  The one place that states omega_n's window and precision.

    Coefficient i is known iff i < prec_x and i + n < prec_y; exact inputs
    give an exact value, ``(0, [], EXACT)`` for the exact zero, and an empty
    known window gives ``(prec, [], prec)``."""
    xs, ys, x_prec, y_prec = x.coeffs, y.coeffs, x.prec, y.prec
    if (x_prec is EXACT and not xs) or (y_prec is EXACT and not ys):
        return 0, [], EXACT
    sx, sy = x.start, y.start - n
    lo = sx if sx > sy else sy
    if x_prec is EXACT and y_prec is EXACT:
        prec = EXACT
        hi = min(sx + len(xs), sy + len(ys))
    else:
        if y_prec is EXACT or (x_prec is not EXACT and x_prec <= y_prec - n):
            prec = x_prec
        else:
            prec = y_prec - n
        hi = prec
    if hi <= lo:
        return (0, [], EXACT) if prec is EXACT else (prec, [], prec)
    # lo >= start_x and lo >= start_y - n; a slice of an exact input ends at
    # its last stored residue and zip stops there, the zeros past it
    # contribute nothing
    return lo, [a * b for a, b in zip(xs[lo - sx : hi - sx], ys[lo - sy : hi - sy])], prec


def eval_basis_omega(n: int, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """omega_n(x, y): coefficient at i is x_i * y_{i+n}, known iff i < prec_x
    and i + n < prec_y (see :func:`_omega`).  An empty known window returns
    the zero at the sound precision, silently; :func:`evaluate` is where that
    is reported."""
    if x.ring is not y.ring:
        x._check_ring(y)
    lo, cs, prec = _omega(n, x, y)
    if not cs:
        return zero(x.ring, prec)
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
    xs, ys = x.coeffs, y.coeffs
    x_end, y_end = sx + len(xs), sy + len(ys)
    x_prec, y_prec = x.prec, y.prec
    L = s.window
    ones = s._ones
    lo = max(sx + 1, -((-(sx + sy)) // 2))
    d = lo
    while True:
        n_min = max(1, sy - d)
        n_max = d - sx
        if n_max > L:
            break
        if x_prec is not EXACT and d - n_min >= x_prec:
            break
        if y_prec is not EXACT and d + n_max >= y_prec:
            break
        d += 1
    if d <= lo:
        return zero(x.ring, d)
    # every degree in [lo, d) is known; bit n adds x_{e-n} y_{e+n} at each
    # degree e with both indices inside the stored ranges (past them an exact
    # input is zero), a slice of degrees per bit
    cs = [0] * (d - lo)
    for n in ones:
        e0 = max(lo, sx + n, sy - n)
        e1 = min(d, x_end + n, y_end - n)
        if e0 < e1:
            products = map(mul, xs[e0 - n - sx : e1 - n - sx], ys[e0 + n - sy : e1 + n - sy])
            cs[e0 - lo : e1 - lo] = map(add, cs[e0 - lo : e1 - lo], products)
    return TruncSeries(x.ring, lo, cs, d)


def _bilinear(
    terms: Iterable[tuple[int, TruncSeries]],
    x: TruncSeries,
    y: TruncSeries,
    cob: bool = False,
    lead: TruncSeries | None = None,
) -> TruncSeries:
    """The evaluation kernel of every sum of basis omegas: ``lead`` (when
    given) plus sum_k u_k w_k, with w_k = omega_k(x, y), or with ``cob`` the
    coboundary's -(omega_k(x, y) + omega_k(y, x)).

    Works on raw ``(start, residues, prec)`` triples and builds one series at
    the end, equal bit for bit to ``_sum`` of ``lead`` and the products
    ``ring_mul(u_k, w_k)``, with w_k the omega or the symmetrized pair and
    the products negated for ``cob``.  As in ``ring_mul``, the product u w is
    known below min(prec_u + start_w, prec_w + start_u), where start_w is
    the canonical start of w: its first residue nonzero mod q, or prec_w
    when there is none.  A w that is an exact zero mod q, or an exact zero
    u, makes the product the exact zero, which bounds nothing."""
    ring = x.ring
    q = ring.q
    prec = EXACT if lead is None else lead.prec
    parts = []  # (start, residues of u, residues of w from its canonical start)
    for k, u in terms:
        us, u_start, u_prec = u.coeffs, u.start, u.prec
        if u.ring is not ring and u.ring != ring:
            raise RingMismatch(f"{u.ring} vs {ring}")
        if u_prec is EXACT and not us:
            continue
        if cob:
            w_lo, ws, w_prec = _add_raw(_omega(k, x, y), _omega(k, y, x))
        else:
            w_lo, ws, w_prec = _omega(k, x, y)
        # a symmetrized pair may hold residues past prec_w; a start found
        # there exceeds prec_w, where prec_u + start_w >= prec_w + start_u
        # cannot bind, and the products it gives land past the prec
        i = 0
        while i < len(ws) and not ws[i] % q:
            i += 1
        if i == len(ws):
            if w_prec is EXACT:
                continue
            w_start, ws = w_prec, ()
        else:
            w_start, ws = w_lo + i, ws[i:]
        if u_prec is not EXACT and (prec is EXACT or u_prec + w_start < prec):
            prec = u_prec + w_start
        if w_prec is not EXACT and (prec is EXACT or w_prec + u_start < prec):
            prec = w_prec + u_start
        if ws and us:
            parts.append((u_start + w_start, us, ws))
    if lead is not None and lead.coeffs:
        # -(-lead + sum) for cob, so the one negation below restores it
        parts.append((lead.start, (-1 if cob else 1,), lead.coeffs))
    if prec is EXACT:
        if not parts:
            return ring._zero
        lo = min([d for d, _, _ in parts])
        hi = max([d + len(us) + len(ws) - 1 for d, us, ws in parts])
    else:
        lo = min([d for d, _, _ in parts] + [prec])
        hi = prec
    n = hi - lo
    cs = [0] * n
    for start, us, ws in parts:
        for i, a in enumerate(us, start - lo):
            if i >= n:
                break
            for j, b in enumerate(ws[: n - i], i):
                cs[j] += a * b
    if cob:
        cs = [-c for c in cs]
    return TruncSeries(ring, lo, cs, prec)


def _add_raw(v: tuple[int, list[int], int | None], w: tuple[int, list[int], int | None]) -> tuple[int, list[int], int | None]:
    """The sum of two raw omega triples, at the lesser precision (an exact
    one bounds nothing); residues past that precision are kept."""
    (v_lo, vs, v_prec), (w_lo, ws, w_prec) = v, w
    prec = w_prec if v_prec is EXACT or (w_prec is not EXACT and w_prec < v_prec) else v_prec
    if not ws:
        return v_lo, vs, prec
    if not vs:
        return w_lo, ws, prec
    lo = min(v_lo, w_lo)
    cs = [0] * (max(v_lo + len(vs), w_lo + len(ws)) - lo)
    for i, c in enumerate(vs, v_lo - lo):
        cs[i] = c
    for i, c in enumerate(ws, w_lo - lo):
        cs[i] += c
    return lo, cs, prec


def eval_param_omega(a: ParamSeq, x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """omega_a(x, y) = sum over the stored window of a_n * omega_n(x, y),
    computed by the one evaluation kernel (a single construction for the
    whole sum).

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
    return _bilinear(a.entries, x, y)


def coboundary_potential(terms: Sequence[tuple[int, TruncSeries]], x: TruncSeries) -> TruncSeries:
    """f(x) = sum_k u_k omega_k(x, x); continuous, equivariant, f(0) = 0."""
    return _bilinear(terms, x, x)


def eval_coboundary(terms: Sequence[tuple[int, TruncSeries]], x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """The coboundary f(x) + f(y) - f(x+y) of the quadratic potential,
    computed through its bilinear expansion -sum_k u_k (omega_k(x,y) + omega_k(y,x))
    by the one evaluation kernel in its coboundary form (a single
    construction for the whole sum)."""
    x._check_ring(y)
    return _bilinear(terms, x, y, cob=True)


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
    multiplication automorphisms and coboundary shifts.  The coboundary
    terms are added to the scaled base value by the one evaluation kernel,
    with that value as its leading part (a single construction for the
    sum)."""

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
        if not self.cob:
            return out
        # out + eval_coboundary(cob, x, y): out minus the symmetrized terms
        return _bilinear(self.cob, x, y, cob=True, lead=out)


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
            lhs = spec(x, y).shift(k)
            rhs = spec(x.shift(k), y.shift(k))
            if not lhs.agree(rhs):
                bad.append(Witness((x, y, one_term(x.ring, k)), lhs, rhs))
    return CheckReport(checked, tuple(bad))
