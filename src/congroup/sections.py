"""Equivariant continuous sections for surjections of contraction groups,
built digit by digit from coset representatives.

Given q: G -> H with beta q = q alpha, a compact open U <= H with
beta(U) <= U, coset representatives h_1..h_l of beta(U) in U (h_1 = e) and
lifts g_j with q(g_j) = h_j, every h in beta^m(U) has unique digits j_k with

    h beta^{k+1}(U) = beta^m(h_{j_m}) ... beta^k(h_{j_k}) beta^{k+1}(U),

and the partial products s_n(h) = alpha^m(g_{j_m}) ... alpha^n(g_{j_n})
converge to a section sigma with q sigma = id and alpha sigma = sigma beta.
Both contexts instantiated here have H a coefficient-shift group with
U = F[[t]] and beta(U) = tU, so a coset of beta^{k+1}(U) inside beta^k(U) is
fixed by the coefficient at t^k.  Digit search is therefore one table lookup
and one division per level: the representative whose constant term equals
that coefficient (see :func:`digit_expand`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cocycles import Cocycle
from .errors import BadParams, InsufficientPrecision, MalformedInput
from .extensions import ExtElement, ext_identity
from .series import Modulus, TruncSeries, make_series, one_term, zero


class SectionContext:
    """The data driving the digit algorithm for one surjection q: G -> H.

    ``reps`` are exact series in H representing U/beta(U) with reps[0] the
    identity; ``lifts`` are G-elements with q(lift_j) = rep_j exactly.  The
    G operations come in as callbacks so both plain series groups and
    central extensions fit."""

    def __init__(
        self,
        name: str,
        ring_h: Modulus,
        reps: Sequence[TruncSeries],
        lifts: Sequence,
        q: Callable,
        g_identity,
        g_mul: Callable,
        g_alpha: Callable,
        validate: bool = True,
    ):
        self.name = name
        self.ring_h = ring_h
        self.reps = tuple(reps)
        self.lifts = tuple(lifts)
        self.q = q
        self.g_identity = g_identity
        self.g_mul = g_mul
        self.g_alpha = g_alpha
        if any(not rep.is_exact for rep in self.reps):
            raise MalformedInput("representatives must be exact")
        # constant term -> indices of the reps without negative powers; no
        # other rep can lie in U, see digit_expand
        self.by_constant: dict[int, list[int]] = {}
        for j, rep in enumerate(self.reps):
            if rep.start >= 0:
                self.by_constant.setdefault(rep.coeff(0), []).append(j)
        if validate:
            self._validate()

    @property
    def index(self) -> int:
        """l = [U : beta(U)]."""
        return len(self.reps)

    def _validate(self):
        if not self.reps or not self.reps[0].is_exact_zero():
            raise MalformedInput("first representative must be the identity")
        if len(self.reps) != len(self.lifts):
            raise MalformedInput("one lift per representative")
        # distinct cosets of beta(U) = tU in U are distinct constant terms,
        # and completeness means all of Z/p^k appears
        consts = sorted(r.coeff(0) for r in self.reps)
        if consts != list(range(self.ring_h.q)):
            raise MalformedInput("representatives must enumerate U/beta(U) exactly once")
        for j, (rep, lift) in enumerate(zip(self.reps, self.lifts)):
            if self.q(lift) != rep:
                raise MalformedInput(f"lift {j} does not project onto its representative")

    def __repr__(self):
        return f"SectionContext({self.name}, l={self.index})"


def make_mod_reduction_ctx(p: int, m: int, k: int) -> SectionContext:
    """q: Z/p^m((t)) -> Z/p^k((t)) by coefficientwise reduction; l = p^k."""
    if not 1 <= k <= m:
        raise BadParams(f"need 1 <= k <= m, got k={k}, m={m}")
    ring_g, ring_h = Modulus(p, m), Modulus(p, k)

    def q(x: TruncSeries) -> TruncSeries:
        return make_series(ring_h, x.start, x.coeffs, x.prec)

    reps = [zero(ring_h)] + [one_term(ring_h, 0, c) for c in range(1, ring_h.q)]
    lifts = [zero(ring_g)] + [one_term(ring_g, 0, c) for c in range(1, ring_h.q)]
    return SectionContext(
        f"modred:{p},{m},{k}",
        ring_h,
        reps,
        lifts,
        q,
        zero(ring_g),
        lambda u, v: u + v,
        lambda u, n: u.shift(n),
    )


def make_ext_projection_ctx(spec: Cocycle) -> SectionContext:
    """q(a, g) = g: A x_w A -> A for a central cocycle spec; l = |F|."""
    ring = spec.ring
    reps = [zero(ring)] + [one_term(ring, 0, c) for c in range(1, ring.q)]
    lifts = [ext_identity(spec)] + [
        ExtElement(zero(ring), one_term(ring, 0, c), spec) for c in range(1, ring.q)
    ]
    return SectionContext(
        "extproj",
        ring,
        reps,
        lifts,
        lambda u: u.g,
        ext_identity(spec),
        lambda u, v: u * v,
        lambda u, n: u.alpha(n),
    )


@dataclass(frozen=True)
class DigitExpansion:
    """Digits (j_start, ..., j_upto), 0-based into the context's reps."""

    start: int
    upto: int
    digits: tuple[int, ...]


def digit_expand(ctx: SectionContext, h: TruncSeries, upto: int) -> DigitExpansion:
    """The unique digit sequence of h through level ``upto``.

    The level m is val(h); each step finds the single representative with
    beta^k(h_j)^{-1} z_k in beta^{k+1}(U) and divides it out.  Requires the
    coefficients of h through ``upto`` to be known.

    The search is one lookup per level.  Before level k the remainder z has
    valuation >= k, and z - t^k rep has valuation > k exactly when rep has
    no negative powers and its constant term equals z's coefficient at t^k,
    so the matches are the context's ``by_constant`` entry for that
    coefficient.  Anything but one match means a broken table."""
    if h.ring != ctx.ring_h:
        raise MalformedInput(f"h lives over {h.ring}, context expects {ctx.ring_h}")
    if h.is_exact_zero():
        return DigitExpansion(0, upto, (0,) * max(0, upto + 1))
    m = h.valuation()
    if m is None:
        # zero at the available precision: identity digits as far as the
        # window certifies membership in beta^(upto+1)(U)
        if h.prec > upto:
            return DigitExpansion(0, upto, (0,) * max(0, upto + 1))
        raise InsufficientPrecision("level of h is not determined at this precision")
    if not h.is_exact and h.prec <= upto:
        raise InsufficientPrecision(f"digits through {upto} need prec > {upto}, have {h.prec}")
    digits = []
    z = h
    for k in range(m, upto + 1):
        hits = ctx.by_constant.get(z.coeff(k), ())
        if len(hits) != 1:
            raise MalformedInput(f"coset table broken at level {k}: {len(hits)} matches")
        j = hits[0]
        z = z - ctx.reps[j].shift(k)
        digits.append(j)
    return DigitExpansion(m, upto, tuple(digits))


@dataclass(frozen=True)
class SectionValue:
    """A partial section value: the true sigma(h) differs from ``element``
    by something in alpha^(upto+1)(V), so both agree through t^upto."""

    element: object
    start: int
    upto: int

    @property
    def agrees_through(self) -> int:
        return self.upto


def build_section(ctx: SectionContext, h: TruncSeries, upto: int) -> SectionValue:
    """The partial product s_upto(h) = alpha^m(g_{j_m}) ... alpha^upto(g_{j_upto}),
    multiplied left to right (G need not be abelian)."""
    exp = digit_expand(ctx, h, upto)
    acc = ctx.g_identity
    for k, j in zip(range(exp.start, exp.upto + 1), exp.digits):
        acc = ctx.g_mul(acc, ctx.g_alpha(ctx.lifts[j], k))
    return SectionValue(acc, exp.start, upto)


@dataclass(frozen=True)
class SectionReport:
    checked: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "format": 1,
            "checked": self.checked,
            "failed": len(self.failures),
            "witnesses": list(self.failures),
        }


def verify_section(ctx: SectionContext, samples: Iterable[TruncSeries], upto: int) -> SectionReport:
    """Check sigma(e) = e, q(sigma(h)) = h through t^upto, and the exact
    finite-stage equivariance sigma(beta h) = alpha(sigma h)."""
    checked, bad = 0, []
    e = build_section(ctx, zero(ctx.ring_h), upto).element
    if e != ctx.g_identity:
        bad.append(f"sigma(e) = {e} differs from the identity")
    for h in samples:
        checked += 1
        try:
            sig = build_section(ctx, h, upto)
        except InsufficientPrecision as err:
            bad.append(f"h = {h}: {err}")
            continue
        back = ctx.q(sig.element)
        if not back.agree_through(h, upto):
            bad.append(f"q(sigma(h)) != h through t^{upto} for h = {h}")
            continue
        shifted = build_section(ctx, h.shift(1), upto + 1)
        if shifted.element != ctx.g_alpha(sig.element, 1):
            bad.append(f"sigma(beta h) != alpha(sigma h) for h = {h}")
    return SectionReport(checked, tuple(bad))
