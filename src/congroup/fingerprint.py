"""Bit-sequence recovery from black-box cocycles in the transformed-eta family.

For spec = a * eta_s(b x, b y) + symmetric coboundary, probe the
antisymmetrization at the canonical pairs (t^0, t^2m):

    delta_m = spec(t^0, t^2m) - spec(t^2m, t^0).

The coboundary cancels, and equivariance moves the units out front:
delta_m = a t^v(b) (eta_s(u, u t^2m) - eta_s(u t^2m, u)) for the unit
u = t^-v(b) b with |u| = 1.  The normalized middle factor has absolute value
exactly p^-m when s_m = 1 and at most p^-(m+1) when s_m = 0 (the s_m term of
the sum sits alone at degree m; every other term lands strictly deeper, and
the reversed evaluation is smaller than |u t^2m| outright).  Hence

    v(delta_m) = c + m        if s_m = 1,
    v(delta_m) >= c + m + 1   if s_m = 0,

with the single unknown offset c = v(a) + v(b).  Reading the profile of
valuations therefore recovers c as min(v_m - m) over exact entries and the
bits as the positions attaining it; transformed specs fingerprint to the
same bits as their base, which is what makes the family pairwise distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .cocycles import BitSeq, Cocycle, Eta, Transformed
from .errors import SpecMismatch, WindowTooSmall
from .series import Modulus, TruncSeries, one_term

INFINITE = float("inf")


@dataclass(frozen=True)
class ProfileEntry:
    """Valuation data for one probe: v = -log_p |delta_m|, exact or bounded.

    ``exact`` entries know v_m = value; bound entries certify v_m >= value
    (value may be infinite when delta_m is exactly zero)."""

    m: int
    exact: bool
    value: int | float

    def certifies_at_least(self, v: int) -> bool:
        return self.value >= v

    def to_json(self):
        if self.exact:
            return {"m": self.m, "v": self.value}
        return {"m": self.m, "bound": self.value if self.value != INFINITE else "inf"}


@dataclass(frozen=True)
class DeltaProfile:
    ring: Modulus
    window: int
    entries: tuple[ProfileEntry, ...]

    def to_json(self):
        return {"format": 1, "p": self.ring.p, "window": self.window, "profile": [e.to_json() for e in self.entries]}


def _supported_family(spec: Cocycle):
    if isinstance(spec, Eta):
        return
    if isinstance(spec, Transformed) and isinstance(spec.base, Eta):
        return
    raise SpecMismatch("fingerprinting covers eta specs and transforms of them")


def _probe_pair(ring: Modulus, m: int, rng: random.Random | None):
    if rng is None:
        return one_term(ring, 0), one_term(ring, 2 * m)
    units = [c for c in range(1, ring.q) if c % ring.p]

    def unit(val):
        cs = [rng.choice(units)] + [rng.randrange(ring.q) for _ in range(rng.randrange(0, 3))]
        return TruncSeries(ring, val, cs)

    return unit(0), unit(2 * m)


def delta_profile(
    spec: Cocycle,
    window: int,
    precision_budget: int | None = None,
    probes: random.Random | None = None,
    trials: int = 1,
) -> DeltaProfile:
    """Valuation profile of delta_m over m = 1..window.

    ``probes=None`` uses the canonical pair (t^0, t^2m); passing a seeded
    Random draws |x| = 1, |y| = p^-2m pairs as a cross-check.  A set bit
    pins v(delta_m) = c + m for every such pair, while a zero bit only
    bounds it below, so trials combine by the minimum exhibited valuation
    (recovery is probe-independent either way).  ``precision_budget``
    demands every entry be certified at least that far, else WindowTooSmall
    names the failing probe."""
    _supported_family(spec)
    ring = spec.ring
    entries = []
    for m in range(1, window + 1):
        drawn = []
        for _ in range(max(1, trials if probes is not None else 1)):
            x, y = _probe_pair(ring, m, probes)
            delta = spec(x, y) - spec(y, x)
            av = delta.abs_val()
            if av.exact and av.valuation is not None:
                drawn.append(ProfileEntry(m, True, av.valuation))
            else:
                drawn.append(ProfileEntry(m, False, INFINITE if av.exact else delta.prec))
        exact = [e for e in drawn if e.exact]
        best = min(exact, key=lambda e: e.value) if exact else max(drawn, key=lambda e: e.value)
        if precision_budget is not None and not best.exact and best.value < precision_budget:
            raise WindowTooSmall(
                f"delta_{m} certified only below t^{best.value}, budget {precision_budget}",
                needed=precision_budget,
            )
        entries.append(best)
    return DeltaProfile(ring, window, tuple(entries))


@dataclass(frozen=True)
class RecoveredBits:
    status: str  # OK | ABELIAN_CANDIDATE | INSUFFICIENT_PRECISION
    offset: int | None = None
    bits: BitSeq | None = None
    detail: str = ""

    def to_json(self):
        return {
            "format": 1,
            "status": self.status,
            "c": self.offset,
            "bits": str(self.bits) if self.bits is not None else None,
            "detail": self.detail,
        }


def recover_bits(profile: DeltaProfile) -> RecoveredBits:
    """Read (offset, bits) off a profile.

    All-bound profiles are abelian candidates (s = 0 on the window).  The
    offset is c = min(v_m - m) over exact entries; s_m = 1 exactly at the
    attaining positions, and s_m = 0 needs the certified complement
    v_m - m >= c + 1, otherwise the entry is reported as underresolved."""
    exact = [e for e in profile.entries if e.exact]
    if not exact:
        return RecoveredBits("ABELIAN_CANDIDATE", detail="every probe is an upper bound")
    c = min(e.value - e.m for e in exact)
    bits = []
    for e in profile.entries:
        if e.exact and e.value - e.m == c:
            bits.append(1)
        elif e.certifies_at_least(c + e.m + 1):
            bits.append(0)
        else:
            return RecoveredBits(
                "INSUFFICIENT_PRECISION",
                offset=c,
                detail=f"bit {e.m} needs certification through v = {c + e.m + 1}",
            )
    return RecoveredBits("OK", offset=c, bits=BitSeq(tuple(bits)))


def fingerprint(
    spec: Cocycle,
    window: int,
    precision_budget: int | None = None,
    probes: random.Random | None = None,
    trials: int = 1,
) -> tuple[RecoveredBits, DeltaProfile]:
    profile = delta_profile(spec, window, precision_budget, probes, trials)
    return recover_bits(profile), profile


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str  # DISTINCT | SAME_WINDOW | INCONCLUSIVE
    left: RecoveredBits
    right: RecoveredBits

    def to_json(self):
        return {
            "format": 1,
            "verdict": self.verdict,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


@lru_cache(maxsize=4096)
def _fingerprint_cached(spec: Cocycle, window: int) -> RecoveredBits:
    return fingerprint(spec, window)[0]


def equivalent_on_window(spec1: Cocycle, spec2: Cocycle, window: int) -> EquivalenceVerdict:
    """Compare recovered bit windows.  DISTINCT is sound (the window is an
    isomorphism invariant of the extension); SAME_WINDOW is inconclusive
    beyond the window.  Recoveries are cached, so pairwise sweeps over a
    fixed family cost one fingerprint per member."""
    left = _fingerprint_cached(spec1, window)
    right = _fingerprint_cached(spec2, window)
    if "INSUFFICIENT_PRECISION" in (left.status, right.status):
        return EquivalenceVerdict("INCONCLUSIVE", left, right)

    def window_bits(r: RecoveredBits):
        if r.status == "ABELIAN_CANDIDATE":
            return (0,) * window
        return r.bits.bits

    verdict = "SAME_WINDOW" if window_bits(left) == window_bits(right) else "DISTINCT"
    return EquivalenceVerdict(verdict, left, right)
