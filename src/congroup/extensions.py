"""The central extension A x_w A: group law, contractive automorphism,
commutators, centre probing, and equivalence maps between cocycle shifts.

Elements are pairs (a, g) multiplying as

    (a1, g1)(a2, g2) = (a1 + a2 + w(g1, g2), g1 + g2)

for a biadditive equivariant cocycle w; the kernel copy A x {0} is central
and the shift acts diagonally.  Only the trivial action of the quotient on
the kernel is exposed: that is the family the bit-sequence invariant
separates, and nontrivial actions are out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cocycles import (
    Cocycle,
    Eta,
    QuadCoboundary,
    Transformed,
    coboundary_potential,
)
from .errors import SpecMismatch, WindowTooSmall
from .series import TruncSeries, one_term, zero


@dataclass(frozen=True)
class ExtElement:
    """A pair (a, g) in A x_w A; elements only combine over equal specs."""

    a: TruncSeries
    g: TruncSeries
    spec: Cocycle

    def __post_init__(self):
        if self.a.ring != self.spec.ring or self.g.ring != self.spec.ring:
            raise SpecMismatch("components must live over the spec's ring")

    def _check(self, other: "ExtElement"):
        if self.spec != other.spec:
            raise SpecMismatch("elements of distinct specs never combine")

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        w = self.spec(self.g, other.g)
        return ExtElement(self.a + other.a + w, self.g + other.g, self.spec)

    def inverse(self) -> "ExtElement":
        gi = -self.g
        w = self.spec(self.g, gi)
        return ExtElement(-self.a - w, gi, self.spec)

    def alpha(self, k: int = 1) -> "ExtElement":
        """The contractive automorphism (shift on both components), iterated k times."""
        return ExtElement(self.a.shift(k), self.g.shift(k), self.spec)

    def agree(self, other: "ExtElement") -> bool:
        self._check(other)
        return self.a.agree(other.a) and self.g.agree(other.g)

    def __str__(self):
        return f"({self.a} ; {self.g})"


def ext_identity(spec: Cocycle) -> ExtElement:
    return ExtElement(zero(spec.ring), zero(spec.ring), spec)


def ext_iota(spec: Cocycle, a: TruncSeries) -> ExtElement:
    """The kernel embedding a -> (a, 0)."""
    return ExtElement(a, zero(spec.ring), spec)


def ext_sigma(spec: Cocycle, g: TruncSeries) -> ExtElement:
    """The canonical section g -> (0, g) of pr2."""
    return ExtElement(zero(spec.ring), g, spec)


def ext_mul(u: ExtElement, v: ExtElement) -> ExtElement:
    return u * v


def ext_inv(u: ExtElement) -> ExtElement:
    return u.inverse()


def ext_alpha(u: ExtElement, k: int = 1) -> ExtElement:
    return u.alpha(k)


def pr2(u: ExtElement) -> TruncSeries:
    return u.g


def commutator(u: ExtElement, v: ExtElement) -> ExtElement:
    """u v u^-1 v^-1; for this central family it equals
    (w(g_u, g_v) - w(g_v, g_u), 0)."""
    return u * v * u.inverse() * v.inverse()


# -- centre probing ------------------------------------------------------------


@dataclass(frozen=True)
class CenterVerdict:
    verdict: str  # "PASS" or "FAIL"
    probe: int | None = None
    witness: TruncSeries | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self):
        out = {"format": 1, "verdict": self.verdict}
        if self.witness is not None:
            out["probe"] = self.probe
            out["witness"] = str(self.witness)
        return out


def _eta_bits(spec: Cocycle):
    if isinstance(spec, Eta):
        return spec.s
    if isinstance(spec, Transformed) and isinstance(spec.base, Eta):
        return spec.base.s
    raise SpecMismatch("centre probing needs an eta spec or a transform of one")


def center_test(u: ExtElement, probe_degrees: Sequence[int] | None = None) -> CenterVerdict:
    """Probe whether u could be central: FAIL with a witness once some probe
    t^j has w(g, t^j) != w(t^j, g) at available precision, PASS otherwise.

    For a nonzero bit window and g != 0 the probe j = 2 n0 + val(g) is
    guaranteed to produce a witness, so it is always included."""
    spec = u.spec
    bits = _eta_bits(spec)
    if u.g.is_exact_zero():
        return CenterVerdict("PASS")
    n0 = bits.first_set
    v = u.g.valuation()
    if v is None:
        if u.g.is_exact:
            return CenterVerdict("PASS")
        raise WindowTooSmall("val(g) not determined at this precision, cannot probe")
    probes = list(probe_degrees) if probe_degrees is not None else []
    if n0 is not None and probe_degrees is None:
        probes = [2 * n0 + v, 2 * n0, 2 * n0 + v + 1]
    for j in probes:
        tj = one_term(spec.ring, j)
        delta = spec(u.g, tj) - spec(tj, u.g)
        if not delta.is_zero():
            return CenterVerdict("FAIL", probe=j, witness=delta)
    return CenterVerdict("PASS")


# -- equivalences ----------------------------------------------------------------


def add_coboundary(spec: Cocycle, terms: Sequence[tuple[int, TruncSeries]]) -> Cocycle:
    """The spec describing w + w_f for the quadratic potential given by terms."""
    terms = tuple(terms)
    if isinstance(spec, Transformed):
        return Transformed(spec.base, spec.a_unit, spec.b_unit, spec.cob + terms)
    if isinstance(spec, QuadCoboundary):
        return QuadCoboundary(spec.ring, spec.terms + terms)
    one = one_term(spec.ring, 0)
    return Transformed(spec, one, one, terms)


def equivalence_map(fterms: Sequence[tuple[int, TruncSeries]], u: ExtElement) -> ExtElement:
    """The extension equivalence A x_w A -> A x_{w + w_f} A,
    (a, g) -> (a - f(g), g): a bijective homomorphism commuting with the
    shift and fixing both the kernel copy and pr2."""
    target = add_coboundary(u.spec, fterms)
    return ExtElement(u.a - coboundary_potential(fterms, u.g), u.g, target)


# -- nilpotency probing ------------------------------------------------------------


@dataclass(frozen=True)
class NilpotencyReport:
    checked: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {"format": 1, "checked": self.checked, "failed": len(self.failures), "witnesses": list(self.failures)}


def nilpotency_probe(spec: Cocycle, samples: Iterable[tuple[ExtElement, ExtElement, ExtElement]]) -> NilpotencyReport:
    """Witness 2-step nilpotency: commutators land in A x {0} and are killed
    by a further commutator, on the sampled triples."""
    checked, bad = 0, []
    for u, v, w in samples:
        checked += 1
        c = commutator(u, v)
        if not c.g.is_zero():
            bad.append(f"[{u}, {v}] leaves the kernel: {c}")
            continue
        c2 = commutator(c, w)
        if not c2.agree(ext_identity(spec)):
            bad.append(f"[[{u}, {v}], {w}] = {c2} is not the identity")
    return NilpotencyReport(checked, tuple(bad))
