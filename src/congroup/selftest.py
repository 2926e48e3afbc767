"""The acceptance checks, one callable per criterion.

Each criterion runs on a seeded generator, so a fixed --seed reproduces the
run byte for byte.  Criterion 9 needs numpy for the numeric root oracle
(installed with the ``test`` extra); everything else is stdlib.  The pytest
acceptance module and the CLI ``selftest`` subcommand both call into here,
and the property tests draw from the same seeded generators, passing their
own window sizes where they differ from the defaults below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .classify import (
    FiniteAbelianType,
    NuTable,
    RationalPoly,
    composition_data,
    element_order,
    omega_p_contractive,
    primary_decompose,
    schur_cohn,
    theta_x,
)
from .cocycles import (
    BasisOmega,
    BitSeq,
    Eta,
    ParamOmega,
    ParamSeq,
    QuadCoboundary,
    Transformed,
    b_map,
    check_cocycle_identity,
    check_equivariance,
    eval_basis_omega,
    eval_param_omega,
)
from .extensions import ExtElement, center_test, commutator, ext_identity, ext_iota
from .fingerprint import fingerprint, equivalent_on_window
from .sections import make_ext_projection_ctx, make_mod_reduction_ctx, verify_section
from .series import Modulus, make_series, one_term


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} [{self.name}]: {self.detail}"


# -- seeded generators -----------------------------------------------------------


def rand_series(rng, ring, lo=-2, span=5, pad=3, exact=False):
    start = rng.randrange(lo, lo + 3)
    cs = [rng.randrange(ring.q) for _ in range(rng.randrange(0, span))]
    if exact:
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + len(cs) + rng.randrange(0, pad))


def rand_exact_nonzero(rng, ring, lo=-2, span=4):
    while True:
        x = rand_series(rng, ring, lo=lo, span=span, exact=True)
        if not x.is_exact_zero():
            return x


def rand_unit(rng, ring, val_range=(-3, 4), span=3):
    v = rng.randrange(*val_range)
    lead = rng.choice([c for c in range(1, ring.q) if c % ring.p])
    cs = [lead] + [rng.randrange(ring.q) for _ in range(rng.randrange(0, span))]
    return make_series(ring, v, cs)


def rand_bits(rng, window):
    return BitSeq(tuple(rng.randrange(2) for _ in range(window)))


def rand_param_seq(rng, ring, half_window=3):
    entries = {}
    for n in range(-half_window, half_window + 1):
        if rng.random() < 0.6:
            v = rng.randrange(0, 3)
            cs = [rng.randrange(ring.q) for _ in range(rng.randrange(1, 3))]
            entries[n] = make_series(ring, v, cs)
    return ParamSeq.from_dict(ring, (-half_window, half_window), entries)


def rand_cob_terms(rng, ring, max_terms=3):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        k = rng.randrange(-2, 3)
        u = make_series(ring, rng.randrange(0, 2), [rng.randrange(1, ring.q)])
        terms.append((k, u))
    return tuple(terms)


def variant_specs(rng, ring):
    """One seeded instance of every closed cocycle description."""
    return [
        BasisOmega(ring, rng.randrange(-3, 4)),
        ParamOmega(rand_param_seq(rng, ring)),
        Eta(ring, rand_bits(rng, 6)),
        QuadCoboundary(ring, rand_cob_terms(rng, ring)),
        Transformed(
            Eta(ring, rand_bits(rng, 6)),
            rand_unit(rng, ring, val_range=(-2, 3)),
            rand_unit(rng, ring, val_range=(-2, 3)),
            rand_cob_terms(rng, ring),
        ),
    ]


# -- criteria ---------------------------------------------------------------------


def criterion_1(seed=0) -> CriterionResult:
    """Cocycle identity and shift equivariance, exactly, for every variant."""
    rng = random.Random(f"{seed}/criterion-1")
    checked = failed = 0
    for p in (2, 3, 5):
        ring = Modulus(p)
        for spec in variant_specs(rng, ring):
            triples = [
                (rand_series(rng, ring), rand_series(rng, ring), rand_series(rng, ring))
                for _ in range(1000)
            ]
            rep = check_cocycle_identity(spec, triples)
            checked += rep.checked
            failed += rep.failed
            pairs = [(x, y) for x, y, _ in triples[:500]]
            rep2 = check_equivariance(spec, pairs, (-2, 1, 3))
            checked += rep2.checked
            failed += rep2.failed
    return CriterionResult(
        1, "cocycle-laws", failed == 0, f"{checked} identity/equivariance checks, {failed} failures"
    )


def criterion_2(seed=0) -> CriterionResult:
    """Ultrametric size bounds |w_n(x,y)| <= |x| and |eta_s(x,y)| <= p^-n0 |x|."""
    rng = random.Random(f"{seed}/criterion-2")
    bad = 0
    for _ in range(1000):
        ring = Modulus(rng.choice((2, 3, 5)))
        n = rng.randrange(-4, 5)
        x = rand_series(rng, ring, exact=rng.random() < 0.5)
        y = rand_series(rng, ring, exact=rng.random() < 0.5)
        v = eval_basis_omega(n, x, y).abs_val()
        if v.exact and v.value > x.abs_val().value:
            bad += 1
    for _ in range(1000):
        ring = Modulus(rng.choice((2, 3, 5)))
        s = rand_bits(rng, 6)
        n0 = s.first_set
        x = rand_series(rng, ring, exact=rng.random() < 0.5)
        y = rand_series(rng, ring, exact=rng.random() < 0.5)
        v = Eta(ring, s)(x, y).abs_val()
        bound = x.abs_val().value / ring.p ** (n0 if n0 else 1)
        if s.first_set is None:
            bound = Fraction(0)
        if v.exact and v.value > bound:
            bad += 1
    return CriterionResult(2, "ultrametric-bounds", bad == 0, f"2000 pairs, {bad} violations")


def criterion_3(seed=0) -> CriterionResult:
    """Finite-window bijectivity of the probe parametrization."""
    rng = random.Random(f"{seed}/criterion-3")
    bad = []
    for i in range(100):
        ring = Modulus(rng.choice((2, 3, 5)))
        a = rand_param_seq(rng, ring, half_window=8)
        back = b_map(ParamOmega(a), (-8, 8))
        for n in range(-8, 9):
            if back.entry(n) != a.entry(n):
                bad.append(f"draw {i}: entry {n} not recovered bit-for-bit")
    ring = Modulus(2)
    for spec in variant_specs(rng, ring):
        window = (-6, 6)
        if isinstance(spec, ParamOmega):
            window = (-spec.seq.hi, spec.seq.hi)
        seq = b_map(spec, window)
        for m in range(window[0], window[1] + 1):
            lhs = eval_param_omega(seq, one_term(ring, 0), one_term(ring, m))
            rhs = spec(one_term(ring, 0), one_term(ring, m))
            if not lhs.agree(rhs):
                bad.append(f"{type(spec).__name__}: probe {m} differs")
    return CriterionResult(3, "parametrization-bijection", not bad, bad[0] if bad else "100 windows + all variants reproduce")


def criterion_4(seed=0) -> CriterionResult:
    """Extension group axioms, kernel-valued commutators, class <= 2."""
    rng = random.Random(f"{seed}/criterion-4")
    ring = Modulus(2)
    bad = []

    def rand_elt(spec):
        return ExtElement(rand_series(rng, ring), rand_series(rng, ring), spec)

    specs = [Eta(ring, rand_bits(rng, 6)) for _ in range(10)]
    for spec in specs:
        e = ext_identity(spec)
        for _ in range(500):
            u, v, w = rand_elt(spec), rand_elt(spec), rand_elt(spec)
            if not ((u * v) * w).agree(u * (v * w)):
                bad.append(f"associativity fails for {spec.s}")
            if e * u != u or u * e != u:
                bad.append(f"identity law fails for {spec.s}")
            if not (u * u.inverse()).agree(e) or not (u.inverse() * u).agree(e):
                bad.append(f"inverse law fails for {spec.s}")
            if not commutator(u, v).g.is_zero():
                bad.append(f"commutator leaves the kernel for {spec.s}")
    spec = specs[0]
    for _ in range(200):
        u, v, w = rand_elt(spec), rand_elt(spec), rand_elt(spec)
        if not commutator(commutator(u, v), w).agree(ext_identity(spec)):
            bad.append("a triple commutator is nontrivial")
    return CriterionResult(
        4, "extension-group-axioms", not bad, bad[0] if bad else "10 specs x 500 triples + 200 C3 checks"
    )


def criterion_5(seed=0) -> CriterionResult:
    """Centre dichotomy with the guaranteed witness probe."""
    rng = random.Random(f"{seed}/criterion-5")
    ring = Modulus(2)
    bad = []
    drawn = 0
    while drawn < 20:
        s = rand_bits(rng, 6)
        n0 = s.first_set
        if n0 is None:
            continue
        drawn += 1
        spec = Eta(ring, s)
        for _ in range(5):
            g = rand_exact_nonzero(rng, ring)
            verdict = center_test(ExtElement(rand_series(rng, ring), g, spec))
            if verdict.verdict != "FAIL" or verdict.probe != 2 * n0 + g.valuation():
                bad.append(f"s={s}: non-central element escaped (probe {verdict.probe})")
        for _ in range(2):
            if not center_test(ext_iota(spec, rand_series(rng, ring))).passed:
                bad.append(f"s={s}: kernel element flagged")
    spec0 = Eta(ring, BitSeq((0,) * 6))
    for _ in range(10):
        u = ExtElement(rand_series(rng, ring), rand_series(rng, ring, exact=True), spec0)
        if not center_test(u).passed:
            bad.append("abelian case flagged a witness")
    return CriterionResult(5, "centre-dichotomy", not bad, bad[0] if bad else "20 specs, witnesses at 2 n0 + val(g)")


def criterion_6(seed=0) -> CriterionResult:
    """Bit recovery through unit transforms and coboundaries; pairwise separation."""
    rng = random.Random(f"{seed}/criterion-6")
    ring = Modulus(2)
    draws = []
    bad = []
    for i in range(200):
        s = rand_bits(rng, 16)
        spec = Transformed(
            Eta(ring, s),
            rand_unit(rng, ring),
            rand_unit(rng, ring),
            rand_cob_terms(rng, ring, max_terms=3),
        )
        draws.append((s, spec))
        got, _ = fingerprint(spec, 16)
        if s.first_set is None:
            if got.status != "ABELIAN_CANDIDATE":
                bad.append(f"draw {i}: zero window not flagged abelian")
        elif got.status != "OK" or got.bits != s:
            bad.append(f"draw {i}: recovered {got.bits} != {s}")
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            verdict = equivalent_on_window(draws[i][1], draws[j][1], 16).verdict
            want = "SAME_WINDOW" if draws[i][0] == draws[j][0] else "DISTINCT"
            if verdict != want:
                bad.append(f"pair ({i}, {j}): declared {verdict}, wanted {want}")
    return CriterionResult(
        6, "bit-recovery", not bad, bad[0] if bad else "200 transformed draws recovered; all pairs separated"
    )


def criterion_7(seed=0) -> CriterionResult:
    """Section algorithm on both named context families at depth 24."""
    rng = random.Random(f"{seed}/criterion-7")
    ring2 = Modulus(2)
    contexts = [
        make_mod_reduction_ctx(2, 2, 1),
        make_mod_reduction_ctx(3, 2, 1),
        make_ext_projection_ctx(Eta(ring2, BitSeq((1,)))),
        make_ext_projection_ctx(Eta(ring2, BitSeq((1, 0, 1)))),
    ]
    bad = []
    for ctx in contexts:
        samples = []
        for _ in range(100):
            start = rng.randrange(-4, 4)
            cs = [rng.randrange(ctx.ring_h.q) for _ in range(rng.randrange(0, 20))]
            if rng.random() < 0.3:
                samples.append(make_series(ctx.ring_h, start, cs))
            else:
                samples.append(make_series(ctx.ring_h, start, cs, max(start + len(cs), 26)))
        report = verify_section(ctx, samples, 24)
        if not report.ok:
            bad.append(f"{ctx.name}: {report.failures[0]}")
    return CriterionResult(7, "equivariant-sections", not bad, bad[0] if bad else "4 contexts x 100 samples, depth 24")


def criterion_8(seed=0) -> CriterionResult:
    """Classification: decomposition invariants and the delta = p^length law."""
    rng = random.Random(f"{seed}/criterion-8")
    bad = []
    if primary_decompose(FiniteAbelianType.of(4)) == primary_decompose(FiniteAbelianType.of(2, 2)):
        bad.append("Z/4 conflated with the Klein group")
    if primary_decompose(FiniteAbelianType.of(6)) != primary_decompose(FiniteAbelianType.of(2, 3)):
        bad.append("Z/6 not identified with Z/2 x Z/3")
    for p in (2, 3, 5):
        for m in range(1, 5):
            got = composition_data(p, m)
            if got.length != m or got.delta != p**m:
                bad.append(f"composition data broken at ({p}, {m})")
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        table = NuTable.from_dict(
            {(p, n): rng.randrange(0, 3) for n in range(1, rng.randrange(2, 5))}
        )
        if table.delta() != p ** table.length():
            bad.append(f"delta != p^length for {table}")
    return CriterionResult(8, "classification", not bad, bad[0] if bad else "invariants + 100 random tables")


def criterion_9(seed=0) -> CriterionResult:
    """Both contractivity tests agree with their independent oracles."""
    import numpy as np

    rng = random.Random(f"{seed}/criterion-9")
    bad = []

    def root_moduli(f):
        return np.abs(np.roots([1.0] + [float(c) for c in reversed(f.coeffs)]))

    def rand_rational_poly():
        if rng.random() < 0.5:
            d = rng.randrange(1, 5)
            return RationalPoly(
                tuple(Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)) for _ in range(d))
            )
        d = rng.randrange(1, 5)
        coeffs = [Fraction(1)]
        for _ in range(d):
            r = Fraction(rng.randrange(-6, 7), rng.randrange(4, 9) if rng.random() < 0.7 else rng.randrange(1, 4))
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return RationalPoly(tuple(coeffs[:-1]))

    checked = 0
    while checked < 500:
        f = rand_rational_poly()
        moduli = root_moduli(f)
        if any(abs(v - 1.0) <= 1e-9 for v in moduli):
            continue
        checked += 1
        if schur_cohn(f) != bool(all(moduli < 1.0)):
            bad.append(f"schur-cohn disagrees with the root oracle on {f}")

    def companion_nilpotent(f, p):
        d = f.degree
        M = [[0] * d for _ in range(d)]
        for i in range(1, d):
            M[i][i - 1] = 1
        for i in range(d):
            M[i][d - 1] = (-f.coeffs[i].numerator) % p
        P = M
        for _ in range(d - 1):
            P = [
                [sum(P[i][k] * M[k][j] for k in range(d)) % p for j in range(d)]
                for i in range(d)
            ]
        return all(v == 0 for row in P for v in row)

    for _ in range(500):
        d = rng.randrange(1, 6)
        f = RationalPoly(tuple(Fraction(rng.randrange(-12, 13)) for _ in range(d)))
        p = rng.choice((2, 3, 5))
        if omega_p_contractive(f, p) != companion_nilpotent(f, p):
            bad.append(f"p-adic test disagrees with nilpotency oracle on {f} at {p}")
    return CriterionResult(9, "contractivity-oracles", not bad, bad[0] if bad else "500 + 500 agreements")


def criterion_10(seed=0) -> CriterionResult:
    """The generated-subgroup morphism and the torsion-order identity."""
    rng = random.Random(f"{seed}/criterion-10")
    bad = []
    for ring in (Modulus(2, 2), Modulus(3, 2)):
        p = ring.p
        for _ in range(20):
            x = rand_exact_nonzero(rng, ring)
            order = element_order(x)
            k = 0
            while p**k < order:
                k += 1
            small = Modulus(p, k)
            if not x.int_mul(p**k).is_exact_zero() or (
                k > 0 and x.int_mul(p ** (k - 1)).is_exact_zero()
            ):
                bad.append(f"order inconsistent for {x}")
                continue
            if theta_x(x, one_term(small, 0)) != x:
                bad.append(f"theta_x does not send t^0 to {x}")
            for _ in range(10):
                z = rand_series(rng, small, exact=rng.random() < 0.5)
                z2 = rand_series(rng, small, exact=rng.random() < 0.5)
                if not theta_x(x, z + z2).agree(theta_x(x, z) + theta_x(x, z2)):
                    bad.append(f"additivity fails for x={x}")
                if not theta_x(x, z.shift(1)).agree(theta_x(x, z).shift(1)):
                    bad.append(f"equivariance fails for x={x}")
    return CriterionResult(10, "generated-subgroup-morphism", not bad, bad[0] if bad else "40 generators x 10 samples")


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [c(seed) for c in CRITERIA]
