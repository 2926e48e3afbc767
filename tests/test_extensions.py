"""Group axioms of A x_w A at tracked precision, the contractive
automorphism, commutators, centre probes, and equivalence maps."""

import random

import pytest

from conftest import rand_cob_terms, rand_series, spec_variants

from congroup.cocycles import (
    BitSeq,
    Eta,
    Transformed,
    antisymmetrize,
)
from congroup.errors import SpecMismatch, WindowTooSmall
from congroup.extensions import (
    ExtElement,
    add_coboundary,
    center_test,
    commutator,
    equivalence_map,
    ext_alpha,
    ext_identity,
    ext_inv,
    ext_iota,
    ext_mul,
    ext_sigma,
    nilpotency_probe,
    pr2,
)
from congroup.series import Modulus, one_term, parse, zero

F2 = Modulus(2)
F3 = Modulus(3)

ETA1 = Eta(F2, BitSeq((1,)))
ETA101 = Eta(F2, BitSeq((1, 0, 1)))


def rand_element(rng, spec, exact=False):
    return ExtElement(
        rand_series(rng, spec.ring, lo=-2, span=4, exact=exact),
        rand_series(rng, spec.ring, lo=-2, span=4, exact=exact),
        spec,
    )


class TestGroupLaw:
    def test_kernel_copy(self):
        rng = random.Random(50)
        for _ in range(50):
            a = rand_series(rng, F2)
            b = rand_series(rng, F2)
            u = ext_iota(ETA1, a) * ext_iota(ETA1, b)
            assert u == ext_iota(ETA1, a + b)

    def test_eta_one_product(self):
        u = ext_sigma(ETA1, one_term(F2, 0))
        v = ext_sigma(ETA1, one_term(F2, 2))
        w = u * v
        assert w.g == parse(F2, "1*t^0 + 1*t^2")
        assert w.a.agree(one_term(F2, 1)) and w.a.valuation() == 1

    def test_identity(self):
        rng = random.Random(51)
        for spec in (ETA1, ETA101):
            e = ext_identity(spec)
            for _ in range(30):
                u = rand_element(rng, spec)
                assert e * u == u
                assert u * e == u

    def test_associativity_at_precision(self):
        rng = random.Random(52)
        for ring in (F2, F3):
            for spec in spec_variants(rng, ring):
                for _ in range(25):
                    u, v, w = (rand_element(rng, spec) for _ in range(3))
                    assert ((u * v) * w).agree(u * (v * w))

    def test_inverse(self):
        rng = random.Random(53)
        for spec in (ETA1, ETA101):
            e = ext_identity(spec)
            for _ in range(40):
                u = rand_element(rng, spec)
                assert (u * ext_inv(u)).agree(e)
                assert (ext_inv(u) * u).agree(e)

    def test_inverse_of_kernel_element(self):
        a = parse(F2, "1*t^-1 + 1*t^3")
        assert ext_inv(ext_iota(ETA101, a)) == ext_iota(ETA101, -a)

    def test_inverse_of_identity(self):
        assert ext_inv(ext_identity(ETA1)) == ext_identity(ETA1)

    def test_eta_one_involution(self):
        u = ext_sigma(ETA1, one_term(F2, 0))
        assert ext_inv(u).a.is_zero() and ext_inv(u).g == u.g
        assert (u * u).a.is_zero()

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            ext_mul(ext_identity(ETA1), ext_identity(ETA101))


class TestAlpha:
    def test_zero_power_is_identity_map(self):
        rng = random.Random(54)
        u = rand_element(rng, ETA101)
        assert ext_alpha(u, 0) == u

    def test_homomorphism(self):
        rng = random.Random(55)
        for spec in spec_variants(rng, F2):
            for _ in range(25):
                u, v = rand_element(rng, spec), rand_element(rng, spec)
                k = rng.randrange(-3, 4)
                assert ext_alpha(u * v, k) == ext_alpha(u, k) * ext_alpha(v, k)

    def test_contractive_on_exact_elements(self):
        rng = random.Random(56)
        for _ in range(30):
            u = rand_element(rng, ETA101, exact=True)
            if u.g.is_exact_zero() and u.a.is_exact_zero():
                continue
            vals = [v for v in (u.a.valuation(), u.g.valuation()) if v is not None]
            n = rng.randrange(1, 6)
            moved = ext_alpha(u, n)
            moved_vals = [v for v in (moved.a.valuation(), moved.g.valuation()) if v is not None]
            assert min(moved_vals) == min(vals) + n

    def test_morphism_identities(self):
        rng = random.Random(57)
        for _ in range(30):
            u, v = rand_element(rng, ETA1), rand_element(rng, ETA1)
            assert pr2(u * v) == pr2(u) + pr2(v)
            assert pr2(ext_alpha(u, 2)) == pr2(u).shift(2)

    def test_sigma_recovers_cocycle(self):
        # w(g1, g2) = sigma(g1) sigma(g2) sigma(g1 g2)^-1
        rng = random.Random(58)
        for spec in (ETA1, ETA101):
            for _ in range(30):
                g1, g2 = rand_series(rng, F2), rand_series(rng, F2)
                lhs = ext_sigma(spec, g1) * ext_sigma(spec, g2) * ext_inv(ext_sigma(spec, g1 + g2))
                assert lhs.g.is_zero()
                assert lhs.a.agree(spec(g1, g2))


class TestCommutator:
    def test_self_commutator(self):
        rng = random.Random(59)
        u = rand_element(rng, ETA101)
        assert commutator(u, u).agree(ext_identity(ETA101))

    def test_eta_one_example(self):
        u = ext_sigma(ETA1, one_term(F2, 0))
        v = ext_sigma(ETA1, one_term(F2, 2))
        c = commutator(u, v)
        assert c.g.is_zero()
        assert c.a.agree(one_term(F2, 1))

    def test_kernel_is_central(self):
        rng = random.Random(60)
        for _ in range(30):
            a = rand_series(rng, F2)
            v = rand_element(rng, ETA101)
            assert commutator(ext_iota(ETA101, a), v).agree(ext_identity(ETA101))

    def test_closed_form(self):
        rng = random.Random(61)
        for spec in (ETA1, ETA101):
            for _ in range(30):
                u, v = rand_element(rng, spec), rand_element(rng, spec)
                c = commutator(u, v)
                assert c.g.is_zero()
                assert c.a.agree(antisymmetrize(spec, u.g, v.g))


class TestCenter:
    def test_kernel_passes(self):
        rng = random.Random(62)
        for _ in range(20):
            u = ext_iota(ETA101, rand_series(rng, F2))
            assert center_test(u).passed

    def test_explicit_witness(self):
        u = ext_sigma(ETA1, one_term(F2, 0))
        verdict = center_test(u, probe_degrees=[2])
        assert verdict.verdict == "FAIL" and verdict.probe == 2
        assert verdict.witness.agree(one_term(F2, 1))

    def test_guaranteed_probe(self):
        rng = random.Random(63)
        for bits in [(1,), (0, 1, 1), (0, 0, 1)]:
            spec = Eta(F2, BitSeq(bits))
            n0 = spec.s.first_set
            for _ in range(20):
                g = rand_series(rng, F2, exact=True)
                v = g.valuation()
                if v is None:
                    continue
                verdict = center_test(ExtElement(zero(F2), g, spec))
                assert verdict.verdict == "FAIL"
                assert verdict.probe == 2 * n0 + v

    def test_zero_bits_pass(self):
        rng = random.Random(64)
        spec = Eta(F2, BitSeq((0, 0, 0)))
        for _ in range(20):
            u = rand_element(rng, spec, exact=True)
            assert center_test(u).passed

    def test_undetermined_level(self):
        u = ExtElement(zero(F2), zero(F2, 3), ETA1)
        with pytest.raises(WindowTooSmall):
            center_test(u)

    def test_transformed_spec(self):
        rng = random.Random(65)
        spec = Transformed(ETA101, one_term(F2, 0), parse(F2, "1*t^0 + 1*t^1"), rand_cob_terms(rng, F2))
        g = one_term(F2, 1)
        verdict = center_test(ExtElement(zero(F2), g, spec))
        assert verdict.verdict == "FAIL"


class TestEquivalenceMap:
    def test_zero_terms_identity(self):
        rng = random.Random(66)
        u = rand_element(rng, ETA101)
        v = equivalence_map((), u)
        assert v.a == u.a and v.g == u.g

    def test_homomorphism(self):
        rng = random.Random(67)
        for spec in (ETA1, ETA101):
            fterms = rand_cob_terms(rng, F2, max_terms=2)
            for _ in range(50):
                u, v = rand_element(rng, spec), rand_element(rng, spec)
                lhs = equivalence_map(fterms, u * v)
                rhs = equivalence_map(fterms, u) * equivalence_map(fterms, v)
                assert lhs.agree(rhs)

    def test_commutes_with_alpha(self):
        rng = random.Random(68)
        fterms = rand_cob_terms(rng, F2, max_terms=2)
        for _ in range(30):
            u = rand_element(rng, ETA101)
            k = rng.randrange(-2, 3)
            assert equivalence_map(fterms, ext_alpha(u, k)) == ext_alpha(equivalence_map(fterms, u), k)

    def test_fixes_kernel_and_projection(self):
        rng = random.Random(69)
        fterms = rand_cob_terms(rng, F3, max_terms=2)
        spec = Eta(F3, BitSeq((1, 1)))
        for _ in range(20):
            a = rand_series(rng, F3)
            img = equivalence_map(fterms, ext_iota(spec, a))
            assert img.a == a and img.g.is_exact_zero()
            u = rand_element(rng, spec)
            assert pr2(equivalence_map(fterms, u)) == pr2(u)

    def test_target_spec_stacks_coboundaries(self):
        base = Transformed(ETA1, one_term(F2, 0), one_term(F2, 0), ((0, one_term(F2, 0)),))
        out = add_coboundary(base, ((1, one_term(F2, 1)),))
        assert isinstance(out, Transformed) and len(out.cob) == 2


class TestNilpotency:
    def test_eta_family_is_two_step(self):
        rng = random.Random(70)
        for spec in (ETA1, ETA101):
            triples = [tuple(rand_element(rng, spec) for _ in range(3)) for _ in range(50)]
            report = nilpotency_probe(spec, triples)
            assert report.ok and report.checked == 50

    def test_zero_bits_abelian(self):
        rng = random.Random(71)
        spec = Eta(F2, BitSeq((0, 0)))
        for _ in range(30):
            u, v = rand_element(rng, spec), rand_element(rng, spec)
            assert commutator(u, v).agree(ext_identity(spec))

    def test_corrupted_spec_reports(self):
        # a non-equivariant, non-biadditive map: the probe may fail, and the
        # report carries the witness rather than raising
        from congroup.cocycles import eval_basis_omega

        class Corrupt(Eta):
            def __call__(self, x, y):
                return eval_basis_omega(0, x, x)

        spec = Corrupt(F2, BitSeq((1,)))
        u = ext_sigma(spec, one_term(F2, 0))
        v = ext_sigma(spec, one_term(F2, 1))
        w = ext_sigma(spec, parse(F2, "1*t^0 + 1*t^1"))
        report = nilpotency_probe(spec, [(u, v, w)])
        assert not report.ok
        assert report.to_json()["failed"] == 1
