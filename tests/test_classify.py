"""Classification invariants and both contractivity tests against
independent oracles (numeric roots, companion-matrix nilpotency)."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from congroup.classify import (
    Block,
    ContractionSpec,
    FiniteAbelianType,
    INF_PLACE,
    NuTable,
    RationalPoly,
    canonicalize_spec,
    composition_data,
    element_order,
    omega_p_contractive,
    parse_poly,
    primary_decompose,
    schur_cohn,
    spec_from_json,
    spec_iso_test,
    stable_subgroup_locate,
    theta_x,
)
from congroup.classify import _factorize
from congroup.errors import BadParams, NotContractive, NotExact, OrderMismatch
from congroup.series import Modulus, make_series, one_term, parse, zero

Z4 = Modulus(2, 2)
Z9 = Modulus(3, 2)
Z2 = Modulus(2, 1)
Z3 = Modulus(3, 1)


class TestPrimaryDecompose:
    def test_four_versus_klein(self):
        t4 = primary_decompose(FiniteAbelianType.of(4))
        t22 = primary_decompose(FiniteAbelianType.of(2, 2))
        assert t4 == NuTable.from_dict({(2, 2): 1})
        assert t22 == NuTable.from_dict({(2, 1): 2})
        assert t4 != t22

    def test_crt_split(self):
        assert primary_decompose(FiniteAbelianType.of(12)) == NuTable.from_dict(
            {(2, 2): 1, (3, 1): 1}
        )

    def test_trivial_group(self):
        assert primary_decompose(FiniteAbelianType(())) == NuTable.from_dict({})

    def test_six_is_two_times_three(self):
        assert primary_decompose(FiniteAbelianType.of(6)) == primary_decompose(FiniteAbelianType.of(2, 3))

    def test_order_invariance_and_regrouping(self):
        rng = random.Random(100)
        for _ in range(50):
            orders = [rng.choice([2, 3, 4, 5, 8, 9, 12, 18]) for _ in range(rng.randrange(1, 5))]
            shuffled = orders[:]
            rng.shuffle(shuffled)
            assert primary_decompose(FiniteAbelianType(tuple(orders))) == primary_decompose(
                FiniteAbelianType(tuple(shuffled))
            )
            # CRT regrouping: merge a coprime pair into one factor
            for i in range(len(orders)):
                for j in range(i + 1, len(orders)):
                    import math

                    if math.gcd(orders[i], orders[j]) == 1:
                        merged = [o for k, o in enumerate(orders) if k not in (i, j)]
                        merged.append(orders[i] * orders[j])
                        assert primary_decompose(
                            FiniteAbelianType(tuple(merged))
                        ) == primary_decompose(FiniteAbelianType(tuple(orders)))

    def test_large_orders(self):
        assert primary_decompose(FiniteAbelianType.of(2**61 - 1)) == NuTable.from_dict({(2**61 - 1, 1): 1})
        assert primary_decompose(FiniteAbelianType.of(2**10 * 3**5 * 65537)) == NuTable.from_dict(
            {(2, 10): 1, (3, 5): 1, (65537, 1): 1}
        )

    def test_semiprime_factors_fast(self):
        # 1000000007 * 1000000009: trial division would need 10**9 steps
        t0 = time.perf_counter()
        table = primary_decompose(FiniteAbelianType.of(1000000016000000063))
        assert time.perf_counter() - t0 < 1.0
        assert table == NuTable.from_dict({(1000000007, 1): 1, (1000000009, 1): 1})

    def test_factorization_matches_trial_division(self):
        def trial(n):
            out, d = {}, 2
            while d * d <= n:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                d += 1
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out

        rng = random.Random(103)
        # products of primes above 100 reach the rho stage
        composites = [p * q for p in (101, 103, 9973) for q in (101, 107, 10007)] + [101**3, 9973**2]
        for n in list(range(1, 600)) + composites + [rng.randrange(2, 10**7) for _ in range(300)]:
            assert _factorize(n) == trial(n), n

    def test_order_cap(self):
        with pytest.raises(BadParams, match=r"below 2\*\*64"):
            FiniteAbelianType.of(2**64 + 1)
        assert primary_decompose(FiniteAbelianType.of(2**64 - 1)).length() == 7


class TestCompositionData:
    def test_exponent_chain(self):
        got = composition_data(2, 2)
        assert got.length == 2 and got.delta == 4
        assert got.chain_exponents == (2, 1, 0)

    def test_prime_case(self):
        for p in (2, 3, 5):
            assert composition_data(p, 1).delta == p

    def test_delta_is_p_to_length(self):
        for p in (2, 3, 5):
            for m in range(1, 5):
                got = composition_data(p, m)
                assert got.delta == p**got.length

    def test_table_delta_multiplicative(self):
        t = NuTable.from_dict({(2, 1): 1, (3, 1): 1})
        assert t.delta() == 6 and t.length() == 2
        t2 = NuTable.from_dict({(2, 2): 2, (2, 1): 1})
        assert t2.delta() == 2 ** t2.length()

    def test_direct_sum_additivity(self):
        rng = random.Random(101)
        for _ in range(50):
            t1 = NuTable.from_dict(
                {(rng.choice([2, 3, 5]), rng.randrange(1, 4)): rng.randrange(1, 4)}
            )
            t2 = NuTable.from_dict(
                {(rng.choice([2, 3, 5]), rng.randrange(1, 4)): rng.randrange(1, 4)}
            )
            s = t1 + t2
            assert s.delta() == t1.delta() * t2.delta()
            assert s.length() == t1.length() + t2.length()


class TestElementOrder:
    def test_zero(self):
        assert element_order(zero(Z4)) == 1

    def test_examples(self):
        assert element_order(one_term(Z4, 5, 2)) == 2
        assert element_order(parse(Z4, "2*t^0 + 1*t^1")) == 4

    def test_requires_exact(self):
        with pytest.raises(NotExact):
            element_order(make_series(Z4, 0, [1], 3))

    def test_torsion_identity(self):
        # order p^k iff p^k x = 0 and p^(k-1) x != 0
        rng = random.Random(102)
        for _ in range(100):
            ring = rng.choice([Z4, Z9])
            x = make_series(ring, rng.randrange(-3, 3), [rng.randrange(ring.q) for _ in range(4)])
            order = element_order(x)
            assert x.int_mul(order).is_exact_zero()
            if order > 1:
                assert not x.int_mul(order // ring.p).is_exact_zero()


class TestThetaX:
    def test_full_order_is_identity(self):
        x = one_term(Z4, 0)
        z = parse(Z4, "1*t^0 + 3*t^2")
        assert theta_x(x, z) == z

    def test_order_two_examples(self):
        x = one_term(Z4, 0, 2)
        assert theta_x(x, one_term(Z2, 3)) == one_term(Z4, 3, 2)
        assert theta_x(x, parse(Z2, "1*t^0 + 1*t^1")) == parse(Z4, "2*t^0 + 2*t^1")

    def test_additive_and_equivariant(self):
        rng = random.Random(103)
        for ring, small in ((Z4, Z2), (Z9, Z3)):
            x = one_term(ring, rng.randrange(-2, 3), ring.p)  # order p
            for _ in range(50):
                z = make_series(small, rng.randrange(-2, 2), [rng.randrange(small.q) for _ in range(3)])
                z2 = make_series(small, rng.randrange(-2, 2), [rng.randrange(small.q) for _ in range(3)])
                assert theta_x(x, z + z2) == theta_x(x, z) + theta_x(x, z2)
                assert theta_x(x, z.shift(1)) == theta_x(x, z).shift(1)

    def test_sends_unit_to_x(self):
        rng = random.Random(104)
        for _ in range(20):
            cs = [rng.randrange(1, 4) for _ in range(3)]
            x = make_series(Z4, rng.randrange(-2, 2), cs)
            order = element_order(x)
            if order != 4:
                continue
            assert theta_x(x, one_term(Z4, 0)) == x

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            theta_x(one_term(Z4, 0, 2), one_term(Z4, 0))  # order 2, ring expects 4
        with pytest.raises(OrderMismatch):
            theta_x(one_term(Z4, 0), one_term(Z3, 0))


class TestStableSubgroup:
    def test_full_order(self):
        assert stable_subgroup_locate(one_term(Z4, 2)) == 2

    def test_half_order(self):
        assert stable_subgroup_locate(parse(Z4, "2*t^0 + 2*t^3")) == 1

    def test_zero(self):
        assert stable_subgroup_locate(zero(Z4)) == 0


def root_oracle(f: RationalPoly):
    """Numeric root moduli via the numpy companion solver."""
    cs = [1.0] + [float(c) for c in reversed(f.coeffs)]
    return np.abs(np.roots(cs))


def companion_nilpotent_mod_p(f: RationalPoly, p: int) -> bool:
    d = f.degree
    M = [[0] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = 1
    for i in range(d):
        M[i][d - 1] = (-f.coeffs[i].numerator) % p

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(d)) % p for j in range(d)]
            for i in range(d)
        ]

    P = M
    for _ in range(d - 1):
        P = matmul(P, M)
    return all(v == 0 for row in P for v in row)


def rand_rational_poly(rng, max_degree=4):
    if rng.random() < 0.5:
        # random coefficients
        d = rng.randrange(1, max_degree + 1)
        cs = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)) for _ in range(d)]
        return RationalPoly(tuple(cs))
    # product of linear factors with rational roots, biased inside the disc
    d = rng.randrange(1, max_degree + 1)
    coeffs = [Fraction(1)]
    for _ in range(d):
        num = rng.randrange(-6, 7)
        den = rng.randrange(4, 9) if rng.random() < 0.7 else rng.randrange(1, 4)
        r = Fraction(num, den)
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return RationalPoly(tuple(coeffs[:-1]))


class TestSchurCohn:
    def test_linear(self):
        assert schur_cohn(parse_poly("x - 1/2"))
        assert not schur_cohn(parse_poly("x - 1"))
        assert not schur_cohn(parse_poly("x + 2"))

    def test_quadratic_with_root_on_and_off_circle(self):
        assert not schur_cohn(parse_poly("x^2 - 3/2*x + 1/2"))  # roots 1, 1/2
        assert not schur_cohn(parse_poly("x^2 + 1"))  # roots +-i
        assert schur_cohn(parse_poly("x^2 - 1/4"))

    def test_against_numeric_oracle(self):
        rng = random.Random(105)
        checked = 0
        while checked < 500:
            f = rand_rational_poly(rng)
            moduli = root_oracle(f)
            if any(abs(r - 1.0) <= 1e-9 for r in moduli):
                continue
            checked += 1
            assert schur_cohn(f) == bool(all(moduli < 1.0)), f"{f}: roots {moduli}"


class TestOmegaP:
    def test_eisenstein_like(self):
        assert omega_p_contractive(parse_poly("x^2 - 2"), 2)

    def test_unit_roots(self):
        assert not omega_p_contractive(parse_poly("x - 1"), 2)
        assert not omega_p_contractive(parse_poly("x - 1"), 7)
        assert not omega_p_contractive(parse_poly("x^2 - x"), 2)

    def test_rational_valuations(self):
        assert omega_p_contractive(parse_poly("x - 2/3"), 2)
        assert not omega_p_contractive(parse_poly("x - 3/2"), 2)

    def test_rejects_composite_place(self):
        for p in (1, 4, 9, 2**61 + 1):
            with pytest.raises(BadParams, match="not a prime"):
                omega_p_contractive(parse_poly("x - 1/2"), p)

    def test_against_companion_oracle(self):
        rng = random.Random(106)
        for _ in range(500):
            d = rng.randrange(1, 6)
            f = RationalPoly(tuple(Fraction(rng.randrange(-12, 13)) for _ in range(d)))
            p = rng.choice([2, 3, 5])
            assert omega_p_contractive(f, p) == companion_nilpotent_mod_p(f, p), f"{f} at {p}"


class TestPolyParsing:
    def test_round_trip(self):
        for text in ["x^2 - 1/2*x + 1/8", "x - 1/2", "x^3 + 2*x", "x^4 + 1/3"]:
            f = parse_poly(text)
            assert parse_poly(str(f)) == f

    def test_monic_enforced(self):
        with pytest.raises(Exception):
            parse_poly("2*x^2 + 1")


class TestContractionSpec:
    def test_permutation_invariance(self):
        f = parse_poly("x - 1/2")
        g = parse_poly("x^2 - 1/4")
        b1 = Block(INF_PLACE, f, 1, 1)
        b2 = Block(2, parse_poly("x - 2"), 1, 2)
        b3 = Block(INF_PLACE, g, 2, 1)
        nu = NuTable.from_dict({(2, 1): 1})
        s1 = ContractionSpec((b1, b2, b3), nu)
        s2 = ContractionSpec((b3, b1, b2), nu)
        assert canonicalize_spec(s1) == canonicalize_spec(s2)
        assert spec_iso_test(s1, s2)

    def test_n_index_distinguishes(self):
        f = parse_poly("x - 1/2")
        s1 = ContractionSpec((Block(INF_PLACE, f, 1, 1),), NuTable.from_dict({}))
        s2 = ContractionSpec((Block(INF_PLACE, f, 2, 1),), NuTable.from_dict({}))
        assert not spec_iso_test(s1, s2)

    def test_not_contractive_names_test(self):
        bad = ContractionSpec(
            (Block(INF_PLACE, parse_poly("x - 2"), 1, 1),), NuTable.from_dict({})
        )
        with pytest.raises(NotContractive) as err:
            canonicalize_spec(bad)
        assert err.value.test == "schur-cohn"
        badp = ContractionSpec((Block(3, parse_poly("x - 1"), 1, 1),), NuTable.from_dict({}))
        with pytest.raises(NotContractive) as err:
            canonicalize_spec(badp)
        assert err.value.test == "p-adic-valuation"

    def test_merge_and_drop(self):
        f = parse_poly("x - 1/2")
        s = ContractionSpec(
            (Block(INF_PLACE, f, 1, 1), Block(INF_PLACE, f, 1, 2), Block(2, parse_poly("x - 2"), 1, 0)),
            NuTable.from_dict({}),
        )
        canon = canonicalize_spec(s)
        assert len(canon.blocks) == 1 and canon.blocks[0].mult == 3

    def test_json_round_trip(self):
        s = ContractionSpec(
            (Block(INF_PLACE, parse_poly("x - 1/2"), 2, 1), Block(2, parse_poly("x^2 - 2"), 1, 1)),
            NuTable.from_dict({(2, 1): 2, (3, 2): 1}),
        )
        canon = canonicalize_spec(s)
        back = spec_from_json(canon.to_json())
        assert canonicalize_spec(back) == canon
