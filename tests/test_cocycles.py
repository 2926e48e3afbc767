"""Cocycle evaluations against brute-force oracles, the parametrization
round trip, and the identity/equivariance batch checkers."""

import random
import warnings
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KERNEL_RINGS,
    SOUNDNESS_RINGS,
    assert_refines,
    composed_bilinear,
    extend,
    known_further,
    multiple_heavy_series,
    short_series,
    spec_variants,
    sum_specs,
    transforms,
)

from congroup.cocycles import (
    BasisOmega,
    BitSeq,
    Cocycle,
    Eta,
    ParamOmega,
    ParamSeq,
    QuadCoboundary,
    Transformed,
    _bilinear,
    antisymmetrize,
    b_map,
    check_cocycle_identity,
    check_equivariance,
    eval_basis_omega,
    eval_coboundary,
    eval_coboundary_direct,
    eval_eta,
    eval_param_omega,
    evaluate,
)
from congroup.errors import EmptyWindowWarning, MalformedInput, WindowTooSmall
from congroup.extensions import ExtElement
from congroup.selftest import rand_bits, rand_cob_terms, rand_param_seq, rand_series, rand_unit
from congroup.series import EXACT, Modulus, make_series, one_term, parse, ring_mul, zero

F2 = Modulus(2)
Z4 = Modulus(2, 2)
F3 = Modulus(3)
F5 = Modulus(5)


def series_map(x):
    """Coefficient dict of all known coefficients (oracle representation)."""
    return dict(x.support())


def omega_oracle(n, x, y):
    """Brute-force sum x_i y_{i+n} t^i over the full known supports."""
    out = {}
    for i, xi in series_map(x).items():
        yj = series_map(y).get(i + n, 0)
        if xi * yj % x.ring.q:
            out[i] = (out.get(i, 0) + xi * yj) % x.ring.q
    return out


class TestBasisOmega:
    def test_monomial_pairs(self):
        # omega_n(t^i0, t^j0) = delta_{j0, i0+n} t^i0
        for n in range(-3, 4):
            for i0 in range(-2, 3):
                for j0 in range(-2, 3):
                    got = eval_basis_omega(n, one_term(F3, i0), one_term(F3, j0))
                    want = one_term(F3, i0) if j0 == i0 + n else zero(F3)
                    assert got == want

    def test_kronecker_on_probes(self):
        for n in range(-4, 5):
            for j in range(-4, 5):
                got = eval_basis_omega(n, one_term(F2, 0), one_term(F2, j))
                assert got == (one_term(F2, 0) if n == j else zero(F2))

    def test_char_two_example(self):
        x = parse(F2, "1*t^0 + 1*t^1")
        y = parse(F2, "1*t^1 + 1*t^2")
        assert eval_basis_omega(1, x, y) == parse(F2, "1*t^0 + 1*t^1")

    def test_against_oracle_exact(self):
        rng = random.Random(20)
        for _ in range(300):
            ring = rng.choice([F2, F3, F5])
            n = rng.randrange(-3, 4)
            x = rand_series(rng, ring, lo=-3, span=6, exact=True)
            y = rand_series(rng, ring, lo=-3, span=6, exact=True)
            got = eval_basis_omega(n, x, y)
            assert got.is_exact
            assert series_map(got) == omega_oracle(n, x, y)

    def test_precision_rule(self):
        x = make_series(F2, 0, [1, 1], 4)
        y = make_series(F2, -1, [1, 1, 1], 3)
        got = eval_basis_omega(2, x, y)
        assert got.prec == min(4, 3 - 2)

    def test_empty_window_warns(self):
        x = make_series(F2, 3, [1], 4)
        y = zero(F2, 2)
        with pytest.warns(EmptyWindowWarning) as record:
            got = evaluate(BasisOmega(F2, 0), x, y)
        assert got.is_zero() and got.prec == 2
        assert len(record) == 1 and record[0].filename == __file__
        assert eval_basis_omega(0, x, y) == got

    def test_size_bound(self):
        # |omega_n(x, y)| <= |x|
        rng = random.Random(21)
        for _ in range(300):
            ring = rng.choice([F2, F3])
            n = rng.randrange(-3, 4)
            x = rand_series(rng, ring, lo=-3, span=6, exact=True)
            y = rand_series(rng, ring, lo=-3, span=6, exact=True)
            assert eval_basis_omega(n, x, y).abs_val().value <= x.abs_val().value


class TestEta:
    def test_probe_forward(self):
        s = BitSeq((1, 0, 1, 1))
        for n in range(1, 5):
            got = eval_eta(s, one_term(F2, 0), one_term(F2, 2 * n))
            want = one_term(F2, n, s.bit(n))
            assert got.agree(want)
            if s.bit(n):
                assert got.valuation() == n

    def test_set_bits_are_not_a_field(self):
        # eval_eta reads the set-bit positions stored at construction;
        # ==, hash and repr still see only the bits
        s = BitSeq((0, 1, 1, 0, 1))
        assert s._ones == (2, 3, 5)
        assert s == BitSeq.from_string("01101") and hash(s) == hash(BitSeq((0, 1, 1, 0, 1)))
        assert repr(s) == "BitSeq(bits=(0, 1, 1, 0, 1))"
        assert BitSeq((0, 0))._ones == ()

    def test_probe_reverse_vanishes(self):
        s = BitSeq((1, 1, 0, 1))
        for n in range(1, 5):
            got = eval_eta(s, one_term(F2, 2 * n), one_term(F2, 0))
            assert got.is_zero()

    def test_zero_bits(self):
        rng = random.Random(22)
        s = BitSeq((0,) * 5)
        for _ in range(50):
            x = rand_series(rng, F3, lo=-3, span=6)
            y = rand_series(rng, F3, lo=-3, span=6)
            assert eval_eta(s, x, y).is_zero()

    def test_matches_param_representation(self):
        # eta_s = omega_a with a_{2n} = s_n t^n
        rng = random.Random(23)
        s = rand_bits(rng, 4)
        entries = {2 * n: one_term(F2, n, s.bit(n)) for n in range(1, 5)}
        a = ParamSeq.from_dict(F2, (-8, 8), entries)
        for _ in range(100):
            x = rand_series(rng, F2, lo=-3, span=6)
            y = rand_series(rng, F2, lo=-3, span=6)
            assert eval_eta(s, x, y).agree(eval_param_omega(a, x, y))

    def test_window_too_small(self):
        s = BitSeq((1, 1))
        with pytest.raises(WindowTooSmall) as err:
            evaluate(Eta(F2, s), one_term(F2, 0), one_term(F2, 10))
        assert err.value.needed == 5
        assert eval_eta(s, one_term(F2, 0), one_term(F2, 10)) == zero(F2, 5)

    def test_generalizes_to_prime_power_ring(self):
        # same formulas over Z/p^m: probe values and biadditivity survive
        Z4 = Modulus(2, 2)
        s = BitSeq((1, 0, 1))
        assert eval_eta(s, one_term(Z4, 0, 3), one_term(Z4, 2, 2)).agree(one_term(Z4, 1, 6))
        rng = random.Random(19)
        for _ in range(50):
            x, y, z = (rand_series(rng, Z4, lo=-3, span=6) for _ in range(3))
            lhs = eval_eta(s, x + y, z)
            rhs = eval_eta(s, x, z) + eval_eta(s, y, z)
            assert lhs.agree(rhs)

    def test_first_set_bit_bound(self):
        # |eta_s(x, y)| <= p^(-n0) |x|; an upper-bound absolute value cannot
        # exhibit a violation, only exact ones are compared
        rng = random.Random(24)
        for _ in range(200):
            ring = rng.choice([F2, F5])
            s = rand_bits(rng, 5)
            n0 = s.first_set
            if n0 is None:
                continue
            x = rand_series(rng, ring, lo=-3, span=6, exact=True)
            y = rand_series(rng, ring, lo=-3, span=6, exact=True)
            v = eval_eta(s, x, y).abs_val()
            assert not v.exact or v.value <= x.abs_val().value / ring.p**n0


def eta_reference(s, x, y):
    """eta_s(x, y) by the defining sum, read through coeff() and bit(), with
    the precision loop of eval_eta."""
    if x.is_exact_zero() or y.is_exact_zero():
        return zero(x.ring)
    sx, sy = x.start, y.start
    lo = max(sx + 1, -((-(sx + sy)) // 2))
    d, cs = lo, []
    while True:
        n_min, n_max = max(1, sy - d), d - sx
        if n_max > s.window:
            break
        if not (x.is_exact or d - n_min < x.prec) or not (y.is_exact or d + n_max < y.prec):
            break
        cs.append(sum(s.bit(n) * x.coeff(d - n) * y.coeff(d + n) for n in range(n_min, n_max + 1)))
        d += 1
    if d <= lo:
        return zero(x.ring, d)
    return make_series(x.ring, lo, cs, d)


@st.composite
def eval_series(draw, ring):
    start = draw(st.integers(-10, 10))
    n = draw(st.integers(0, 130))
    cs = draw(st.lists(st.integers(0, ring.q - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + n + draw(st.integers(0, 3)))


@st.composite
def eval_cases(draw):
    """(bits, n, x, y, which input to extend, extension residues)."""
    ring = draw(st.sampled_from((F2, F3, Modulus(3, 2))))
    bits = BitSeq(tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=70))))
    x, y = draw(eval_series(ring)), draw(eval_series(ring))
    extra = draw(st.lists(st.integers(0, ring.q - 1), min_size=1, max_size=20))
    return bits, draw(st.integers(-20, 20)), x, y, draw(st.booleans()), extra


class TestEvaluatorOracles:
    @given(eval_cases())
    def test_eta_matches_defining_sum(self, case):
        bits, _, x, y, _, _ = case
        assert eval_eta(bits, x, y) == eta_reference(bits, x, y)

    @given(eval_cases())
    def test_precision_soundness(self, case):
        # knowing more of an input keeps every stored output coefficient and
        # never lowers the output precision
        bits, n, x, y, first, extra = case
        x2, y2 = (extend(x, extra), y) if first else (x, extend(y, extra))
        for f in (lambda u, v: eval_eta(bits, u, v), lambda u, v: eval_basis_omega(n, u, v)):
            assert_refines(f(x, y), f(x2, y2))

    @settings(max_examples=300)
    @given(st.data())
    def test_sum_precision_soundness(self, data):
        # the same property for the evaluations that add several terms:
        # eval_param_omega, eval_coboundary and Transformed
        ring = data.draw(st.sampled_from(SOUNDNESS_RINGS))
        spec = data.draw(sum_specs(ring))
        x, y = data.draw(short_series(ring)), data.draw(short_series(ring))
        x2, y2 = data.draw(known_further(x, y))
        try:
            before = spec(x, y)
        except WindowTooSmall:
            # only exact inputs prove a parameter window short, and they
            # have nothing to extend
            assert (x2, y2) == (x, y)
            return
        assert_refines(before, spec(x2, y2))

    def test_sum_construction_count(self, count_constructions):
        # the kernel builds the whole sum once: no series per basis term or
        # per product
        spec = ParamOmega(ParamSeq.from_dict(F3, (-1, 1), {-1: one_term(F3, 0), 0: one_term(F3, 1, 2), 1: parse(F3, "1*t^0 + 1*t^1")}))
        x, y = parse(F3, "1*t^0 + 2*t^1 + 1*t^2 + O(t^6)"), parse(F3, "2*t^0 + 1*t^1 + 1*t^3 + O(t^7)")
        assert count_constructions(spec, x, y) == 1


class TestEvaluationKernel:
    @settings(max_examples=400)
    @given(st.data())
    def test_matches_composed_path(self, data):
        # value, start and prec bit for bit, plain and in the coboundary form,
        # with truncated units, vanishing omegas and an optional leading part
        ring = data.draw(st.sampled_from(KERNEL_RINGS))
        x, y = data.draw(multiple_heavy_series(ring)), data.draw(multiple_heavy_series(ring))
        term = st.tuples(st.integers(-3, 3), multiple_heavy_series(ring, starts=(-2, 2), max_len=3))
        terms = tuple(data.draw(st.lists(term, max_size=4)))
        cob = data.draw(st.booleans())
        lead = data.draw(st.none() | multiple_heavy_series(ring))
        assert _bilinear(terms, x, y, cob, lead) == composed_bilinear(terms, x, y, cob, lead)

    def test_bound_uses_canonical_start(self):
        # omega_0(x, x) = 4 + 1 t = 1 t over Z/4 starts at 1, so the
        # truncated unit gives the product the bound prec_u + 1 = 2
        x = parse(Z4, "2*t^0 + 1*t^1")
        u = parse(Z4, "1*t^0 + O(t^1)")
        assert _bilinear(((0, u),), x, x) == parse(Z4, "1*t^1 + O(t^2)")

    def test_vanishing_omega_bounds_nothing(self):
        # an exact omega (or symmetrized pair) that is zero mod q makes the
        # product the exact zero, whatever the precision of the unit
        u = parse(Z4, "1*t^0 + O(t^2)")
        x = parse(Z4, "2*t^0")
        assert _bilinear(((0, u),), x, x) == zero(Z4)
        y = parse(F2, "1*t^0 + 1*t^1")
        assert _bilinear(((0, parse(F2, "1*t^0 + O(t^3)")),), y, y, cob=True) == zero(F2)


class TestParamOmega:
    def test_probe_recovers_entries(self):
        rng = random.Random(25)
        for _ in range(30):
            a = rand_param_seq(rng, F3, half_window=4)
            for m in range(a.lo, a.hi + 1):
                got = eval_param_omega(a, one_term(F3, 0), one_term(F3, m))
                assert got == a.entry(m)

    def test_single_entry_matches_scaled_basis(self):
        rng = random.Random(26)
        a = ParamSeq.from_dict(F2, (-8, 8), {2: one_term(F2, 1)})
        for _ in range(100):
            x = rand_series(rng, F2, lo=-3, span=6)
            y = rand_series(rng, F2, lo=-3, span=6)
            got = eval_param_omega(a, x, y)
            want = eval_basis_omega(2, x, y).shift(1)
            assert got.agree(want)

    def test_second_slot_zero(self):
        rng = random.Random(27)
        for _ in range(30):
            a = rand_param_seq(rng, F5, half_window=4)
            x = rand_series(rng, F5, lo=-3, span=6)
            assert eval_param_omega(a, x, zero(F5)).is_zero()

    def test_window_guard_on_exact_inputs(self):
        a = ParamSeq.from_dict(F2, (-2, 2), {0: one_term(F2, 0)})
        with pytest.raises(WindowTooSmall) as err:
            eval_param_omega(a, one_term(F2, 0), one_term(F2, 5))
        assert err.value.needed == (5, 5)

    def test_decay_check_reports(self):
        growing = ParamSeq.from_dict(F2, (0, 2), {1: one_term(F2, 2), 2: one_term(F2, 0)})
        assert growing.check_b_decay()
        ok = ParamSeq.from_dict(F2, (0, 2), {1: one_term(F2, 1), 2: one_term(F2, 2)})
        assert not ok.check_b_decay()


class TestCoboundary:
    def test_zero_second_arg(self):
        rng = random.Random(28)
        for _ in range(50):
            terms = rand_cob_terms(rng, F3)
            x = rand_series(rng, F3, lo=-3, span=6)
            assert eval_coboundary(terms, x, zero(F3)).is_zero()

    def test_symmetric(self):
        rng = random.Random(29)
        for _ in range(100):
            ring = rng.choice([F2, F3])
            terms = rand_cob_terms(rng, ring)
            x = rand_series(rng, ring, lo=-3, span=6)
            y = rand_series(rng, ring, lo=-3, span=6)
            assert eval_coboundary(terms, x, y).agree(eval_coboundary(terms, y, x))

    def test_char_two_pointwise_square(self):
        terms = ((0, one_term(F2, 0)),)
        got = eval_coboundary(terms, one_term(F2, 0), one_term(F2, 0))
        assert got.is_zero()

    def test_routes_agree(self):
        rng = random.Random(30)
        for _ in range(200):
            ring = rng.choice([F2, F3, F5])
            terms = rand_cob_terms(rng, ring)
            x = rand_series(rng, ring, lo=-3, span=6)
            y = rand_series(rng, ring, lo=-3, span=6)
            assert eval_coboundary(terms, x, y).agree(eval_coboundary_direct(terms, x, y))


class TestTransformed:
    def test_identity_transform(self):
        rng = random.Random(31)
        base = Eta(F2, rand_bits(rng, 5))
        spec = Transformed(base, one_term(F2, 0), one_term(F2, 0), ())
        for _ in range(100):
            x = rand_series(rng, F2, lo=-3, span=6)
            y = rand_series(rng, F2, lo=-3, span=6)
            assert spec(x, y).agree(base(x, y))

    def test_unit_scaling_of_probes(self):
        # |a base(b t^0, b t^2n)| = |a| |b| p^-n when s_n = 1
        rng = random.Random(32)
        for _ in range(50):
            s = rand_bits(rng, 4)
            if s.first_set is None:
                continue
            a, b = rand_unit(rng, F3, val_range=(-2, 3)), rand_unit(rng, F3, val_range=(-2, 3))
            spec = Transformed(Eta(F3, s), a, b, ())
            for n in range(1, 5):
                if not s.bit(n):
                    continue
                got = evaluate(spec, one_term(F3, 0), one_term(F3, 2 * n))
                want = a.abs_val().value * b.abs_val().value / F3.p**n
                assert got.abs_val().exact and got.abs_val().value == want

    @given(st.data())
    def test_matches_definition(self, data):
        # a * base(b x, b y) plus the coboundary: bit for bit the sum of the
        # two evaluations, and at shared precision the defining formula
        # f(x) + f(y) - f(x + y)
        ring = data.draw(st.sampled_from(SOUNDNESS_RINGS))
        spec = data.draw(transforms(ring))
        x, y = data.draw(short_series(ring)), data.draw(short_series(ring))
        try:
            scaled = ring_mul(spec.a_unit, spec.base(ring_mul(spec.b_unit, x), ring_mul(spec.b_unit, y)))
        except WindowTooSmall:
            with pytest.raises(WindowTooSmall):
                spec(x, y)
            return
        got = spec(x, y)
        assert got == scaled + eval_coboundary(spec.cob, x, y)
        assert got.agree(scaled + eval_coboundary_direct(spec.cob, x, y))

    def test_rejects_non_unit(self):
        with pytest.raises(MalformedInput):
            Transformed(Eta(F2, BitSeq((1,))), zero(F2), one_term(F2, 0), ())
        with pytest.raises(MalformedInput):
            Transformed(Eta(Modulus(2, 2), BitSeq((1,))), make_series(Modulus(2, 2), 0, [2]), one_term(Modulus(2, 2), 0), ())


class TestEquivarianceOfAllVariants:
    def test_shift_commutes(self):
        rng = random.Random(33)
        for ring in (F2, F3):
            for spec in spec_variants(rng, ring) + [BasisOmega(ring, 1)]:
                pairs = [
                    (rand_series(rng, ring, lo=-3, span=6), rand_series(rng, ring, lo=-3, span=6))
                    for _ in range(40)
                ]
                report = check_equivariance(spec, pairs, range(-3, 4))
                assert report.ok, f"{spec}: {report.witnesses[0]}"

    def test_shifting_one_slot_fails(self):
        # t omega_1(t^0, t^1) = t, but omega_1(t*t^0, t^1) = 0
        lhs = eval_basis_omega(1, one_term(F2, 0), one_term(F2, 1)).shift(1)
        rhs = eval_basis_omega(1, one_term(F2, 1), one_term(F2, 1))
        assert not lhs.agree(rhs)


class TestCocycleIdentity:
    def test_all_variants(self):
        rng = random.Random(34)
        for ring in (F2, F3):
            for spec in spec_variants(rng, ring) + [BasisOmega(ring, -1)]:
                triples = [
                    tuple(rand_series(rng, ring, lo=-3, span=6) for _ in range(3))
                    for _ in range(60)
                ]
                report = check_cocycle_identity(spec, triples)
                assert report.ok, f"{spec}: {report.witnesses[0]}"

    def test_degenerate_triple(self):
        spec = Eta(F2, BitSeq((1,)))
        report = check_cocycle_identity(spec, [(zero(F2), zero(F2), zero(F2))])
        assert report.ok and report.checked == 1

    def test_corrupted_map_fails_with_witness(self):
        corrupt = lambda x, y: eval_basis_omega(0, x, x)
        triples = [(one_term(F2, 0), one_term(F2, 0), zero(F2))]
        report = check_cocycle_identity(corrupt, triples)
        assert report.failed == 1
        w = report.witnesses[0]
        assert not w.lhs.agree(w.rhs)
        assert report.to_json()["witnesses"][0]["inputs"][0] == "1*t^0"


class TestBMap:
    def test_param_round_trip(self):
        rng = random.Random(35)
        for _ in range(20):
            a = rand_param_seq(rng, F3, half_window=4)
            back = b_map(ParamOmega(a), (a.lo, a.hi))
            for n in range(a.lo, a.hi + 1):
                assert back.entry(n) == a.entry(n)

    def test_basis_indicator(self):
        got = b_map(BasisOmega(F2, 2), (-4, 4))
        for m in range(-4, 5):
            want = one_term(F2, 0) if m == 2 else zero(F2)
            assert got.entry(m).agree(want)

    def test_eta_unfolds(self):
        s = BitSeq((1, 0, 1))
        got = b_map(Eta(F2, s), (-4, 6))
        for m in range(-4, 7):
            if m >= 2 and m % 2 == 0:
                assert got.entry(m).agree(one_term(F2, m // 2, s.bit(m // 2)))
            else:
                assert got.entry(m).is_zero()

    def test_bmap_evaluations_reproduce(self):
        rng = random.Random(36)
        for spec in spec_variants(rng, F2):
            seq = b_map(spec, (-4, 4))
            for m in range(-4, 5):
                lhs = eval_param_omega(seq, one_term(F2, 0), one_term(F2, m))
                rhs = spec(one_term(F2, 0), one_term(F2, m))
                assert lhs.agree(rhs)


class TestAntisymmetrize:
    def test_coboundary_dies(self):
        rng = random.Random(37)
        for _ in range(50):
            terms = rand_cob_terms(rng, F3)
            x, y = rand_series(rng, F3, lo=-3, span=6), rand_series(rng, F3, lo=-3, span=6)
            assert antisymmetrize(QuadCoboundary(F3, terms), x, y).is_zero()

    def test_eta_probe(self):
        s = BitSeq((0, 1, 1))
        for n in range(1, 4):
            got = antisymmetrize(Eta(F2, s), one_term(F2, 0), one_term(F2, 2 * n))
            assert got.agree(one_term(F2, n, s.bit(n)))

    def test_diagonal_vanishes(self):
        rng = random.Random(38)
        for spec in spec_variants(rng, F5):
            x = rand_series(rng, F5, lo=-3, span=6)
            assert antisymmetrize(spec, x, x).is_zero()

    def test_invariant_under_coboundary_shift(self):
        rng = random.Random(39)
        for _ in range(30):
            s = rand_bits(rng, 5)
            base = Eta(F2, s)
            shifted = Transformed(base, one_term(F2, 0), one_term(F2, 0), rand_cob_terms(rng, F2))
            x, y = rand_series(rng, F2, lo=-3, span=6), rand_series(rng, F2, lo=-3, span=6)
            assert antisymmetrize(base, x, y).agree(antisymmetrize(shifted, x, y))


class TestBiadditivity:
    def test_each_slot(self):
        rng = random.Random(40)
        for ring in (F2, F3):
            for spec in spec_variants(rng, ring):
                if isinstance(spec, QuadCoboundary):
                    continue  # coboundaries are quadratic, not biadditive
                for _ in range(25):
                    x, x2 = rand_series(rng, ring, lo=-3, span=6), rand_series(rng, ring, lo=-3, span=6)
                    y = rand_series(rng, ring, lo=-3, span=6)
                    left = spec(x + x2, y)
                    split = spec(x, y) + spec(x2, y)
                    assert left.agree(split)
                    right = spec(y, x + x2)
                    rsplit = spec(y, x) + spec(y, x2)
                    assert right.agree(rsplit)


class TestWarningFiltersUntouched:
    def test_callers_keep_the_process_filters(self):
        # evaluation never swaps warnings.filters, a process-wide list that
        # every thread shares
        filters = warnings.filters
        calls = []

        def probe(x, y):
            assert warnings.filters is filters
            calls.append((x, y))
            return eval_basis_omega(1, x, y)

        @dataclass(frozen=True)
        class Probe(Cocycle):
            ring: Modulus

            def __call__(self, x, y):
                return probe(x, y)

        x, y = one_term(F2, 0), make_series(F2, 1, [1], 3)
        assert check_cocycle_identity(probe, [(x, y, y)]).ok
        assert check_equivariance(probe, [(x, y)], (-1, 2)).ok
        b_map(probe, (-2, 2), F2)
        u = ExtElement(x, y, Probe(F2))
        (u * u).inverse()
        assert len(calls) == 4 + 2 * 2 + 5 + 2
