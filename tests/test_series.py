"""Core arithmetic: construction, canonical form, precision tracking,
the ultrametric absolute value, and the text grammar."""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import short_series

from congroup import series
from congroup.errors import (
    CongroupError,
    InsufficientPrecision,
    MalformedInput,
    RingMismatch,
    SeriesSyntaxError,
)
from congroup.series import (
    EXACT,
    AbsValue,
    Modulus,
    format_series,
    make_series,
    one_term,
    parse,
    ring_mul,
    zero,
)

F2 = Modulus(2)
F3 = Modulus(3)
Z4 = Modulus(2, 2)
Z9 = Modulus(3, 2)

#: Every ring the suite builds series over.
GRAMMAR_RINGS = (F2, F3, Z4, Z9, Modulus(5), Modulus(3, 4), Modulus(65537), Modulus(65537, 3), Modulus(2**61 - 1))

#: The grammar's characters, a letter and digits that ``str.isdigit``
#: accepts but ``int`` does not (or only as a Unicode digit).
NEAR_GRAMMAR = "0123456789 +-*^tO()x\u00b2\uff11"


def rand_series(rng, ring, lo=-4, width=8, exact=False):
    start = rng.randrange(lo, lo + 4)
    n = rng.randrange(0, width)
    cs = [rng.randrange(ring.q) for _ in range(n)]
    if exact:
        return make_series(ring, start, cs)
    prec = start + n + rng.randrange(0, 3)
    return make_series(ring, start, cs, prec)


class TestModulus:
    def test_rejects_composite(self):
        # 2**61 + 1 is divisible by 3; 3825123056546413051 is a strong
        # pseudoprime to every prime base up to 31, so base 37 must reject it
        for n in (6, 2**61 + 1, 3825123056546413051):
            with pytest.raises(MalformedInput, match="not a prime"):
                Modulus(n)

    def test_rejects_bad_exponent(self):
        with pytest.raises(MalformedInput):
            Modulus(3, 0)

    def test_q(self):
        assert Z9.q == 9 and F2.q == 2

    def test_large_primes_construct(self):
        for p in (2**61 - 1, 10**18 + 3):
            assert Modulus(p).q == p

    def test_cap(self):
        with pytest.raises(MalformedInput, match=r"below 2\*\*64"):
            Modulus(2**64 + 13)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(-2, 5000):
            assert series._is_prime(n) == trial(n), n


class TestMakeSeries:
    def test_identity_construction(self):
        x = make_series(F2, 0, [1, 1], EXACT)
        assert (x.start, x.coeffs, x.prec) == (0, (1, 1), EXACT)
        assert format_series(x) == "1*t^0 + 1*t^1"

    def test_canonicalization_trims_leading_zero(self):
        x = make_series(F2, 0, [0, 1], 4)
        assert (x.start, x.prec) == (1, 4)
        assert x.coeffs == (1, 0, 0)  # window zero-filled through prec

    def test_reduction_mod_nine_then_trim(self):
        x = make_series(Z9, -1, [9, 4], 2)
        assert (x.start, x.coeffs, x.prec) == (0, (4, 0), 2)

    def test_malformed_prec(self):
        with pytest.raises(MalformedInput):
            make_series(F2, 0, [1, 1], 1)

    def test_exact_zero_convention(self):
        z = make_series(F3, 5, [0, 0], EXACT)
        assert (z.start, z.coeffs, z.prec) == (0, (), EXACT)
        assert z.is_exact_zero()

    def test_truncated_zero_keeps_prec(self):
        z = make_series(F3, 2, [0, 0], 4)
        assert (z.start, z.coeffs, z.prec) == (4, (), 4)
        assert z.is_zero() and not z.is_exact_zero()


class TestAdd:
    def test_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rand_series(rng, F3)
            assert x + zero(F3) == x

    def test_mod_two_cancellation(self):
        x = parse(F2, "1*t^0 + 1*t^1")
        y = parse(F2, "1*t^1 + 1*t^2")
        assert x + y == parse(F2, "1*t^0 + 1*t^2")

    def test_inverse(self):
        rng = random.Random(8)
        for _ in range(50):
            x = rand_series(rng, Z4)
            s = x + -x
            assert s.is_zero()
            assert s.prec == x.prec

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            zero(F2) + zero(F3)


class TestIntMul:
    def test_mod_four(self):
        x = make_series(Z4, 0, [1, 3])
        assert x.int_mul(2) == make_series(Z4, 0, [2, 2])

    def test_ring_exponent_kills(self):
        rng = random.Random(9)
        for _ in range(30):
            x = rand_series(rng, Z9)
            y = x.int_mul(9)
            assert y.is_zero() and y.prec == x.prec

    def test_negate_zero(self):
        assert -zero(F2) == zero(F2)

    def test_torsion_criterion(self):
        # p^k x = 0 iff every coefficient lies in p^(m-k) Z/p^m
        rng = random.Random(10)
        for _ in range(100):
            x = rand_series(rng, Z4, exact=True)
            k = rng.randrange(0, 3)
            killed = x.int_mul(2**k).is_exact_zero()
            divisible = all(c % 2 ** (2 - k) == 0 for _, c in x.support())
            assert killed == divisible


class TestShift:
    def test_monomial(self):
        assert one_term(F2, 0).shift(1) == one_term(F2, 1)

    def test_identity_and_inverse(self):
        rng = random.Random(11)
        for _ in range(50):
            x = rand_series(rng, F3)
            assert x.shift(0) == x
            assert x.shift(3).shift(-3) == x

    def test_additive_automorphism(self):
        rng = random.Random(12)
        for _ in range(50):
            x, y = rand_series(rng, Z4), rand_series(rng, Z4)
            k = rng.randrange(-3, 4)
            assert (x + y).shift(k) == x.shift(k) + y.shift(k)


class TestRingMul:
    def test_unit(self):
        rng = random.Random(13)
        for _ in range(50):
            y = rand_series(rng, F3)
            assert ring_mul(one_term(F3, 0), y) == y

    def test_char_two_square(self):
        x = parse(F2, "1*t^0 + 1*t^1")
        assert ring_mul(x, x) == parse(F2, "1*t^0 + 1*t^2")

    def test_consistency_with_shift(self):
        rng = random.Random(14)
        for _ in range(50):
            x = rand_series(rng, Z4)
            assert ring_mul(one_term(Z4, 2), x) == x.shift(2)

    def test_precision_rule(self):
        x = make_series(F2, 1, [1, 0, 1], 5)
        y = make_series(F2, -2, [1, 1], 1)
        z = ring_mul(x, y)
        assert z.prec == min(5 + (-2), 1 + 1)

    def test_exact_zero_annihilates(self):
        x = make_series(F2, 1, [1], 5)
        assert ring_mul(x, zero(F2)).is_exact_zero()

    def test_ring_axioms_at_shared_precision(self):
        rng = random.Random(19)
        for _ in range(150):
            ring = rng.choice([F2, Z4, Z9])
            x, y, z = (rand_series(rng, ring, exact=rng.random() < 0.4) for _ in range(3))
            assert ring_mul(x, y).agree(ring_mul(y, x))
            assert ring_mul(ring_mul(x, y), z).agree(ring_mul(x, ring_mul(y, z)))
            assert ring_mul(x, y + z).agree(ring_mul(x, y) + ring_mul(x, z))


ORACLE_RINGS = (F2, Modulus(3, 4), Modulus(65537), Modulus(65537, 3))


def schoolbook(x, y):
    """Reference product: every pair of stored coefficients, then the window
    min(prec_x + start_y, prec_y + start_x) (the exact zero annihilates)."""
    if x.is_exact_zero() or y.is_exact_zero():
        return zero(x.ring)
    full = [0] * max(0, len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            full[i + j] += a * b
    lo = x.start + y.start
    bounds = [p + s for p, s in ((x.prec, y.start), (y.prec, x.start)) if p is not EXACT]
    if not bounds:
        return make_series(x.ring, lo, full)
    prec = min(bounds)
    if prec <= lo:
        return zero(x.ring, prec)
    return make_series(x.ring, lo, full[: prec - lo], prec)


@st.composite
def oracle_series(draw, ring):
    start = draw(st.integers(-20, 20))
    n = draw(st.integers(0, 300))
    cs = draw(st.lists(st.integers(0, ring.q - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + n + draw(st.integers(0, 5)))


@st.composite
def oracle_pairs(draw):
    ring = draw(st.sampled_from(ORACLE_RINGS))
    return draw(oracle_series(ring)), draw(oracle_series(ring))


def _ones(ring, start, n, prec=EXACT):
    return make_series(ring, start, [ring.q - 1] * n, prec)


# Explicit pairs that pin each branch of ring_mul: schoolbook, packing in
# array slots, packing in slots wider than 64 bits, exact zero, hi <= lo.
# All coefficients are q - 1, so product coefficients reach the slot bound:
# 256 x 300 over F_2 makes a coefficient 256, one more than a byte holds.
ORACLE_EXAMPLES = [
    (_ones(F2, 0, 1), _ones(F2, -3, 300)),
    (_ones(F2, 0, 256), _ones(F2, 1, 300)),
    (_ones(Modulus(3, 4), -7, 4, -2), _ones(Modulus(3, 4), 2, 5)),
    (_ones(Modulus(65537), -5, 300, 298), _ones(Modulus(65537), 4, 250, 260)),
    (_ones(Modulus(65537, 3), -2, 40, 45), _ones(Modulus(65537, 3), -9, 60)),
    (zero(F2), _ones(F2, 0, 50, 60)),
    (_ones(Modulus(3, 4), 0, 9, 9), zero(Modulus(3, 4))),
    (zero(F2, 0), _ones(F2, -2, 1, -1)),
]


class TestRingMulOracle:
    @given(oracle_pairs())
    def test_matches_schoolbook(self, pair):
        x, y = pair
        assert ring_mul(x, y) == schoolbook(x, y)
        assert ring_mul(y, x) == schoolbook(y, x)

    def test_examples(self):
        for x, y in ORACLE_EXAMPLES:
            assert ring_mul(x, y) == schoolbook(x, y)
            assert ring_mul(y, x) == schoolbook(y, x)

    def test_examples_reach_every_branch(self):
        pairs = [len(x.coeffs) * len(y.coeffs) for x, y in ORACLE_EXAMPLES]
        assert min(pairs) == 0
        assert any(0 < k <= series._SCHOOLBOOK_PAIRS for k in pairs)
        assert any(k > series._SCHOOLBOOK_PAIRS for k in pairs)
        slot_bits = [
            (min(len(x.coeffs), len(y.coeffs)) * (x.ring.q - 1) ** 2).bit_length()
            for x, y in ORACLE_EXAMPLES
            if len(x.coeffs) * len(y.coeffs) > series._SCHOOLBOOK_PAIRS
        ]
        assert min(slot_bits) <= 64 < max(slot_bits)
        assert any(x.prec is not EXACT and x.prec + y.start <= x.start + y.start for x, y in ORACLE_EXAMPLES)


def add_reference(x, y):
    """Sum read coefficient by coefficient over the shared window."""
    if x.is_exact and y.is_exact:
        lo = min(x.start, y.start)
        hi = max(x.start + len(x.coeffs), y.start + len(y.coeffs), lo)
        return make_series(x.ring, lo, [x.coeff(i) + y.coeff(i) for i in range(lo, hi)])
    prec = min(p for p in (x.prec, y.prec) if p is not EXACT)
    lo = min(x.start, y.start, prec)
    return make_series(x.ring, lo, [x.coeff(i) + y.coeff(i) for i in range(lo, prec)], prec)


def agree_reference(x, y):
    """Agreement read coefficient by coefficient over the shared window."""
    if x.is_exact and y.is_exact:
        return dict(x.support()) == dict(y.support())
    bound = min(p for p in (x.prec, y.prec) if p is not EXACT)
    lo = min(x.start, y.start, bound)
    return all(x.coeff(i) == y.coeff(i) for i in range(lo, bound))


@st.composite
def lean_pairs(draw):
    """Pairs over one ring: independent operands, or y a cut of x (so the
    two agree), of -x (so a sum cancels its leading terms), or a cut of x
    with one residue changed."""
    ring = draw(st.sampled_from((F2, Z9, Modulus(65537))))
    x = draw(oracle_series(ring))
    mode = draw(st.sampled_from(("independent", "cut", "negated", "changed")))
    if mode == "independent":
        return x, draw(oracle_series(ring))
    top = x.start + len(x.coeffs) if x.is_exact else x.prec
    cut = draw(st.integers(x.start - 3, top + 3))
    if not x.is_exact:
        cut = min(cut, x.prec)
    lo = min(x.start, cut)
    cs = [x.coeff(i) for i in range(lo, cut)]
    if mode == "negated":
        cs = [-c for c in cs]
    if mode == "changed" and cs:
        i = draw(st.integers(0, len(cs) - 1))
        cs[i] += 1
    return x, make_series(ring, lo, cs, cut if draw(st.booleans()) else EXACT)


class TestLeanSeriesLayer:
    """The slice-based operations against coefficient-wise references, and
    every result of the operations that skip canonicalization in canonical
    form."""

    @given(lean_pairs(), st.integers(-300, 300))
    def test_results_are_canonical(self, pair, k):
        x, y = pair
        for r in (x.shift(k), y.shift(k), -x, -y, x + y, y + x, x - y, y - x):
            assert r == series.TruncSeries(r.ring, r.start, r.coeffs, r.prec)

    @given(lean_pairs())
    def test_add_and_agree_match_references(self, pair):
        x, y = pair
        assert x + y == add_reference(x, y)
        assert x - y == add_reference(x, make_series(y.ring, y.start, [-c for c in y.coeffs], y.prec))
        assert x.agree(y) == agree_reference(x, y) == y.agree(x)

    @given(lean_pairs(), st.integers(0, 400))
    def test_agree_through_matches_reference(self, pair, at):
        x, y = pair
        known = [s.prec for s in (x, y) if not s.is_exact]
        idx = min(x.start, y.start) - 3 + at
        if known:
            idx = min(idx, min(known) - 1)
        lo = min(x.start, y.start, idx)
        want = all(x.coeff(i) == y.coeff(i) for i in range(lo, idx + 1))
        assert x.agree_through(y, idx) == want

    def test_shift_keeps_the_exact_zero(self):
        assert zero(F2).shift(5) == zero(F2) and zero(F2).shift(5).start == 0
        assert zero(F2, 3).shift(-5) == zero(F2, -2)


@st.composite
def sum_parts(draw):
    """0-5 parts over one ring: fresh series (exact or truncated, windows up
    to 300), truncated zeros, negations of earlier parts (so the sum
    cancels) and cuts of earlier parts, exact or truncated."""
    ring = draw(st.sampled_from((F2, Z9, Modulus(65537))))
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        mode = draw(st.sampled_from(("fresh", "zero", "negated", "cut") if parts else ("fresh", "zero")))
        if mode == "fresh":
            parts.append(draw(oracle_series(ring)))
        elif mode == "zero":
            parts.append(zero(ring, draw(st.integers(-25, 330))))
        else:
            x = draw(st.sampled_from(parts))
            if mode == "negated":
                parts.append(-x)
                continue
            top = x.start + len(x.coeffs) if x.is_exact else x.prec
            cut = draw(st.integers(x.start - 3, top + 3))
            if not x.is_exact:
                cut = min(cut, x.prec)
            lo = min(x.start, cut)
            cs = [x.coeff(i) for i in range(lo, cut)]
            parts.append(make_series(ring, lo, cs, cut if draw(st.booleans()) else EXACT))
    return ring, parts


class TestSumKernel:
    """``_sum`` against the left fold from the exact zero of ``+`` and of
    the coefficient-wise ``add_reference``."""

    @given(sum_parts(), st.booleans())
    def test_matches_left_fold(self, case, negate):
        ring, parts = case
        want = reduce(add_reference, parts, zero(ring))
        assert reduce(operator.add, parts, zero(ring)) == want
        got = series._sum(ring, parts, negate)
        assert got == (-want if negate else want)
        assert got == series.TruncSeries(ring, got.start, got.coeffs, got.prec)

    @given(sum_parts(), st.integers(0, 5), st.booleans())
    def test_foreign_part_raises(self, case, at, negate):
        ring, parts = case
        parts.insert(min(at, len(parts)), one_term(F3, 0))
        with pytest.raises(RingMismatch) as folded:
            reduce(operator.add, parts, zero(ring))
        with pytest.raises(RingMismatch) as summed:
            series._sum(ring, parts, negate)
        assert str(summed.value) == str(folded.value)

    def test_equal_rings_sum(self):
        # rings compare by value: a second Modulus(2) is the same ring
        x, y = one_term(F2, 0), one_term(Modulus(2), 0, 1)
        assert series._sum(F2, [x, y]) == zero(F2)
        assert series._sum(F2, [x, zero(F2, 4), y]) == zero(F2, 4)


class TestAbsValue:
    def test_hash_agrees_with_eq(self):
        pairs = [
            (AbsValue(2, True, 0), AbsValue(3, True, 0)),
            (one_term(F2, 0).abs_val(), one_term(F3, 0).abs_val()),
            (zero(F2).abs_val(), zero(F3).abs_val()),
            (AbsValue(2, True, 2), AbsValue(4, True, 1)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert len({AbsValue(2, True, 1), AbsValue(2, False, 1), AbsValue(3, True, 1)}) == 3

    def test_exact_value(self):
        x = parse(F3, "1*t^-2 + 1*t^0")
        v = x.abs_val()
        assert v.exact and v.valuation == -2 and v.value == 9

    def test_upper_bound(self):
        v = zero(F3, 5).abs_val()
        assert not v.exact and v.value == AbsValue(3, True, 5).value

    def test_exact_zero(self):
        v = zero(F3).abs_val()
        assert v.exact and v.value == 0

    def test_ultrametric_inequality_and_equality(self):
        rng = random.Random(15)
        for _ in range(200):
            x = rand_series(rng, F3, exact=True)
            y = rand_series(rng, F3, exact=True)
            vx, vy, vs = x.abs_val(), y.abs_val(), (x + y).abs_val()
            assert vs.value <= max(vx.value, vy.value)
            if vy.value < vx.value:
                assert vs == vx


class TestPrecisionSoundness:
    """Extending inputs beyond prec never rewrites known output coefficients."""

    @staticmethod
    def extend(rng, x):
        if x.is_exact:
            return x
        extra = [rng.randrange(x.ring.q) for _ in range(3)]
        cs = list(x.coeffs) + extra
        lo = min(x.start, x.prec)
        return make_series(x.ring, lo, [x.coeff(i) for i in range(lo, x.prec)] + extra, x.prec + 3)

    def test_binary_ops(self):
        rng = random.Random(16)
        # 200 short windows, then 40 wide ones that reach Kronecker packing
        for width in [8] * 200 + [300] * 40:
            x, y = rand_series(rng, Z4, width=width), rand_series(rng, Z4, width=width)
            x2, y2 = self.extend(rng, x), self.extend(rng, y)
            for op in (operator.add, ring_mul):
                before, after = op(x, y), op(x2, y2)
                assert before.agree(after)
                if not before.is_exact:
                    bound = before.prec
                    lo = min(before.start, after.start, bound)
                    assert all(before.coeff(i) == after.coeff(i) for i in range(lo, bound))

    def test_unary_ops(self):
        rng = random.Random(17)
        # 100 short windows, then 40 wide ones
        for width in [8] * 100 + [300] * 40:
            x = rand_series(rng, Z9, width=width)
            x2 = self.extend(rng, x)
            assert (-x).agree(-x2)
            assert x.int_mul(3).agree(x2.int_mul(3))
            assert x.shift(2).agree(x2.shift(2))


class TestGrammar:
    def test_parse_window(self):
        x = parse(F2, "1*t^-1 + 1*t^2 + O(t^5)")
        assert (x.start, x.prec) == (-1, 5)
        assert [x.coeff(i) for i in range(-1, 5)] == [1, 0, 0, 1, 0, 0]

    def test_format_zero(self):
        assert format_series(zero(F2)) == "0"
        assert format_series(zero(F2, 5)) == "O(t^5)"

    def test_bare_power_term(self):
        assert parse(F2, "t^3") == one_term(F2, 3)

    def test_roundtrip_random(self):
        rng = random.Random(18)
        for _ in range(1000):
            ring = rng.choice([F2, F3, Z4, Z9])
            x = rand_series(rng, ring, exact=rng.random() < 0.5)
            assert parse(ring, format_series(x)) == x

    @given(st.data())
    def test_parse_inverts_format(self, data):
        ring = data.draw(st.sampled_from(GRAMMAR_RINGS))
        x = data.draw(short_series(ring, starts=(-40, 40), max_len=12))
        assert parse(ring, format_series(x)) == x

    @settings(max_examples=500)
    @given(st.data())
    def test_bad_text_raises_only_congroup_errors(self, data):
        # formatted series with 1-3 characters inserted, deleted or
        # replaced, and arbitrary text: parse returns a series that formats
        # back to itself, or raises a CongroupError, never anything else
        ring = data.draw(st.sampled_from(GRAMMAR_RINGS))
        text = format_series(data.draw(short_series(ring)))
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(text)))
            edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
            c = "" if edit == "delete" else data.draw(st.sampled_from(NEAR_GRAMMAR))
            text = text[:i] + c + text[i + (edit != "insert") :]
        for t in (text, data.draw(st.text(max_size=24))):
            try:
                x = parse(ring, t)
            except CongroupError:
                continue
            assert parse(ring, format_series(x)) == x

    def test_syntax_errors_carry_position(self):
        for bad in ["", "1*t^", "t^2 + t^1", "t^2 + t^2", "5*t^0", "1*t^1 + O(t^1)", "O(t^2) + t^3", "t^\u00b2", "\u00b2*t^0"]:
            with pytest.raises(SeriesSyntaxError):
                parse(F3, bad)

    def test_coefficient_range_enforced(self):
        with pytest.raises(SeriesSyntaxError):
            parse(F2, "2*t^0")
        assert parse(Z4, "2*t^0") == make_series(Z4, 0, [2])


class TestCanonicalUniqueness:
    def test_equal_knowledge_equal_bits(self):
        a = make_series(Z4, -1, [0, 1, 2, 0], 3)
        b = make_series(Z4, 0, [1, 2], 3)
        assert a == b and hash(a) == hash(b)

    def test_prec_distinguishes(self):
        assert make_series(F2, 0, [1], 1) != make_series(F2, 0, [1], 2)
        assert make_series(F2, 0, [1], EXACT) != make_series(F2, 0, [1], 1)


class TestCoeffAccess:
    def test_unknown_raises(self):
        x = make_series(F2, 0, [1], 2)
        with pytest.raises(InsufficientPrecision):
            x.coeff(2)

    def test_exact_reads_everywhere(self):
        x = one_term(F2, 3)
        assert x.coeff(-10) == 0 and x.coeff(3) == 1 and x.coeff(100) == 0
