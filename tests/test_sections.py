"""The digit-expansion section algorithm on both named contexts."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congroup.cocycles import BitSeq, Eta
from congroup.errors import BadParams, InsufficientPrecision, MalformedInput
from congroup.sections import (
    SectionContext,
    build_section,
    digit_expand,
    make_ext_projection_ctx,
    make_mod_reduction_ctx,
    verify_section,
)
from congroup.series import Modulus, make_series, one_term, parse, zero

F2 = Modulus(2)
Z4 = Modulus(2, 2)


def rand_h(rng, ring, depth, min_prec=None):
    """A random H-sample; min_prec pads the window so digits reach that far."""
    cs = [rng.randrange(ring.q) for _ in range(rng.randrange(0, depth))]
    start = rng.randrange(-3, 3)
    if min_prec is None and rng.random() < 0.3:
        return make_series(ring, start, cs)
    prec = start + len(cs) + rng.randrange(0, 3)
    if min_prec is not None:
        prec = max(prec, min_prec)
    return make_series(ring, start, cs, prec)


class TestContexts:
    def test_modred_221(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        assert ctx.index == 2
        assert [str(r) for r in ctx.reps] == ["0", "1*t^0"]
        assert [str(g) for g in ctx.lifts] == ["0", "1*t^0"]

    def test_modred_311_identity_surjection(self):
        ctx = make_mod_reduction_ctx(3, 1, 1)
        rng = random.Random(90)
        for _ in range(20):
            h = rand_h(rng, ctx.ring_h, 6, min_prec=9)
            sig = build_section(ctx, h, 8)
            assert ctx.q(sig.element).agree(h)

    def test_modred_index_counts(self):
        assert make_mod_reduction_ctx(2, 3, 2).index == 4
        assert make_mod_reduction_ctx(5, 2, 1).index == 5

    def test_modred_bad_params(self):
        with pytest.raises(BadParams):
            make_mod_reduction_ctx(2, 1, 2)
        with pytest.raises(BadParams):
            make_mod_reduction_ctx(2, 2, 0)

    def test_extproj_index_is_p(self):
        for spec in (Eta(F2, BitSeq((0,))), Eta(Modulus(3), BitSeq((1, 1)))):
            assert make_ext_projection_ctx(spec).index == spec.ring.q

    def test_validation_rejects_bad_lift(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        bad_lifts = [ctx.lifts[0], one_term(Z4, 1)]  # projects to t^1, not t^0
        with pytest.raises(MalformedInput):
            SectionContext(
                "broken", ctx.ring_h, ctx.reps, bad_lifts, ctx.q,
                ctx.g_identity, ctx.g_mul, ctx.g_alpha,
            )


class TestDigitExpand:
    def test_identity_all_zero_digits(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        exp = digit_expand(ctx, zero(ctx.ring_h), 5)
        assert exp.digits == (0,) * 6

    def test_digits_are_coefficients(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        h = parse(ctx.ring_h, "1*t^0 + 1*t^3")
        exp = digit_expand(ctx, h, 3)
        assert exp.start == 0 and exp.digits == (1, 0, 0, 1)

    def test_digits_shift_under_beta(self):
        ctx = make_mod_reduction_ctx(3, 2, 1)
        rng = random.Random(91)
        for _ in range(30):
            h = rand_h(rng, ctx.ring_h, 5, min_prec=8)
            if h.valuation() is None:
                continue
            upto = 6
            exp = digit_expand(ctx, h, upto)
            exp2 = digit_expand(ctx, h.shift(1), upto + 1)
            assert exp2.start == exp.start + 1
            assert exp2.digits == exp.digits

    def test_uniqueness_exhaustive(self):
        # at each level exactly one representative satisfies the congruence
        ctx = make_mod_reduction_ctx(2, 3, 2)
        h = parse(ctx.ring_h, "3*t^0 + 1*t^1 + 2*t^2")
        exp = digit_expand(ctx, h, 2)
        z = h
        for k, j in zip(range(exp.start, 3), exp.digits):
            matches = []
            for jj, rep in enumerate(ctx.reps):
                v = (z - rep.shift(k)).valuation()
                if v is None or v > k:
                    matches.append(jj)
            assert matches == [j]
            z = z - ctx.reps[j].shift(k)

    def test_insufficient_precision(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        h = make_series(ctx.ring_h, 0, [1], 3)
        with pytest.raises(InsufficientPrecision):
            digit_expand(ctx, h, 3)
        with pytest.raises(InsufficientPrecision):
            digit_expand(ctx, zero(ctx.ring_h, 4), 6)


class TestBuildSection:
    def test_sigma_identity(self):
        for ctx in (make_mod_reduction_ctx(2, 2, 1), make_ext_projection_ctx(Eta(F2, BitSeq((1,))))):
            assert build_section(ctx, zero(ctx.ring_h), 7).element == ctx.g_identity

    def test_modred_coefficientwise_lift(self):
        ctx = make_mod_reduction_ctx(2, 2, 1)
        rng = random.Random(92)
        for _ in range(40):
            h = rand_h(rng, ctx.ring_h, 6, min_prec=9)
            if h.valuation() is None:
                continue
            upto = 8
            sig = build_section(ctx, h, upto).element
            for i in range(h.start, upto + 1):
                assert sig.coeff(i) == h.coeff(i)  # lifts into {0,1} inside Z/4

    def test_extproj_accumulates_cocycle(self):
        ctx = make_ext_projection_ctx(Eta(F2, BitSeq((1,))))
        h = parse(F2, "1*t^0 + 1*t^2")
        sig = build_section(ctx, h, 2).element
        assert sig.g == h
        assert sig.a.agree(one_term(F2, 1)) and sig.a.valuation() == 1

    def test_extproj_projects_back(self):
        rng = random.Random(93)
        ctx = make_ext_projection_ctx(Eta(F2, BitSeq((1, 0, 1))))
        for _ in range(50):
            h = rand_h(rng, F2, 8, min_prec=11)
            if h.valuation() is None:
                continue
            upto = 10
            sig = build_section(ctx, h, upto)
            back = ctx.q(sig.element)
            lo = min(back.start, h.start, upto)
            assert all(back.coeff(i) == h.coeff(i) for i in range(lo, upto + 1))


class TestVerifySection:
    def test_named_contexts_pass(self):
        rng = random.Random(94)
        contexts = [
            make_mod_reduction_ctx(2, 2, 1),
            make_mod_reduction_ctx(3, 2, 1),
            make_ext_projection_ctx(Eta(F2, BitSeq((1,)))),
            make_ext_projection_ctx(Eta(F2, BitSeq((1, 0, 1)))),
        ]
        for ctx in contexts:
            samples = [rand_h(rng, ctx.ring_h, 6, min_prec=14) for _ in range(25)]
            report = verify_section(ctx, samples, 12)
            assert report.ok, report.failures[0]

    def test_alternative_lift_table_still_verifies(self):
        # 3*t^0 also lifts 1*t^0: a different, equally valid section
        base = make_mod_reduction_ctx(2, 2, 1)
        alt = SectionContext(
            "modred-alt", base.ring_h, base.reps,
            [zero(Z4), one_term(Z4, 0, 3)],
            base.q, base.g_identity, base.g_mul, base.g_alpha,
        )
        h = parse(base.ring_h, "1*t^0 + 1*t^1")
        assert verify_section(alt, [h], 6).ok
        assert build_section(alt, h, 3).element != build_section(base, h, 3).element

    def test_corrupted_lift_table_reports(self):
        base = make_mod_reduction_ctx(2, 2, 1)
        broken = SectionContext(
            "modred-broken", base.ring_h, base.reps,
            [zero(Z4), one_term(Z4, 1)],
            base.q, base.g_identity, base.g_mul, base.g_alpha,
            validate=False,
        )
        h = one_term(base.ring_h, 0)
        report = verify_section(broken, [h], 4)
        assert not report.ok
        assert "q(sigma(h))" in report.failures[0]

    def test_local_constancy(self):
        # samples agreeing below n have sections agreeing below n
        ctx = make_ext_projection_ctx(Eta(F2, BitSeq((1, 1))))
        h1 = parse(F2, "1*t^0 + 1*t^2 + 1*t^4")
        h2 = parse(F2, "1*t^0 + 1*t^2 + 1*t^3")
        s1 = build_section(ctx, h1, 2).element
        s2 = build_section(ctx, h2, 2).element
        assert s1 == s2


def scan_digits(ctx, h, upto):
    """Reference digit search: at each level subtract every representative
    and keep the single residual of valuation > k (the coset scan spelled
    out in test_uniqueness_exhaustive).  Returns the digits, or the error
    message for a broken table."""
    digits, z = [], h
    for k in range(h.valuation(), upto + 1):
        hits = []
        for j, rep in enumerate(ctx.reps):
            residual = z - rep.shift(k)
            v = residual.valuation()
            if v is None or v > k:
                hits.append((j, residual))
        if len(hits) != 1:
            return f"coset table broken at level {k}: {len(hits)} matches"
        j, z = hits[0]
        digits.append(j)
    return tuple(digits)


def expand_or_error(ctx, h, upto):
    try:
        return digit_expand(ctx, h, upto).digits
    except MalformedInput as err:
        return str(err)


def _tailed_ctx():
    """A validated F_3 context whose representatives c + t^2 have tails."""
    base = make_mod_reduction_ctx(3, 2, 1)
    reps = [zero(base.ring_h)] + [make_series(base.ring_h, 0, [c, 0, 1]) for c in (1, 2)]
    lifts = [zero(Modulus(3, 2))] + [make_series(Modulus(3, 2), 0, [c, 0, 1]) for c in (1, 2)]
    return SectionContext("tailed", base.ring_h, reps, lifts, base.q, base.g_identity, base.g_mul, base.g_alpha)


def _unvalidated_ctx(reps):
    base = make_mod_reduction_ctx(2, 2, 1)
    return SectionContext(
        "unvalidated", F2, reps, base.lifts, base.q, base.g_identity, base.g_mul, base.g_alpha,
        validate=False,
    )


# two reps with constant term 1 (a level with coefficient 1 has 2 matches);
# a rep 1 + t^-1 that lies outside U (a level with coefficient 1 has none)
SHARED_CONSTANT_CTX = _unvalidated_ctx([zero(F2), one_term(F2, 0), parse(F2, "1*t^0 + 1*t^1")])
NEGATIVE_POWER_CTX = _unvalidated_ctx([zero(F2), parse(F2, "1*t^-1 + 1*t^0")])

ORACLE_CTXS = [
    make_mod_reduction_ctx(2, 2, 1),
    make_mod_reduction_ctx(3, 4, 3),
    make_ext_projection_ctx(Eta(F2, BitSeq((1, 0, 1)))),
    make_ext_projection_ctx(Eta(Modulus(3), BitSeq((1, 1)))),
    _tailed_ctx(),
    SHARED_CONSTANT_CTX,
    NEGATIVE_POWER_CTX,
]


@st.composite
def expansion_cases(draw):
    ctx = draw(st.sampled_from(ORACLE_CTXS))
    q = ctx.ring_h.q
    start = draw(st.integers(-5, 5))
    cs = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=40))
    upto = start + draw(st.integers(0, 45))
    if draw(st.booleans()):
        h = make_series(ctx.ring_h, start, cs)
    else:
        h = make_series(ctx.ring_h, start, cs, max(start + len(cs), upto + 1) + draw(st.integers(0, 3)))
    return ctx, h, upto


class TestDigitExpandOracle:
    @given(expansion_cases())
    def test_matches_coset_scan(self, case):
        ctx, h, upto = case
        assert expand_or_error(ctx, h, upto) == scan_digits(ctx, h, upto)

    def test_broken_tables(self):
        h = parse(F2, "1*t^2 + 1*t^3")
        for ctx, n in ((SHARED_CONSTANT_CTX, 2), (NEGATIVE_POWER_CTX, 0)):
            want = f"coset table broken at level 2: {n} matches"
            assert scan_digits(ctx, h, 5) == want
            with pytest.raises(MalformedInput, match=want):
                digit_expand(ctx, h, 5)
