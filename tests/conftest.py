"""Shared fixtures, spec variants and Hypothesis strategies for the
property tests; the seeded generators are those of :mod:`congroup.selftest`."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from congroup.cocycles import BasisOmega, BitSeq, Eta, ParamSeq, ParamOmega, QuadCoboundary, Transformed, eval_basis_omega
from congroup.selftest import rand_bits, rand_cob_terms, rand_param_seq, rand_unit
from congroup.series import EXACT, Modulus, TruncSeries, _sum, make_series, ring_mul

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline), so the suite's verdict never depends on the run.
settings.register_profile("congroup", derandomize=True, database=None, deadline=None)
settings.load_profile("congroup")


def spec_variants(rng: random.Random, ring: Modulus):
    """One instance of each closed cocycle description over ``ring``."""
    eta = Eta(ring, rand_bits(rng, 6))
    return [
        Eta(ring, rand_bits(rng, 6)),
        ParamOmega(rand_param_seq(rng, ring, half_window=4)),
        QuadCoboundary(ring, rand_cob_terms(rng, ring)),
        Transformed(
            eta,
            rand_unit(rng, ring, val_range=(-2, 3)),
            rand_unit(rng, ring, val_range=(-2, 3)),
            rand_cob_terms(rng, ring),
        ),
    ]


# -- precision soundness ---------------------------------------------------------


def extend(x, extra):
    """x with the residues ``extra`` stored past its prec (exact x as is)."""
    if x.is_exact:
        return x
    lo = min(x.start, x.prec)
    return make_series(x.ring, lo, [x.coeff(i) for i in range(lo, x.prec)] + extra, x.prec + len(extra))


def assert_refines(before, after):
    """``after``, computed from inputs known further, keeps every coefficient
    ``before`` stores and does not lower its precision."""
    if before.is_exact:
        assert after == before
        return
    assert after.prec is EXACT or after.prec >= before.prec
    lo = min(before.start, after.start, before.prec)
    assert all(before.coeff(i) == after.coeff(i) for i in range(lo, before.prec))


SOUNDNESS_RINGS = (Modulus(2), Modulus(3, 2), Modulus(5))


@st.composite
def short_series(draw, ring, starts=(-4, 4), max_len=16):
    """A canonical series, exact or truncated a few places past its residues."""
    start = draw(st.integers(*starts))
    n = draw(st.integers(0, max_len))
    cs = draw(st.lists(st.integers(0, ring.q - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + n + draw(st.integers(0, 3)))


@st.composite
def known_further(draw, *xs):
    """The inputs ``xs`` with one of them, or all, known further: extended
    by 1-8 drawn residues each (an exact input stays as it is)."""
    which = draw(st.sampled_from(list(range(len(xs))) + ["all"]))
    return tuple(
        extend(x, draw(st.lists(st.integers(0, x.ring.q - 1), min_size=1, max_size=8))) if which in (i, "all") else x
        for i, x in enumerate(xs)
    )


@st.composite
def units(draw, ring):
    """A unit up to shift: invertible leading residue, exact or truncated."""
    lead = draw(st.sampled_from([c for c in range(1, ring.q) if c % ring.p]))
    tail = draw(short_series(ring, starts=(1, 1), max_len=3))
    return (make_series(ring, 0, [lead]) + tail).shift(draw(st.integers(-2, 2)))


@st.composite
def param_seqs(draw, ring):
    lo, hi = draw(st.integers(-6, 0)), draw(st.integers(0, 6))
    entry = short_series(ring, starts=(0, 2), max_len=3)
    entries = draw(st.dictionaries(st.integers(lo, hi), entry, min_size=1, max_size=4))
    return ParamSeq.from_dict(ring, (lo, hi), entries)


def cob_terms(ring, min_size=0):
    term = st.tuples(st.integers(-3, 3), short_series(ring, starts=(-1, 2), max_len=3))
    return st.lists(term, min_size=min_size, max_size=3).map(tuple)


@st.composite
def transforms(draw, ring):
    """A Transformed over an eta, basis omega or param base, with units that
    may be truncated and 0-3 coboundary terms."""
    bits = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple).map(BitSeq)
    base = draw(
        st.one_of(
            st.builds(Eta, st.just(ring), bits),
            st.builds(BasisOmega, st.just(ring), st.integers(-3, 3)),
            param_seqs(ring).map(ParamOmega),
        )
    )
    return Transformed(base, draw(units(ring)), draw(units(ring)), draw(cob_terms(ring)))


def sum_specs(ring):
    """A spec whose evaluation sums several terms: ParamOmega, QuadCoboundary
    or Transformed."""
    return st.one_of(
        param_seqs(ring).map(ParamOmega),
        cob_terms(ring, min_size=1).map(lambda terms: QuadCoboundary(ring, terms)),
        transforms(ring),
    )


# -- the evaluation kernel's reference ---------------------------------------------


def composed_bilinear(terms, x, y, cob=False, lead=None):
    """What ``cocycles._bilinear`` computes, by the composed path it replaced:
    one series per basis omega (and per symmetrized pair), one per product
    u_k w_k, and one summation with ``lead``, negated for ``cob``."""

    def w(k):
        if cob:
            return eval_basis_omega(k, x, y) + eval_basis_omega(k, y, x)
        return eval_basis_omega(k, x, y)

    products = [ring_mul(u, w(k)) for k, u in terms]
    if lead is not None:
        products.insert(0, -lead if cob else lead)
    return _sum(x.ring, products, negate=cob)


KERNEL_RINGS = (Modulus(2), Modulus(2, 2), Modulus(3, 2), Modulus(5))


@st.composite
def multiple_heavy_series(draw, ring, starts=(-4, 4), max_len=6):
    """Like short_series, with half the residues multiples of p, so products
    of them (2 * 2 over Z/4, 3 * 3 over Z/9) often vanish mod q."""
    start = draw(st.integers(*starts))
    n = draw(st.integers(0, max_len))
    residue = st.one_of(st.sampled_from(range(0, ring.q, ring.p)), st.integers(0, ring.q - 1))
    cs = draw(st.lists(residue, min_size=n, max_size=n))
    if draw(st.booleans()):
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + n + draw(st.integers(0, 3)))


# -- construction counts -----------------------------------------------------------


@pytest.fixture
def count_constructions(monkeypatch):
    """count(f, *args): how many series f(*args) builds, through
    TruncSeries.__init__ or TruncSeries._canonical."""
    init, canonical = TruncSeries.__init__, TruncSeries._canonical.__func__
    calls = [0]

    def counting_init(self, *args):
        calls[0] += 1
        init(self, *args)

    def counting_canonical(cls, *args):
        calls[0] += 1
        return canonical(cls, *args)

    def count(f, *args):
        calls[0] = 0
        f(*args)
        return calls[0]

    monkeypatch.setattr(TruncSeries, "__init__", counting_init)
    monkeypatch.setattr(TruncSeries, "_canonical", classmethod(counting_canonical))
    return count
