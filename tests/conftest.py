"""Shared seeded generators for the property tests."""

import random

from hypothesis import settings

from congroup.cocycles import BitSeq, Eta, ParamSeq, ParamOmega, QuadCoboundary, Transformed
from congroup.series import Modulus, make_series

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline), so the suite's verdict never depends on the run.
settings.register_profile("congroup", derandomize=True, database=None, deadline=None)
settings.load_profile("congroup")


def rand_series(rng: random.Random, ring: Modulus, lo=-3, span=6, exact=False):
    """A random canonical series with start near lo and a short window."""
    start = rng.randrange(lo, lo + 3)
    n = rng.randrange(0, span)
    cs = [rng.randrange(ring.q) for _ in range(n)]
    if exact:
        return make_series(ring, start, cs)
    return make_series(ring, start, cs, start + n + rng.randrange(0, 3))


def rand_unit(rng: random.Random, ring: Modulus, val_range=(-2, 3), span=3):
    """An exact series with invertible leading coefficient (a unit up to shift)."""
    v = rng.randrange(*val_range)
    lead = rng.choice([c for c in range(1, ring.q) if c % ring.p])
    cs = [lead] + [rng.randrange(ring.q) for _ in range(rng.randrange(0, span))]
    return make_series(ring, v, cs)


def rand_bits(rng: random.Random, window: int) -> BitSeq:
    return BitSeq(tuple(rng.randrange(2) for _ in range(window)))


def rand_param_seq(rng: random.Random, ring: Modulus, half_window=4) -> ParamSeq:
    entries = {}
    for n in range(-half_window, half_window + 1):
        if rng.random() < 0.6:
            v = rng.randrange(0, 3)
            cs = [rng.randrange(ring.q) for _ in range(rng.randrange(1, 3))]
            entries[n] = make_series(ring, v, cs)
    return ParamSeq.from_dict(ring, (-half_window, half_window), entries)


def rand_cob_terms(rng: random.Random, ring: Modulus, max_terms=3):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        k = rng.randrange(-2, 3)
        u = make_series(ring, rng.randrange(0, 2), [rng.randrange(1, ring.q)])
        terms.append((k, u))
    return tuple(terms)


def spec_variants(rng: random.Random, ring: Modulus):
    """One instance of each closed cocycle description over ``ring``."""
    eta = Eta(ring, rand_bits(rng, 6))
    return [
        Eta(ring, rand_bits(rng, 6)),
        ParamOmega(rand_param_seq(rng, ring)),
        QuadCoboundary(ring, rand_cob_terms(rng, ring)),
        Transformed(eta, rand_unit(rng, ring), rand_unit(rng, ring), rand_cob_terms(rng, ring)),
    ]
