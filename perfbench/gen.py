"""Seeded input generators for the three benchmark workloads.

Everything here is plain data (ints, tuples, strings, Fractions) and nothing
imports congroup, so a seed gives the same inputs whatever the program looks
like, and :func:`digest` shows that two checkouts ran on identical inputs.
These generators are the benchmark's own on purpose: the program's
``selftest`` generators and the test-suite fixtures may change without moving
the benchmark's inputs.

Raw encodings used throughout:

* ring    ``(p, m)`` for Z/p^m
* series  ``(start, coeffs, prec)`` with ``prec`` None for a finitely
  supported (exact) value; residues lie in [0, p^m)
* spec    ``("omega", ring, n)``, ``("param", ring, lo, hi, entries)``,
  ``("eta", ring, bits)``, ``("cob", ring, terms)`` or
  ``("xform", eta_spec, a_unit, b_unit, terms)``; ``terms`` pairs an index
  with a series
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

WORKLOADS = ("laws", "invariants", "wide")

LAWS_RINGS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2))
WIDE_RINGS = ((2, 1), (3, 4), (65537, 1))
WIDE_SIZES = (256, 1024, 2048)
SPEC_KINDS = ("omega", "param", "eta", "cob", "xform")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def modulus(ring):
    p, m = ring
    return p**m


# -- small building blocks ---------------------------------------------------------


def rand_series(rng, q, max_len=8, start=(-3, 3), exact_frac=0.2, pad=3):
    s = rng.randint(*start)
    cs = tuple(rng.randrange(q) for _ in range(rng.randint(0, max_len)))
    if rng.random() < exact_frac:
        return (s, cs, None)
    return (s, cs, s + len(cs) + rng.randrange(pad))


def rand_nonzero_exact(rng, q, max_len=8, start=(-3, 3)):
    s = rng.randint(*start)
    cs = [rng.randrange(q) for _ in range(rng.randint(1, max_len))]
    cs[rng.randrange(len(cs))] = rng.randrange(1, q)
    return (s, tuple(cs), None)


def rand_unit(rng, ring, val=(-2, 2)):
    p, m = ring
    lead = rng.choice([c for c in range(1, min(p**m, 64)) if c % p])
    return (rng.randint(*val), (lead, rng.randrange(p**m)), None)


def rand_bits(rng, window, nonzero=False):
    bits = [rng.randrange(2) for _ in range(window)]
    if nonzero and not any(bits):
        bits[rng.randrange(window)] = 1
    return tuple(bits)


# Spec shapes (number of coboundary terms, of parameter entries, unit
# lengths) are fixed and only their values are drawn, so that one seed's
# specs cost about what another's do.


def rand_cob_terms(rng, ring, count):
    q = modulus(ring)
    return tuple((rng.randint(-2, 2), (rng.randrange(2), (rng.randrange(1, q),), None)) for _ in range(count))


def rand_param(rng, ring, half):
    q = modulus(ring)
    indices = sorted(rng.sample(range(-half, half + 1), half + 1))
    entries = tuple((n, (rng.randrange(3), (rng.randrange(1, q), rng.randrange(q)), None)) for n in indices)
    return ("param", ring, -half, half, entries)


def rand_spec(rng, ring, kind):
    if kind == "omega":
        return ("omega", ring, rng.randint(-3, 3))
    if kind == "param":
        return rand_param(rng, ring, 3)
    if kind == "eta":
        return ("eta", ring, rand_bits(rng, 6))
    if kind == "cob":
        return ("cob", ring, rand_cob_terms(rng, ring, 2))
    return ("xform", ("eta", ring, rand_bits(rng, 6)), rand_unit(rng, ring), rand_unit(rng, ring), rand_cob_terms(rng, ring, 1))


def rand_long(rng, q, n, exact):
    """n stored residues, nonzero at both ends so canonical length is n."""
    s = rng.randint(-3, 3)
    cs = [rng.randrange(q) for _ in range(n)]
    cs[0] = rng.randrange(1, q)
    cs[-1] = rng.randrange(1, q)
    return (s, tuple(cs), None if exact else s + n + rng.randrange(3))


# -- workloads ------------------------------------------------------------------------
#
# Each workload is {"setup": ..., "queries": [...]}: "setup" holds what a user
# builds once (rings, specs, section contexts), "queries" one pass of
# closed-loop traffic in a seeded order.  The count of every query type in a
# pass is fixed; only operand values depend on the seed, so every seed gives
# the same mix.


def laws(seed):
    rng = random.Random(f"laws/{seed}")
    specs, queries = [], []
    for ring in LAWS_RINGS:
        q = modulus(ring)
        for kind in SPEC_KINDS:
            for _ in range(2):
                idx = len(specs)
                specs.append(rand_spec(rng, ring, kind))
                # ParamOmega raises WindowTooSmall on two exact operands, so its
                # operands are always truncated
                ef = 0.0 if kind == "param" else 0.2

                def ser():
                    return rand_series(rng, q, exact_frac=ef)

                queries.append(("identity", idx, tuple((ser(), ser(), ser()) for _ in range(20))))
                queries.append(
                    ("equivariance", idx, tuple((ser(), ser()) for _ in range(10)), tuple(rng.sample(range(-3, 4), 3)))
                )
                queries.append(
                    ("ext_axioms", idx, tuple(tuple((ser(), ser()) for _ in range(3)) for _ in range(10)))
                )
        for _ in range(2):
            idx = len(specs)
            specs.append(("eta", ring, rand_bits(rng, 6, nonzero=True)))
            for _ in range(3):
                queries.append(("centre", idx, (rand_series(rng, q), rand_nonzero_exact(rng, q))))
            queries.append(("centre", idx, (rand_series(rng, q), (0, (), None))))
        idx = len(specs)
        specs.append(("eta", ring, (0,) * 6))
        queries.append(("centre", idx, (rand_series(rng, q), rand_nonzero_exact(rng, q))))
        for _ in range(2):
            queries.append(("bmap", rand_param(rng, ring, 4)))
        cli_spec = rand_spec(rng, ring, rng.choice(("omega", "eta", "cob", "xform")))
        queries.append(("cli_check", cli_spec, 4, rng.randrange(10**6)))
        # the CLI calls cost about the same and sit in the middle of the
        # pass, so the median latency falls among them
        for _ in range(4):
            spec = rand_spec(rng, ring, rng.choice(("omega", "cob")))
            elems = tuple(
                (rand_series(rng, q, exact_frac=1.0), rand_series(rng, q, exact_frac=1.0)) for _ in range(2)
            )
            queries.append(("cli_ext_mul", spec, elems))
            queries.append(("cli_series_mul", ring, rand_series(rng, q), rand_series(rng, q)))
    rng.shuffle(queries)
    return {"setup": {"specs": tuple(specs)}, "queries": queries}


def _xform_eta(rng, ring, bits):
    return (
        "xform",
        ("eta", ring, bits),
        rand_unit(rng, ring, val=(-3, 3)),
        rand_unit(rng, ring, val=(-3, 3)),
        rand_cob_terms(rng, ring, 1),
    )


def _sweeps(rng, pool):
    """Sweep j compares the pool's member j with every earlier member and
    fills up to 20 pairs among members 0..j, so run in order each sweep
    recovers one new member and finds every other one cached."""
    out = []
    for j in range(1, len(pool)):
        pairs = [(pool[j], pool[i]) for i in range(j)]
        pairs += [tuple(rng.sample(pool[: j + 1], 2)) for _ in range(20 - j)]
        rng.shuffle(pairs)
        out.append(tuple(pairs))
    return out


def invariants(seed):
    rng = random.Random(f"invariants/{seed}")
    specs, queries = [], []
    for window in (16, 24, 32):
        for ring in ((2, 1), (3, 1), (5, 1), (2, 2)):
            for _ in range(3):
                specs.append(_xform_eta(rng, ring, rand_bits(rng, window, nonzero=True)))
                queries.append(("fingerprint", len(specs) - 1, window))
    # each sweep pool repeats bit windows across members, and every member
    # is looked up again and again, so about 97% of recoveries are cache hits
    sweeps = {}
    for window, patterns, per_pattern in ((16, 4, 3), (24, 3, 2), (32, 2, 2)):
        pool = []
        for _ in range(patterns):
            bits = rand_bits(rng, window, nonzero=True)
            for _ in range(per_pattern):
                specs.append(_xform_eta(rng, (2, 1), bits))
                pool.append(len(specs) - 1)
        rng.shuffle(pool)
        sweeps[window] = _sweeps(rng, pool)
        queries.extend(("sweep", window, pairs) for pairs in sweeps[window])
    contexts = (("modred", 2, 2, 1), ("modred", 3, 4, 3), ("extproj", ("eta", (2, 1), (1, 0, 1))))
    # the 27-representative context at depth 96 is the heaviest query and
    # makes up the top sixth of the pass, so the 90th latency percentile
    # falls inside its digit expansions
    for ci, upto, count in ((0, 48, 6), (0, 96, 6), (1, 48, 6), (1, 96, 15), (2, 48, 6), (2, 96, 6)):
        ctx = contexts[ci]
        q = 2 if ctx[0] == "extproj" else ctx[1] ** ctx[3]
        for _ in range(count):
            s = rng.randint(-3, 3)
            n = upto - s + 1 + rng.randrange(4)
            h = (s, tuple(rng.randrange(q) for _ in range(n)), s + n + rng.randrange(3))
            queries.append(("section", ci, h, upto))
    rng.shuffle(queries)
    # sweeps of one pool keep their order, which the cache pattern relies on
    for window, ordered in sweeps.items():
        slots = [i for i, query in enumerate(queries) if query[0] == "sweep" and query[1] == window]
        for i, pairs in zip(slots, ordered):
            queries[i] = ("sweep", window, pairs)
    return {"setup": {"specs": tuple(specs), "contexts": contexts}, "queries": queries}


def _poly_with_roots(rng, degree, inside):
    """A monic polynomial of even ``degree`` built from known roots: rational
    real roots k/4 and conjugate pairs of x^2 + b x + c with b^2 < 4c, whose
    roots have modulus sqrt(c).  Returns (a_0..a_{d-1}, all roots inside the
    unit circle, as asked).  Quarter-integer data keeps the exact Schur-Cohn
    reduction at milliseconds."""
    n_real = 2 * rng.randint(0, degree // 4)
    factors = [(Fraction(rng.randint(-3, 3), 4), Fraction(1)) for _ in range(n_real)]
    factors += [(Fraction(rng.randint(1, 3), 4), Fraction(rng.randint(-1, 1), 2), Fraction(1)) for _ in range((degree - n_real) // 2)]
    if not inside:
        # one factor moved outside the closed unit disc
        i = rng.randrange(len(factors))
        if len(factors[i]) == 2:
            factors[i] = (Fraction(rng.choice((-1, 1)) * rng.randint(5, 12), 4), Fraction(1))
        else:
            factors[i] = (Fraction(rng.randint(5, 12), 4), Fraction(rng.randint(-1, 1), 2), Fraction(1))
    rng.shuffle(factors)
    coeffs = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return tuple(coeffs[:-1]), inside


def wide(seed):
    rng = random.Random(f"wide/{seed}")
    queries = []
    for ring in WIDE_RINGS:
        q = modulus(ring)
        # a truncated operand times an exact one (n coefficients of output),
        # five of them at n = 1024 per ring: below the three n = 2048
        # products, the 1024 ones fill ranks 4 to 18 from the top of the pass,
        # so the 90th latency percentile falls inside them
        for n, count in ((1024, 5), (2048, 1)):
            for _ in range(count):
                queries.append(("mul", ring, rand_long(rng, q, n, False), rand_long(rng, q, n, True)))
        queries.append(("mul", ring, rand_long(rng, q, 256, True), rand_long(rng, q, 256, True)))
        queries.append(("mul", ring, rand_long(rng, q, 256, False), rand_long(rng, q, 256, False)))
        # operand exactness is fixed per query type and agree always scans the
        # whole window (a mismatch, if any, is in the last coefficient), so
        # a query's cost does not depend on the seed
        for n in WIDE_SIZES:
            queries.append(("add", ring, rand_long(rng, q, n, True), rand_long(rng, q, n, False)))
            queries.append(("sub", ring, rand_long(rng, q, n, False), rand_long(rng, q, n, False)))
            queries.append(("shift", ring, rand_long(rng, q, n, False), rng.randint(-5, 5)))
            x = rand_long(rng, q, n, False)
            y = (x[0], x[1][:-1] + ((x[1][-1] + rng.randrange(2)) % q,), x[2])
            queries.append(("agree", ring, x, y))
            queries.append(("roundtrip", ring, rand_long(rng, q, n, False)))
            queries.append(("omega", ring, rng.randint(-3, 3), rand_long(rng, q, n, False), rand_long(rng, q, n, True)))
        p, m = ring
        for n in (2048,):
            k = rng.randint(1, m)
            # x has order exactly p^k: every residue is divisible by p^(m-k)
            # and one is p^(m-k) times a unit
            cs = [p ** (m - k) * rng.randrange(p**k) for _ in range(3)]
            cs[rng.randrange(len(cs))] = p ** (m - k) * rng.choice([u for u in range(1, min(p**k, 64)) if u % p])
            x = (rng.randint(-2, 2), tuple(cs), None)
            queries.append(("theta", ring, x, (p, k), rand_long(rng, p**k, n, n == 2048)))
    # as many polynomials inside the unit circle as outside, and cheap
    # decompositions, so that the median falls among the n = 1024 sums
    for i in range(8):
        queries.append(("schur",) + _poly_with_roots(rng, 12, i % 2 == 0))
    for _ in range(20):
        groups = []
        for _ in range(rng.randint(3, 5)):
            primes = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
            groups.append(tuple(sorted((pr, rng.randint(1, 3)) for pr in primes)))
        queries.append(("decompose", tuple(groups)))
    rng.shuffle(queries)
    return {"setup": {"rings": WIDE_RINGS}, "queries": queries}


GENERATORS = {"laws": laws, "invariants": invariants, "wide": wide}


def generate(workload, seed):
    return GENERATORS[workload](seed)


def digest(raw):
    """SHA-256 of the generated inputs' canonical text."""
    return hashlib.sha256(repr(raw).encode()).hexdigest()
