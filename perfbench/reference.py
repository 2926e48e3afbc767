"""Expected answers, computed from the raw inputs without calling congroup.

Series are ``(start, coeffs, prec)`` triples in the canonical form the
library documents (residues reduced, leading zeros folded into ``start``,
truncated windows zero-filled up to ``prec``, exact values without trailing
zeros, the exact zero at start 0).  The arithmetic follows the precision
rules stated in the library's docstrings but is written independently: the
product uses Kronecker substitution (one big-integer multiplication) where
the library multiplies coefficient by coefficient, and sums use slices.
"""

from __future__ import annotations

from collections import Counter

from gen import modulus

ZERO = (0, (), None)


def canon(q, start, coeffs, prec):
    cs = [c % q for c in coeffs]
    if prec is None:
        while cs and cs[-1] == 0:
            cs.pop()
        lead = next((i for i, c in enumerate(cs) if c), len(cs))
        return (start + lead, tuple(cs[lead:]), None) if cs else ZERO
    if prec < start + len(cs):
        raise ValueError("window end beyond prec")
    cs.extend([0] * (prec - start - len(cs)))
    lead = next((i for i, c in enumerate(cs) if c), len(cs))
    return (start + lead, tuple(cs[lead:]), prec) if lead < len(cs) else (prec, (), prec)


def window(x, lo, hi):
    """Coefficients of x at indices lo..hi-1 (zeros outside the stored run)."""
    start, cs, _ = x
    out = [0] * max(0, hi - lo)
    a, b = max(lo, start), min(hi, start + len(cs))
    if a < b:
        out[a - lo : b - lo] = cs[a - start : b - start]
    return out


def _finite_prec(*precs):
    known = [p for p in precs if p is not None]
    return min(known) if known else None


def add(q, x, y):
    prec = _finite_prec(x[2], y[2])
    lo = min(x[0], y[0]) if prec is None else min(x[0], y[0], prec)
    hi = max(x[0] + len(x[1]), y[0] + len(y[1]), lo) if prec is None else prec
    return canon(q, lo, [a + b for a, b in zip(window(x, lo, hi), window(y, lo, hi))], prec)


def neg(q, x):
    return canon(q, x[0], [-c for c in x[1]], x[2])


def sub(q, x, y):
    return add(q, x, neg(q, y))


def shift(x, k):
    return (x[0] + k, x[1], None if x[2] is None else x[2] + k)


def _kronecker(xs, ys, q):
    """The integer coefficients of the product of two residue lists, by packing
    each list into one integer with slots wide enough to never carry."""
    if not xs or not ys:
        return []
    slot = (min(len(xs), len(ys)) * (q - 1) ** 2).bit_length() // 8 + 1
    pack = lambda cs: int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in cs), "little")
    raw = (pack(xs) * pack(ys)).to_bytes(slot * (len(xs) + len(ys)), "little")
    return [int.from_bytes(raw[i : i + slot], "little") for i in range(0, slot * (len(xs) + len(ys) - 1), slot)]


def mul(q, x, y):
    if x == ZERO or y == ZERO:
        return ZERO
    lo = x[0] + y[0]
    bounds = []
    if x[2] is not None:
        bounds.append(x[2] + y[0])
    if y[2] is not None:
        bounds.append(y[2] + x[0])
    full = _kronecker(list(x[1]), list(y[1]), q)
    if not bounds:
        return canon(q, lo, full, None)
    hi = min(bounds)
    if hi <= lo:
        return canon(q, hi, [], hi)
    return canon(q, lo, (full + [0] * (hi - lo))[: hi - lo], hi)


def omega(q, n, x, y):
    """omega_n(x, y)_i = x_i y_{i+n}, known where i < prec_x and i + n < prec_y."""
    if x == ZERO or y == ZERO:
        return ZERO
    lo = max(x[0], y[0] - n)
    prec = _finite_prec(x[2], None if y[2] is None else y[2] - n)
    hi = max(lo, min(x[0] + len(x[1]), y[0] + len(y[1]) - n)) if prec is None else prec
    if prec is not None and prec <= lo:
        return canon(q, prec, [], prec)
    return canon(q, lo, [a * b for a, b in zip(window(x, lo, hi), window(y, lo + n, hi + n))], prec)


def agree(x, y):
    prec = _finite_prec(x[2], y[2])
    if prec is None:
        return x[1] == y[1] and (x[0] == y[0] or not x[1])
    lo = min(x[0], y[0], prec)
    return window(x, lo, prec) == window(y, lo, prec)


def fmt(x):
    terms = [f"{c}*t^{x[0] + i}" for i, c in enumerate(x[1]) if c]
    if x[2] is None:
        return " + ".join(terms) if terms else "0"
    return " + ".join(terms + [f"O(t^{x[2]})"])


def valuation(x):
    return x[0] if x[1] else None


# -- spec text for the CLI ----------------------------------------------------------


def _cob_text(terms):
    return ",".join(f"{k}:{fmt(u)}" for k, u in terms)


def spec_text(spec):
    kind = spec[0]
    if kind == "omega":
        return f"omega:{spec[2]}"
    if kind == "eta":
        return "eta:" + "".join(map(str, spec[2]))
    if kind == "cob":
        return f"cob:{_cob_text(spec[2])}"
    if kind == "xform":
        text = f"xform({spec_text(spec[1])};a={fmt(spec[2])};b={fmt(spec[3])}"
        return text + (f";cob={_cob_text(spec[4])})" if spec[4] else ")")
    raise ValueError(f"no CLI text for {kind} specs")


def spec_ring(spec):
    return spec[1][1] if spec[0] == "xform" else spec[1]


def quad_cob(q, terms, x, y):
    """-sum_k u_k (omega_k(x, y) + omega_k(y, x)) for the quadratic potential."""
    acc = ZERO
    for k, u in terms:
        acc = add(q, acc, mul(q, canon(q, *u), add(q, omega(q, k, x, y), omega(q, k, y, x))))
    return neg(q, acc)


def exact_cocycle(spec, x, y):
    """Value of an omega or coboundary spec at exact operands."""
    q = modulus(spec_ring(spec))
    if spec[0] == "omega":
        return omega(q, spec[2], x, y)
    return quad_cob(q, spec[2], x, y)


# -- expected answers per query type -------------------------------------------------


def expected(query, setup):
    kind = query[0]
    specs = setup.get("specs", ())
    if kind == "identity":
        return (len(query[2]), 0)
    if kind == "equivariance":
        return (len(query[2]) * len(query[3]), 0)
    if kind == "ext_axioms":
        return (True,) * (4 * len(query[2]))
    if kind == "centre":
        bits = specs[query[1]][2]
        q = modulus(specs[query[1]][1])
        g = canon(q, *query[2][1])
        if 1 in bits and g != ZERO:
            return ("FAIL", 2 * (bits.index(1) + 1) + valuation(g))
        return ("PASS", None)
    if kind == "bmap":
        _, ring, lo, hi, entries = query[1]
        q = modulus(ring)
        planted = {n: canon(q, *s) for n, s in entries}
        return tuple(planted.get(n, ZERO) for n in range(lo, hi + 1))
    if kind == "cli_check":
        count = query[2]
        return (0, f"identity: {count} checked, 0 failed\nequivariance: {7 * count} checked, 0 failed\n")
    if kind == "cli_ext_mul":
        spec, ((a1, g1), (a2, g2)) = query[1], query[2]
        q = modulus(spec_ring(spec))
        a1, g1, a2, g2 = (canon(q, *s) for s in (a1, g1, a2, g2))
        a = add(q, add(q, a1, a2), exact_cocycle(spec, g1, g2))
        return (0, f"({fmt(a)} ; {fmt(add(q, g1, g2))})\n")
    if kind == "cli_series_mul":
        q = modulus(query[1])
        return (0, fmt(mul(q, canon(q, *query[2]), canon(q, *query[3]))) + "\n")
    if kind == "fingerprint":
        _, base, a, b, _ = specs[query[1]]
        # the valuation offset is c = v(a) + v(b) (units are stored canonical)
        return ("OK", "".join(map(str, base[2])), a[0] + b[0])
    if kind == "sweep":
        bits = lambda i: specs[i][1][2]
        return tuple("SAME_WINDOW" if bits(i) == bits(j) else "DISTINCT" for i, j in query[2])
    if kind == "section":
        ctx = setup["contexts"][query[1]]
        q_h = 2 if ctx[0] == "extproj" else ctx[1] ** ctx[3]
        h, upto = canon(q_h, *query[2]), query[3]
        # q(sigma(h)) is h cut after t^upto, exactly
        lo = min(h[0], upto + 1)
        return (canon(q_h, lo, window(h, lo, upto + 1), None), upto)
    if kind in ("mul", "add", "sub", "agree"):
        q = modulus(query[1])
        x, y = canon(q, *query[2]), canon(q, *query[3])
        return {"mul": mul, "add": add, "sub": sub, "agree": lambda q, x, y: agree(x, y)}[kind](q, x, y)
    if kind == "shift":
        return shift(canon(modulus(query[1]), *query[2]), query[3])
    if kind == "roundtrip":
        x = canon(modulus(query[1]), *query[2])
        return (fmt(x), x)
    if kind == "omega":
        q = modulus(query[1])
        return omega(q, query[2], canon(q, *query[3]), canon(q, *query[4]))
    if kind == "theta":
        q = modulus(query[1])
        x, z = canon(q, *query[2]), canon(modulus(query[3]), *query[4])
        return mul(q, z, x)
    if kind == "schur":
        return query[2]
    if kind == "decompose":
        table = Counter(f for group in query[1] for f in group)
        return tuple(sorted(table.items()))
    raise ValueError(f"unknown query type {kind}")
