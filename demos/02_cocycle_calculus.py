"""The biadditive shift-equivariant cocycles on F_p((t)) and their
parametrization by two-sided sequences.

omega_n pairs coefficient i of x with coefficient i+n of y; every
equivariant biadditive cocycle is a convergent combination sum a_n omega_n,
and probing at (t^0, t^m) reads the parameter sequence back off."""

import random

from congroup import (
    BasisOmega,
    BitSeq,
    Eta,
    Modulus,
    ParamOmega,
    ParamSeq,
    b_map,
    check_cocycle_identity,
    check_equivariance,
    evaluate,
    make_series,
    parse,
)
from congroup.series import one_term

F2 = Modulus(2)

# the basis cocycles: omega_n(t^0, t^j) is 1 exactly at j = n
w1 = BasisOmega(F2, 1)
print("omega_1(t^0, t^1) =", evaluate(w1, one_term(F2, 0), one_term(F2, 1)))
print("omega_1(t^0, t^2) =", evaluate(w1, one_term(F2, 0), one_term(F2, 2)))
print("omega_1(1+t, t+t^2) =", evaluate(w1, parse(F2, "1*t^0 + 1*t^1"), parse(F2, "1*t^1 + 1*t^2")))

# a parametrized cocycle and its probe sequence
a = ParamSeq.from_dict(F2, (-3, 3), {-1: one_term(F2, 2), 2: parse(F2, "1*t^0 + 1*t^1")})
wa = ParamOmega(a)
back = b_map(wa, (-3, 3))
print("b_map recovers the parameters:", all(back.entry(n) == a.entry(n) for n in range(-3, 4)))

# eta specs are the parameter sequences a_{2n} = s_n t^n; evaluate raises
# WindowTooSmall when the bit window cannot reach the first degree (here
# m = 7 would need s_4), and warns EmptyWindowWarning for a zero known only
# below some t^P (m = 5 gives O(t^4))
eta = Eta(F2, BitSeq((1, 0, 1)))
for m in range(1, 7):
    print(f"  eta(t^0, t^{m}) =", evaluate(eta, one_term(F2, 0), one_term(F2, m)))

# the cocycle identity and equivariance hold exactly, checked in batch
rng = random.Random(1)


def rand(ring):
    start = rng.randrange(-2, 2)
    cs = [rng.randrange(ring.q) for _ in range(rng.randrange(0, 5))]
    return make_series(ring, start, cs, start + len(cs) + rng.randrange(0, 3))


triples = [(rand(F2), rand(F2), rand(F2)) for _ in range(200)]
print("identity report:", check_cocycle_identity(eta, triples).to_json())
print("equivariance report:", check_equivariance(eta, [(x, y) for x, y, _ in triples], range(-2, 3)).to_json())
