"""Bit recovery from delta profiles: plain eta specs, transformed specs,
offset behavior, and window comparison."""

import random

import pytest

from congroup.cocycles import BasisOmega, BitSeq, Eta, Transformed
from congroup.errors import SpecMismatch, WindowTooSmall
from congroup.fingerprint import (
    delta_profile,
    equivalent_on_window,
    fingerprint,
    recover_bits,
)
from congroup.selftest import rand_bits, rand_cob_terms, rand_unit
from congroup.series import Modulus, make_series, one_term

F2 = Modulus(2)
F3 = Modulus(3)


class TestDeltaProfile:
    def test_plain_eta(self):
        spec = Eta(F2, BitSeq((1, 0, 0)))
        prof = delta_profile(spec, 3)
        e1, e2, e3 = prof.entries
        assert e1.exact and e1.value == 1
        assert not e2.exact and e2.value >= 3
        assert not e3.exact and e3.value >= 3

    def test_zero_bits_all_bounds(self):
        spec = Eta(F3, BitSeq((0, 0, 0, 0)))
        prof = delta_profile(spec, 4)
        assert all(not e.exact for e in prof.entries)

    def test_transformed_alignment(self):
        unit = make_series(F2, 0, [1, 1])
        spec = Transformed(Eta(F2, BitSeq((1, 0, 1))), unit, unit, ((0, one_term(F2, 0)),))
        prof = delta_profile(spec, 3)
        finite = {e.m: e.value for e in prof.entries if e.exact}
        assert set(finite) == {1, 3}
        assert finite[1] - 1 == finite[3] - 3 == 0  # |a| = |b| = 1

    def test_budget_enforced(self):
        spec = Eta(F2, BitSeq((1, 0)))
        with pytest.raises(WindowTooSmall):
            delta_profile(spec, 2, precision_budget=10)
        delta_profile(spec, 2, precision_budget=3)

    def test_family_guard(self):
        with pytest.raises(SpecMismatch):
            delta_profile(BasisOmega(F2, 1), 2)

    def test_first_set_bit_floor(self):
        # every exhibited delta_m obeys v >= n0 (+ offset 0 for plain eta)
        rng = random.Random(80)
        for _ in range(30):
            s = rand_bits(rng, 6)
            n0 = s.first_set
            if n0 is None:
                continue
            prof = delta_profile(Eta(F2, s), 6)
            for e in prof.entries:
                assert e.value >= n0

    def test_random_probes_cross_check(self):
        # recovery is probe-independent: randomized |x|=1, |y|=p^-2m pairs
        # yield the same offset and bits as the canonical probes
        rng = random.Random(81)
        for _ in range(20):
            s = rand_bits(rng, 5)
            spec = Transformed(
                Eta(F3, s), rand_unit(rng, F3, val_range=(-2, 3)), rand_unit(rng, F3, val_range=(-2, 3)), ()
            )
            canonical = recover_bits(delta_profile(spec, 5))
            randomized = recover_bits(delta_profile(spec, 5, probes=random.Random(123), trials=3))
            assert canonical.status == randomized.status
            assert canonical.offset == randomized.offset
            assert canonical.bits == randomized.bits


class TestRecoverBits:
    def test_clean_eta(self):
        got, _ = fingerprint(Eta(F2, BitSeq((1, 1, 0, 1))), 4)
        assert got.status == "OK" and got.offset == 0
        assert got.bits == BitSeq((1, 1, 0, 1))

    def test_abelian_candidate(self):
        got, _ = fingerprint(Eta(F2, BitSeq((0, 0, 0))), 3)
        assert got.status == "ABELIAN_CANDIDATE"

    def test_offset_scaling(self):
        # replacing a by t^j a moves c by j, bits unchanged
        rng = random.Random(82)
        s = BitSeq((1, 0, 1, 1))
        base = Eta(F2, s)
        u = one_term(F2, 0)
        for j in (-2, 0, 3):
            spec = Transformed(base, one_term(F2, j), u, ())
            got, _ = fingerprint(spec, 4)
            assert got.status == "OK" and got.offset == j and got.bits == s

    def test_offset_from_both_units(self):
        s = BitSeq((0, 1))
        spec = Transformed(Eta(F3, s), one_term(F3, 1), make_series(F3, 1, [2, 1]), ())
        got, _ = fingerprint(spec, 2)
        assert got.status == "OK" and got.offset == 2 and got.bits == s

    def test_transform_invariance(self):
        rng = random.Random(83)
        for _ in range(60):
            ring = rng.choice([F2, F3])
            s = rand_bits(rng, 8)
            spec = Transformed(
                Eta(ring, s),
                rand_unit(rng, ring, val_range=(-2, 3)),
                rand_unit(rng, ring, val_range=(-2, 3)),
                rand_cob_terms(rng, ring, max_terms=3),
            )
            got, _ = fingerprint(spec, 8)
            if s.first_set is None:
                assert got.status == "ABELIAN_CANDIDATE"
            else:
                assert got.status == "OK" and got.bits == s

    def test_zero_bit_soundness(self):
        # whenever a 0 is emitted the certified bound excludes v - m = c
        rng = random.Random(84)
        for _ in range(40):
            s = rand_bits(rng, 6)
            if s.first_set is None:
                continue
            spec = Transformed(
                Eta(F2, s), rand_unit(rng, F2, val_range=(-2, 3)), rand_unit(rng, F2, val_range=(-2, 3)), ()
            )
            got, prof = fingerprint(spec, 6)
            assert got.status == "OK"
            for e, bit in zip(prof.entries, got.bits.bits):
                if bit == 0:
                    assert e.certifies_at_least(got.offset + e.m + 1)

    def test_insufficient_precision_named(self):
        prof_entries = delta_profile(Eta(F2, BitSeq((1, 1))), 2).entries
        # degrade the second entry's certification below what bit 2 needs
        from congroup.fingerprint import DeltaProfile, ProfileEntry

        weak = DeltaProfile(F2, 2, (prof_entries[0], ProfileEntry(2, False, 1)))
        got = recover_bits(weak)
        assert got.status == "INSUFFICIENT_PRECISION" and "bit 2" in got.detail


class TestEquivalence:
    def test_distinct_bits(self):
        v = equivalent_on_window(Eta(F2, BitSeq((1, 0))), Eta(F2, BitSeq((0, 1))), 2)
        assert v.verdict == "DISTINCT"

    def test_transform_same_window(self):
        rng = random.Random(85)
        s = rand_bits(rng, 5)
        base = Eta(F2, s)
        a, b = rand_unit(rng, F2, val_range=(-2, 3)), rand_unit(rng, F2, val_range=(-2, 3))
        spec = Transformed(base, a, b, rand_cob_terms(rng, F2))
        assert equivalent_on_window(base, spec, 5).verdict == "SAME_WINDOW"

    def test_self_comparison(self):
        s = Eta(F3, BitSeq((1, 1, 0)))
        assert equivalent_on_window(s, s, 3).verdict == "SAME_WINDOW"

    def test_zero_vs_zero(self):
        a = Eta(F2, BitSeq((0, 0)))
        b = Transformed(Eta(F2, BitSeq((0, 0))), one_term(F2, 1), one_term(F2, 0), ())
        assert equivalent_on_window(a, b, 2).verdict == "SAME_WINDOW"

    def test_json_shape(self):
        got, prof = fingerprint(Eta(F2, BitSeq((1, 0, 1))), 3)
        blob = got.to_json()
        assert blob["format"] == 1 and blob["bits"] == "101" and blob["c"] == 0
        assert prof.to_json()["profile"][0] == {"m": 1, "v": 1}
