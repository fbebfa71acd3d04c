"""Polynomial arithmetic, LFSR simulation, and generator plumbing.

Polynomials are ints with bit i = coefficient of X^i, so 0b1011 is
X^3 + X + 1.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from combgen import gf2, presets
from combgen.errors import ValidationError
from combgen.gf2 import (GeneratorSpec, Keystream, LfsrSpec,
                         clear_residue_cache, keystream, keystream_reference,
                         lfsr_sequence,
                         poly_degree, poly_divmod, poly_from_exponents,
                         poly_gcd, poly_is_primitive, poly_mul, poly_mulmod,
                         poly_rem, random_state, residue_powers,
                         residue_powers_reference, sequence_bits,
                         x_power_mod)
from combgen.boolfn import BooleanFunction

P3 = 0b1011        # X^3 + X + 1
P4 = 0b10011       # X^4 + X + 1


def test_poly_mul_square_of_one_plus_x():
    assert poly_mul(0b11, 0b11) == 0b101


def test_poly_mul_pentanomial_times_one_plus_x():
    # (1 + X + X^4)(1 + X) = 1 + X^2 + X^4 + X^5
    assert poly_mul(0b10011, 0b11) == 0b110101


def test_poly_mul_identity(rng):
    for _ in range(20):
        p = int(rng.integers(1, 1 << 30))
        assert poly_mul(p, 1) == p
        assert poly_mul(1, p) == p


def test_poly_mul_degree_adds(rng):
    for _ in range(50):
        a = int(rng.integers(2, 1 << 20))
        b = int(rng.integers(2, 1 << 20))
        assert poly_degree(poly_mul(a, b)) == poly_degree(a) + poly_degree(b)


def test_poly_rem_defining_relation():
    assert poly_rem(0b10000, P4) == 0b11  # X^4 = X + 1 mod X^4+X+1


def test_poly_rem_self():
    assert poly_rem(P4, P4) == 0


def test_poly_rem_of_known_product():
    assert poly_rem(0b110101, P4) == 0
    assert poly_rem(0b110101, 0b11) == 0


def test_poly_divmod_roundtrip(rng):
    for _ in range(100):
        a = int(rng.integers(0, 1 << 40))
        m = int(rng.integers(2, 1 << 12))
        q, r = poly_divmod(a, m)
        assert poly_mul(q, m) ^ r == a
        assert poly_degree(r) < poly_degree(m)


def test_poly_rem_zero_modulus_rejected():
    with pytest.raises(ZeroDivisionError):
        poly_rem(0b101, 0)


def test_modular_reduction_is_homomorphic(rng):
    for _ in range(50):
        a = int(rng.integers(0, 1 << 24))
        b = int(rng.integers(0, 1 << 24))
        m = int(rng.integers(2, 1 << 10))
        lhs = poly_rem(poly_mul(a, b), m)
        rhs = poly_rem(poly_mul(poly_rem(a, m), poly_rem(b, m)), m)
        assert lhs == rhs


def test_x_power_zero():
    assert x_power_mod(0, P3) == 1


def test_x_power_at_full_period_is_one():
    for p, l in [(P3, 3), (P4, 4), (presets.TOY_POLY_13, 13)]:
        assert poly_is_primitive(p)
        assert x_power_mod((1 << l) - 1, p) == 1


def test_x_power_five_mod_p3():
    # hand-stepping s_{t+3} = s_{t+1} + s_t from (s0, s1, s2) gives
    # s5 = s0 + s1 + s2, i.e. X^5 = X^2 + X + 1 mod X^3+X+1
    assert x_power_mod(5, P3) == 0b111


def test_x_power_is_multiplicative(rng):
    for _ in range(50):
        s = int(rng.integers(0, 1 << 20))
        t = int(rng.integers(0, 1 << 20))
        m = presets.TOY_POLY_11
        lhs = x_power_mod(s + t, m)
        rhs = poly_mulmod(x_power_mod(s, m), x_power_mod(t, m), m)
        assert lhs == rhs


def test_poly_from_exponents():
    assert poly_from_exponents([0, 1, 3]) == P3
    assert poly_from_exponents([]) == 0


def test_poly_gcd():
    assert poly_gcd(poly_mul(P3, P4), poly_mul(P3, 0b111)) == P3
    assert poly_gcd(P3, 0) == P3


def test_primitive_trinomial():
    assert poly_is_primitive(P3)


def test_square_is_not_primitive():
    assert not poly_is_primitive(0b101)  # (X+1)^2


def test_irreducible_with_small_order_is_not_primitive():
    # X^4+X^3+X^2+X+1 divides X^5 - 1, so X has order 5, not 15
    assert not poly_is_primitive(0b11111)


def test_primitive_rejects_degree_zero():
    with pytest.raises(ValidationError):
        poly_is_primitive(1)


def test_preset_polynomials_are_primitive():
    for p in [presets.TOY_POLY_13, presets.TOY_POLY_11, presets.TOY_POLY_9,
              presets.POLY_29, presets.POLY_31, presets.POLY_37]:
        assert poly_is_primitive(p)


def _order_is_maximal(p):
    """Oracle: step X**t mod p from t = 1 and see whether it first
    returns to 1 at t = 2**l - 1."""
    l = poly_degree(p)
    r = 1
    for t in range(1, 1 << l):
        r <<= 1
        if r >> l:
            r ^= p
        if r == 1:
            return t == (1 << l) - 1
    return False


def test_primitivity_equals_stepping_oracle_to_degree_10():
    counts = []
    for l in range(1, 11):
        polys = range(1 << l, 2 << l)
        fast = [poly_is_primitive(p) for p in polys]
        assert fast == [_order_is_maximal(p) for p in polys], l
        counts.append(sum(fast))
    # phi(2**l - 1) / l primitive polynomials of each degree
    assert counts == [1, 1, 2, 2, 6, 6, 18, 16, 48, 60]


def test_prime_factors_of_mersenne_numbers_multiply_back():
    for l in range(1, 65):
        m = (1 << l) - 1
        primes = gf2._prime_factors(m)
        assert primes == sorted(set(primes))
        for q in primes:
            assert gf2._is_prime(q) and m % q == 0
            while m % q == 0:
                m //= q
        assert m == 1, l


def test_primality_test_equals_a_sieve_below_2_16():
    n = 1 << 16
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for q in range(2, 256):
        if sieve[q]:
            sieve[q * q::q] = False
    assert [gf2._is_prime(k) for k in range(n)] == sieve.tolist()


def test_primality_test_rejects_strong_pseudoprimes():
    assert not gf2._is_prime(3215031751)  # strong to bases 2, 3, 5, 7
    assert not gf2._is_prime(3825123056546413051)  # strong to bases 2..23
    assert gf2._is_prime((1 << 61) - 1)
    assert gf2._prime_factors(3825123056546413051) == [149491, 747451,
                                                       34233211]


def test_prime_factors_equal_sympy():
    sympy = pytest.importorskip("sympy")
    for l in range(1, 65):
        m = (1 << l) - 1
        assert gf2._prime_factors(m) == sorted(sympy.factorint(m)), l


_NO_SYMPY_CHILD = """
import sys
sys.modules["sympy"] = None  # every import of sympy now fails
from combgen import attack, presets
from combgen.gf2 import keystream
toy, paper = presets.toy_generator(), presets.generator_29_31_37()
attack.plan(paper)
state = 0x15543210F
result = attack.run_attack(toy, keystream(toy, state, 1 << 19),
                           attack.plan(toy))
print(hex(result.state))
"""


def test_builds_plans_and_attacks_without_sympy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_CHILD],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["0x15543210f"]


@pytest.mark.parametrize("poly", [-0x211, -1])
def test_negative_polynomials_are_rejected(poly):
    # a negative int shifted right never reaches 0: it used to hang
    for call in (poly_degree, poly_is_primitive,
                 lambda p: poly_divmod(p, P3), lambda p: poly_divmod(P3, p),
                 lambda p: LfsrSpec(9, p, (0,))):
        with pytest.raises(ValidationError, match="must not be negative"):
            call(poly)


def test_residue_powers_match_square_and_multiply(rng):
    table = residue_powers(presets.TOY_POLY_9, 400)
    for t in rng.integers(0, 400, size=50):
        assert int(table[t]) == x_power_mod(int(t), presets.TOY_POLY_9)
    with pytest.raises(ValueError):
        table[0] = 99  # cached array is write-protected


# Degrees on both sides of each byte-table boundary; one sparse and one
# dense modulus per degree (residue tables do not need primitivity).
RESIDUE_DEGREES = [1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 37, 62]
RESIDUE_COUNTS = [1, 2, 3, 255, 256, 257, 1000, (1 << 16) + 3]


def residue_moduli(l):
    sparse = (1 << l) | (0x5A3C96E1D2B4F087 & ((1 << l) - 1)) | 1
    return sorted({sparse, (2 << l) - 1})


@pytest.mark.parametrize("l", RESIDUE_DEGREES)
def test_residue_powers_equal_reference_loop(l):
    for poly in residue_moduli(l):
        want = residue_powers_reference(poly, max(RESIDUE_COUNTS))
        for count in RESIDUE_COUNTS:
            clear_residue_cache()
            got = residue_powers(poly, count)
            assert got.dtype == np.min_scalar_type((1 << l) - 1)
            assert np.array_equal(got, want[:count]), (poly, count)
    clear_residue_cache()


@pytest.mark.parametrize("l", [9, 17, 31, 62])
def test_residue_powers_grow_from_cached_prefix(l, rng):
    poly = residue_moduli(l)[0]
    want = residue_powers_reference(poly, 2000)
    clear_residue_cache()
    grown = []
    # Grow by one, to exactly twice the cache, past twice, then ask for
    # less than is cached.
    for count in [300, 301, 602, 2000, 700]:
        table = residue_powers(poly, count)
        assert np.array_equal(table, want[:count]), count
        with pytest.raises(ValueError):
            table[0] = 99  # still write-protected after growth
        grown.append(table.copy())
    for t in rng.integers(0, 2000, size=20):
        assert int(grown[3][t]) == x_power_mod(int(t), poly)
    clear_residue_cache()
    for count, before in zip([300, 301, 602, 2000, 700], grown):
        assert np.array_equal(residue_powers(poly, count), before)
    clear_residue_cache()


def test_residue_powers_reject_bad_degree():
    for poly in [1, 1 << 63]:
        with pytest.raises(ValidationError):
            residue_powers(poly, 10)
        with pytest.raises(ValidationError):
            residue_powers_reference(poly, 10)


def lfsr3():
    return LfsrSpec(length=3, feedback=P3, taps=(0,))


def test_lfsr_sequence_hand_stepped():
    out = lfsr_sequence(lfsr3(), 0b001, 14)
    assert list(out) == [1, 0, 0, 1, 0, 1, 1] * 2


def test_lfsr_zero_init_stays_zero():
    assert not any(lfsr_sequence(lfsr3(), 0, 20))


def test_lfsr_bit_equals_linear_form(rng):
    spec = LfsrSpec(length=11, feedback=presets.TOY_POLY_11, taps=(0,))
    for _ in range(100):
        init = int(rng.integers(1, 1 << 11))
        t = int(rng.integers(0, 5000))
        seq = lfsr_sequence(spec, init, t + 1)
        form = x_power_mod(t, spec.feedback)
        assert seq[t] == bin(form & init).count("1") % 2


def test_sequence_bits_matches_reference_loop(rng):
    for _ in range(10):
        init = int(rng.integers(1, 1 << 9))
        fast = sequence_bits(presets.TOY_POLY_9, 9, init, 200)
        ref = lfsr_sequence(LfsrSpec(9, presets.TOY_POLY_9, (0,)), init, 200)
        assert np.array_equal(fast, np.asarray(ref, dtype=np.uint8))


def test_period_is_exactly_maximal():
    # 2^9 - 1 = 511 = 7 * 73; no proper divisor is a period
    seq = sequence_bits(presets.TOY_POLY_9, 9, 0b1, 2 * 511)
    assert np.array_equal(seq[:511], seq[511:])
    for d in (7, 73):
        assert not np.array_equal(seq[: 511 - d], seq[d:511])


def test_lfsr_spec_validation():
    with pytest.raises(ValidationError):
        LfsrSpec(length=4, feedback=P3, taps=(0,))  # degree mismatch
    with pytest.raises(ValidationError):
        LfsrSpec(length=4, feedback=0b11111, taps=(0,))  # not primitive
    with pytest.raises(ValidationError):
        LfsrSpec(length=3, feedback=P3, taps=(3,))  # tap out of range
    with pytest.raises(ValidationError):
        LfsrSpec(length=3, feedback=P3, taps=(1, 1))  # duplicate tap


def test_lfsr_spec_rejects_register_over_62_bits(monkeypatch):
    wide = (1 << 63) | 0b11  # X**63 + X + 1, primitive
    assert poly_is_primitive(wide)

    def unreached(poly):
        raise AssertionError("length must be checked before primitivity")

    monkeypatch.setattr(gf2, "poly_is_primitive", unreached)
    with pytest.raises(ValidationError, match="62-bit limit"):
        LfsrSpec(63, wide, (0,))


def test_generator_spec_validation(toy):
    lfsrs = toy.lfsrs
    with pytest.raises(ValidationError):
        GeneratorSpec(lfsrs=(lfsrs[0], lfsrs[0]), function=toy.function,
                      wiring=toy.wiring)
    with pytest.raises(ValidationError):
        GeneratorSpec(lfsrs=lfsrs, function=BooleanFunction.from_hex("0xe8"),
                      wiring=toy.wiring)  # arity 3 != 6 taps
    bad_wiring = toy.wiring[:-1] + ((0, 0),)  # reuses a tap, drops one
    with pytest.raises(ValidationError):
        GeneratorSpec(lfsrs=lfsrs, function=toy.function, wiring=bad_wiring)


def test_state_split_join_roundtrip(toy, rng):
    for _ in range(20):
        state = int(rng.integers(0, 1 << toy.m))
        assert toy.join_state(toy.split_state(state)) == state
    with pytest.raises(ValidationError):
        toy.split_state(1 << toy.m)


def test_projection_filter_reproduces_tapped_sequence():
    spec = GeneratorSpec(
        lfsrs=(LfsrSpec(4, P4, taps=(3,)),),
        function=BooleanFunction(1, [0, 1]),  # identity on 1 input
        wiring=((0, 0),))
    init = 0b1001
    ks = keystream(spec, init, 30)
    seq = lfsr_sequence(spec.lfsrs[0], init, 33)
    assert list(ks) == [seq[t + 3] for t in range(30)]


def test_constant_zero_filter(toy):
    spec = GeneratorSpec(lfsrs=toy.lfsrs,
                         function=BooleanFunction.from_hex("0x" + "0" * 16),
                         wiring=toy.wiring)
    assert not any(keystream(spec, 12345, 100))


def test_keystream_matches_reference_simulator(toy, rng):
    for _ in range(5):
        state = random_state(toy, rng)
        assert keystream(toy, state, 300) == keystream_reference(
            toy, state, 300)


def test_keystream_frozen_vector(toy):
    # first 64 bits for key 0x15543210f, computed with the plain loop
    # simulator before the vectorised path existed
    word = 0xE58964A74DAD829F
    expect = [(word >> t) & 1 for t in range(64)]
    assert list(keystream(toy, 0x15543210F, 64)) == expect


@pytest.mark.parametrize("make_spec", [presets.toy_generator,
                                       presets.generator_29_31_37])
def test_slabbed_paths_equal_oracles(make_spec, monkeypatch):
    # 7-bit slabs: every register hands its state over dozens of times
    spec = make_spec()
    state = random_state(spec, np.random.default_rng(3))
    monkeypatch.setattr(gf2, "_SLAB", 7)
    assert keystream(spec, state, 300) == keystream_reference(spec, state,
                                                              300)
    for lf, part in zip(spec.lfsrs, spec.split_state(state)):
        for count in (0, 6, 7, 8, 7 * lf.length, 200):
            assert np.array_equal(
                sequence_bits(lf.feedback, lf.length, part, count),
                lfsr_sequence(lf, part, count))


def test_keystream_caches_no_table_beyond_a_slab(toy):
    count = gf2._SLAB * 3 // 2
    clear_residue_cache()
    try:
        keystream(toy, 0x15543210F, count)
        assert gf2._residue_cache
        for lf in toy.lfsrs:
            size = gf2._residue_cache[lf.feedback].size
            assert size <= gf2._SLAB + lf.length + max(lf.taps)
    finally:
        clear_residue_cache()


@pytest.mark.parametrize("raw", [[0, 1, 2], [0, 1, 256], [0.5, 1.0],
                                 [[0, 1], [1, 0]]])
def test_keystream_bits_must_be_flat_zero_one(raw):
    with pytest.raises(ValidationError):
        Keystream(np.asarray(raw))


def test_keystream_rejects_out_of_range_state(toy):
    with pytest.raises(ValidationError):
        keystream(toy, 1 << toy.m, 10)


def test_random_state_avoids_all_zero_registers(toy, rng):
    for _ in range(20):
        state = random_state(toy, rng)
        assert all(part != 0 for part in toy.split_state(state))


TWO_TAPS = LfsrSpec(3, P3, taps=(0, 1))
AND2 = BooleanFunction(2, [0, 0, 0, 1])


@pytest.mark.parametrize("call, match", [
    (lambda toy: x_power_mod(-1, P3), "negative exponent -1"),
    (lambda toy: x_power_mod(5, 1), "modulus must have degree >= 1"),
    (lambda toy: poly_is_primitive((1 << 65) | 0b11),
     "limited to degree <= 64"),
    (lambda toy: sequence_bits(P3, 3, 8, 10),
     "initial state out of range for length 3"),
    (lambda toy: sequence_bits(P3, 4, 1, 10),
     "feedback degree does not match length"),
    (lambda toy: GeneratorSpec((), BooleanFunction(1, [0, 1]), ()),
     "need at least one register"),
    (lambda toy: GeneratorSpec((TWO_TAPS,), AND2, ((0, 0),)),
     "wiring must list every tap exactly once"),
    (lambda toy: GeneratorSpec((TWO_TAPS,), AND2, ((0, 0), (1, 0))),
     "wiring names register 1"),
    (lambda toy: GeneratorSpec((TWO_TAPS,), AND2, ((0, 0), (0, 2))),
     "wiring names tap 2 of register 0"),
    (lambda toy: toy.join_state([1, 2]), "wrong number of register states"),
    (lambda toy: toy.join_state([1 << 13, 1, 1]),
     "register state out of range"),
    (lambda toy: lfsr_sequence(TWO_TAPS, 8, 5),
     "initial state out of range for length 3"),
    (lambda toy: keystream(toy, 1, -1), "count must be nonnegative"),
], ids=["x-power-negative", "x-power-degree-0", "primitive-degree-65",
        "sequence-state", "sequence-degree", "spec-no-register",
        "spec-short-wiring", "spec-bad-register", "spec-bad-tap",
        "join-count", "join-part", "lfsr-sequence-state", "keystream-count"])
def test_input_checks_refuse(toy, call, match):
    with pytest.raises(ValidationError, match=match):
        call(toy)


def test_random_state_rerolls_a_zero_register(toy):
    class Draws:
        """Stub rng: hands out the given values in turn."""

        def __init__(self, values):
            self.values = iter(values)

        def integers(self, low, high):
            return next(self.values)

    assert toy.split_state(random_state(toy, Draws([0, 5, 0, 0, 7, 9]))) == [
        5, 7, 9]
