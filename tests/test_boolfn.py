"""Spectral analysis: Walsh, autocorrelation, and the exact
quadruple-sum probability spectrum with its brute-force oracle."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from combgen import presets
from combgen.boolfn import (BooleanFunction, autocorrelation,
                            check_p_spectrum_bounds, fwht, nonlinearity,
                            p_spectrum, p_spectrum_bruteforce,
                            random_balanced_function, resiliency_order,
                            walsh_spectrum)
from combgen.boolfn import _float_exact, _fwht_blocked
from combgen.errors import ValidationError


def parity_fn(n):
    table = [bin(x).count("1") % 2 for x in range(1 << n)]
    return BooleanFunction(n, table)


def bent4():
    table = [((x & 1) & (x >> 1 & 1)) ^ ((x >> 2 & 1) & (x >> 3 & 1))
             for x in range(16)]
    return BooleanFunction(4, table)


def majority3():
    return BooleanFunction(3, [int(bin(x).count("1") >= 2)
                               for x in range(8)])


def naive_walsh(f):
    out = []
    for y in range(1 << f.n):
        acc = 0
        for x in range(1 << f.n):
            acc += (-1) ** (int(f.table[x]) + bin(x & y).count("1"))
        out.append(acc)
    return out


# ---------------------------------------------------------------- tables


def test_from_hex_roundtrip():
    f = presets.toy_filter()
    assert BooleanFunction.from_hex(f.to_hex()) == f
    assert BooleanFunction.from_hex("0X428F4ED6F65235A2") == f


def test_from_hex_rejects_bad_lengths():
    with pytest.raises(ValidationError):
        BooleanFunction.from_hex("0xabc")  # 12 bits
    with pytest.raises(ValidationError):
        BooleanFunction.from_hex("")


def test_table_validation():
    with pytest.raises(ValidationError):
        BooleanFunction(2, [0, 1, 2, 0])
    with pytest.raises(ValidationError):
        BooleanFunction(3, [0, 1])
    f = BooleanFunction(2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        f.table[0] = 1  # frozen table


def test_call_and_weight():
    f = majority3()
    assert f.weight == 4 and f.is_balanced
    assert f(0b011) == 1 and f(0b100) == 0


# ------------------------------------------------------------------ fwht


def test_fwht_delta_gives_all_ones():
    assert fwht([1, 0, 0, 0]) == [1, 1, 1, 1]


def test_fwht_involution(rng):
    w = [int(v) for v in rng.integers(-50, 50, size=32)]
    assert fwht(fwht(list(w))) == [32 * v for v in w]


def test_fwht_list_and_array_paths_agree(rng):
    w = rng.integers(-1000, 1000, size=256).astype(np.int64)
    as_list = fwht([int(v) for v in w])
    arr = w.copy()
    fwht(arr)
    assert as_list == arr.tolist()


def test_fwht_rejects_bad_length():
    with pytest.raises(ValidationError):
        fwht([1, 2, 3])


def test_fwht_matches_naive_oracle(rng):
    k = 10
    w = rng.integers(-(1 << 16), 1 << 16, size=1 << k).astype(np.int64)
    naive = [sum(int(w[v]) * (-1) ** bin(u & v).count("1")
                 for v in range(1 << k)) for u in range(0, 1 << k, 37)]
    arr = w.copy()
    fwht(arr)
    assert [int(arr[u]) for u in range(0, 1 << k, 37)] == naive


def _fwht_butterfly(a):
    """Integer reference for the blocked path: k levels of numpy
    butterflies in a's own dtype, in place.  Exact where the list path
    is, and fast enough for the k = 23 tables that path is too slow for."""
    h = 1
    while h < a.size:
        view = a.reshape(-1, 2, h)
        x, y = view[:, 0, :], view[:, 1, :]
        diff = x - y
        x += y
        y[:] = diff
        h <<= 1
    return a


def _refused(a, bound=None):
    """fwht(a) raises ValidationError and leaves a as it was."""
    before = a.copy()
    with pytest.raises(ValidationError, match="wider signed dtype"):
        fwht(a, bound=bound)
    return np.array_equal(a, before)


def _signed_table(rng, k, dtype):
    """Random signed entries as large as the float64-exact bound allows."""
    peak = min(1 << 53, int(np.iinfo(dtype).max)) >> k
    return rng.integers(-peak, peak + 1, size=1 << k).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_fwht_blocked_equals_butterflies(rng, dtype):
    # sizes cross the radix (4, 5), the first-pass block (16, 17) and a
    # second pass of two groups (21..23)
    for k in range(24):
        a = _signed_table(rng, k, dtype)
        assert _float_exact(a)
        want = _fwht_butterfly(a.copy())
        got = a.copy()
        _fwht_blocked(got)
        assert np.array_equal(got, want), f"k={k}"


def test_fwht_blocked_equals_list_path(rng):
    for k in range(13):
        a = _signed_table(rng, k, np.int64)
        assert _float_exact(a)
        want = fwht([int(v) for v in a])
        assert fwht(a).tolist() == want, f"k={k}"


def test_fwht_beyond_float_exact_stays_exact(rng):
    # sum|a| >= 2**53: the array is refused, the list path stays exact
    size = 1 << 10
    a = (rng.integers((1 << 45) - 1000, (1 << 45) + 1000, size=size)
         * rng.choice([-1, 1], size=size)).astype(np.int64)
    assert not _float_exact(a)
    assert _refused(a)
    want = _fwht_butterfly(a.astype(object)).tolist()
    assert fwht([int(v) for v in a]) == want


def test_fwht_int32_overflow_wraps(rng):
    # a result past the int32 range is refused, not wrapped; in int64
    # the same table transforms exactly
    a = rng.integers(-(1 << 30), 1 << 30, size=1 << 12).astype(np.int32)
    exact = fwht([int(v) for v in a])
    assert max(abs(v) for v in exact) >= 1 << 31
    assert _refused(a)
    assert fwht(a.astype(np.int64)).tolist() == exact


def test_fwht_blocked_path_bounded_by_l1_norm(rng):
    # sum|a| <= 2**31 - 1 although max|a| * size = 2**42: the int32 table
    # takes the blocked path
    a = rng.integers(-1000, 1001, size=1 << 12).astype(np.int32)
    a[7] = 1 << 30
    assert int(np.abs(a.astype(np.int64)).sum()) <= (1 << 31) - 1
    want = fwht([int(v) for v in a])
    assert _float_exact(a)
    assert fwht(a).tolist() == want


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
def test_fwht_dtype_minimum_never_blocked(dtype):
    # |min| = max + 1 reaches the int8 and int32 limit; in int64 it
    # reaches 2**53 first
    a = np.zeros(8, dtype)
    a[3] = np.iinfo(dtype).min
    assert not _float_exact(a)
    assert _refused(a)


def test_fwht_transforms_in_place_and_returns_input(rng):
    base = rng.integers(-1000, 1000, size=1 << 18).astype(np.int64)
    before = base.copy()
    view = base[::2]
    assert fwht(view) is view
    assert np.array_equal(base[::2], _fwht_butterfly(before[::2].copy()))
    assert np.array_equal(base[1::2], before[1::2])
    wide = np.full(8, 1 << 60, dtype=np.int64)
    assert not _float_exact(wide)
    assert _refused(wide)


def _float32_table(rng, k, dtype):
    """Random signed entries as large as the float32-exact bound allows."""
    peak = ((1 << 24) - 1) >> k
    return rng.integers(-peak, peak + 1, size=1 << k).astype(dtype)


def test_float_exact_picks_float32_below_2_24():
    a = np.zeros(1 << 10, dtype=np.int32)
    a[5] = (1 << 24) - 1
    assert _float_exact(a) is np.float32
    a[5] = -(1 << 24) + 1
    assert _float_exact(a) is np.float32
    a[6] = 1
    assert _float_exact(a) is np.float64
    a[:] = 0
    a[-1] = 1 << 24
    assert _float_exact(a) is np.float64


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_fwht_float32_equals_butterflies(rng, dtype):
    for k in range(24):
        a = _float32_table(rng, k, dtype)
        assert _float_exact(a) is np.float32
        want = _fwht_butterfly(a.copy())
        got = a.copy()
        _fwht_blocked(got, np.float32)
        assert np.array_equal(got, want), f"k={k}"


def test_fwht_just_over_2_24_stays_exact():
    # sum|a| = 2**24 + 1, and result entry 0 is 2**24 + 1, which needs 25
    # significant bits: float32 rounds it, so the float64 path runs
    a = np.zeros(1 << 12, dtype=np.int32)
    a[0] = 1 << 24
    a[1] = 1
    want = fwht([int(v) for v in a])
    assert want[0] == (1 << 24) + 1
    assert _fwht_blocked(a.copy(), np.float32)[0] != want[0]
    assert _float_exact(a) is np.float64
    assert fwht(a).tolist() == want


@pytest.mark.parametrize("dtype, total", [
    (np.int32, (1 << 24) - 1), (np.int32, 1 << 24), (np.int32, (1 << 31) - 1),
    (np.int64, (1 << 24) - 1), (np.int64, 1 << 24), (np.int64, (1 << 53) - 1),
    (np.int64, 1 << 53)])
def test_fwht_with_a_bound_equals_without(rng, dtype, total):
    # sum|a| is exactly `total`, on either side of the float32 and float64
    # thresholds; an exact or a loose bound from the caller replaces the
    # scan and gives the same transform
    a = np.zeros(1 << 10, dtype)
    parts = np.diff([0, *sorted(rng.choice(total, 3, replace=False)), total])
    signs = rng.choice([-1, 1], parts.size)
    a[rng.choice(a.size, parts.size, replace=False)] = [
        int(s) * int(p) for s, p in zip(signs, parts)]
    assert sum(abs(int(v)) for v in a) == total
    want = fwht([int(v) for v in a])
    assert _float_exact(a, bound=total) is _float_exact(a)
    limit = min(1 << 53, int(np.iinfo(dtype).max) + 1)
    for bound in (None, total, 2 * total):
        if (total if bound is None else bound) >= limit:
            assert _refused(a.copy(), bound), bound
        else:
            assert fwht(a.copy(), bound=bound).tolist() == want, bound


@pytest.mark.parametrize("a, bound", [
    (np.ones(8, np.uint8), None),
    (np.ones(8, np.float64), None),
    (np.ones(8, np.int64), 1 << 53),
    (np.ones(8, np.int32), 1 << 31),
], ids=["uint8", "float64", "int64-bound-2^53", "int32-bound-2^31"])
def test_fwht_refuses_arrays_outside_the_exact_range(a, bound):
    # an unsigned or float dtype, or a caller's bound at the limit
    assert _refused(a, bound)


def test_float_exact_trusts_the_bound():
    # the bound stands in for sum|a| without a look at the table
    a = np.full(8, 1 << 40, dtype=np.int64)
    assert _float_exact(a) is np.float64
    assert _float_exact(a, bound=(1 << 24) - 1) is np.float32
    assert _float_exact(a, bound=1 << 53) is None
    assert _float_exact(a.astype(np.int32), bound=1 << 31) is None


def test_fwht_float32_strided_view_in_place(rng):
    base = _float32_table(rng, 19, np.int32)
    before = base.copy()
    view = base[1::2]
    assert _float_exact(view) is np.float32
    assert fwht(view) is view
    assert np.array_equal(base[1::2], _fwht_butterfly(before[1::2].copy()))
    assert np.array_equal(base[::2], before[::2])


# --------------------------------------------------------- walsh spectrum


def test_walsh_constant_function():
    w = walsh_spectrum(BooleanFunction(3, [0] * 8))
    assert w.values[0] == 8 and all(v == 0 for v in w.values[1:])


def test_walsh_linear_function():
    a = 0b101
    f = BooleanFunction(3, [bin(x & a).count("1") % 2 for x in range(8)])
    w = walsh_spectrum(f)
    assert w.values[a] == 8
    assert all(v == 0 for y, v in enumerate(w.values) if y != a)


def test_walsh_matches_naive(rng):
    for _ in range(5):
        f = BooleanFunction(4, rng.integers(0, 2, size=16))
        assert list(walsh_spectrum(f).values) == naive_walsh(f)


def test_walsh_parity_and_parseval(rng):
    for _ in range(10):
        f = BooleanFunction(5, rng.integers(0, 2, size=32))
        w = walsh_spectrum(f)
        assert sum(v * v for v in w.values) == 1 << 10
        assert all((v - 32) % 2 == 0 and abs(v) <= 32 for v in w.values)
        assert (w.values[0] == 0) == f.is_balanced


# --------------------------------------------------------- autocorrelation


def test_autocorrelation_of_bent_function_vanishes():
    ac = autocorrelation(bent4())
    assert ac.values[0] == 16
    assert ac.delta == 0
    assert all(v == 0 for v in ac.values[1:])


def test_autocorrelation_of_linear_function_is_extreme():
    ac = autocorrelation(parity_fn(4))
    assert ac.delta == 16
    assert all(abs(v) == 16 for v in ac.values)


def test_autocorrelation_matches_direct_enumeration(rng):
    for _ in range(5):
        f = BooleanFunction(5, rng.integers(0, 2, size=32))
        ac = autocorrelation(f)
        for y in range(32):
            direct = sum((-1) ** (int(f.table[x]) ^ int(f.table[x ^ y]))
                         for x in range(32))
            assert ac.values[y] == direct


# ------------------------------------------------------------- p spectrum


def test_p_spectrum_of_linear_function_is_deterministic():
    ps = p_spectrum(parity_fn(3))
    assert ps.p0 == 1
    assert all(ps.probability(x) in (0, 1) for x in range(8))


def test_p_spectrum_flat_fourth_power_equality_case():
    # a flat Walsh spectrum forces P0 = 1/2 + 2^-(n+1) exactly; only
    # unbalanced functions have one, so expect the balancedness warning
    with pytest.warns(UserWarning):
        ps = p_spectrum(bent4())
    assert ps.p0 == Fraction(17, 32)


def test_p_spectrum_matches_bruteforce(rng):
    for n in (3, 4):
        for _ in range(5):
            f = random_balanced_function(n, rng)
            assert p_spectrum(f).numerators == \
                p_spectrum_bruteforce(f).numerators


def test_p_spectrum_total_mass():
    # summing P_x * 2^(3n) over x counts every zero-parity quadruple once:
    # 2^(4n-1) + W(0)^4 / 2
    for f in (majority3(), bent4(), presets.toy_filter()):
        with pytest.warns(UserWarning) if not f.is_balanced else \
                _no_warning():
            ps = p_spectrum(f)
        w0 = walsh_spectrum(f).values[0]
        assert sum(ps.numerators) == (1 << (4 * f.n - 1)) + w0 ** 4 // 2


def test_bruteforce_rejects_large_arity():
    with pytest.raises(ValidationError):
        p_spectrum_bruteforce(presets.resilient_filter_9())


def test_bounds_hold_on_random_balanced(rng):
    for n in (3, 4, 5):
        for _ in range(10):
            rep = check_p_spectrum_bounds(random_balanced_function(n, rng))
            assert rep.ok
            assert rep.p0 >= rep.p0_bound
            assert rep.min_gap >= rep.gap_bound


# ------------------------------------------------- resiliency, nonlinearity


def test_resiliency_of_linear_function():
    assert resiliency_order(parity_fn(3)) == 2


def test_resiliency_of_majority():
    assert resiliency_order(majority3()) == 0


def test_resiliency_of_unbalanced_is_minus_one():
    assert resiliency_order(BooleanFunction(3, [0] * 8)) == -1


def test_nonlinearity_values():
    assert nonlinearity(parity_fn(4)) == 0
    assert nonlinearity(bent4()) == 6


def test_nonlinearity_matches_affine_distance(rng):
    f = BooleanFunction(5, rng.integers(0, 2, size=32))
    best = 32
    for a in range(32):
        for c in (0, 1):
            dist = sum(int(f.table[x]) != (bin(x & a).count("1") + c) % 2
                       for x in range(32))
            best = min(best, dist)
    assert nonlinearity(f) == best


def test_random_balanced_function_is_balanced_and_seeded():
    a = random_balanced_function(5, np.random.default_rng(11))
    b = random_balanced_function(5, np.random.default_rng(11))
    assert a == b and a.is_balanced


# ------------------------------------------------------------ the presets


def test_toy_filter_profile():
    f = presets.toy_filter()
    assert f.n == 6 and f.is_balanced
    assert resiliency_order(f) == 1
    assert nonlinearity(f) == 24
    assert autocorrelation(f).delta == 24
    assert p_spectrum(f).p0 == Fraction(1, 2) + Fraction(43, 2 ** 11)


def test_resilient_filter_9_profile():
    f = presets.resilient_filter_9()
    assert f.n == 9 and f.is_balanced
    assert resiliency_order(f) == 3
    assert nonlinearity(f) == 224
    assert autocorrelation(f).delta == 256
    ps = p_spectrum(f)
    assert ps.p0 == Fraction(1, 2) + Fraction(1, 128)
    assert set(abs(v) for v in walsh_spectrum(f).values) == {0, 64}


def test_resilient_filter_9_is_flat_on_pure_high_block_shifts():
    # inputs 6..8 feed the first attacked register; a candidate that is
    # wrong only there must see an exactly unbiased relation sum
    ps = p_spectrum(presets.resilient_filter_9())
    for delta in range(1, 8):
        assert ps.probability(delta << 6) == Fraction(1, 2)


class _no_warning:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("call, match", [
    (lambda: fwht(np.zeros((2, 2), dtype=np.int64)),
     "expected a one-dimensional array"),
    (lambda: BooleanFunction(0, [0]), "bad arity 0"),
    (lambda: BooleanFunction.from_hex("0xzz"), "bad hex truth table"),
    (lambda: autocorrelation(BooleanFunction(21, np.zeros(1 << 21,
                                                          np.uint8))),
     "autocorrelation supported up to n = 20"),
    (lambda: random_balanced_function(0, np.random.default_rng(0)),
     "need n >= 1"),
], ids=["fwht-2d", "arity-0", "hex-digits", "autocorrelation-n-21",
        "random-n-0"])
def test_input_checks_refuse(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
