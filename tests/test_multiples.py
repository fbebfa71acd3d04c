"""Weight-4 multiple search: collision scan vs cubic enumeration."""

import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from combgen import attack, multiples, presets
from combgen.errors import ValidationError
from combgen.gf2 import LfsrSpec, poly_is_primitive, poly_mul, poly_rem
from combgen.multiples import (Weight4Multiple, expected_count, find_weight4,
                               find_weight4_bruteforce, product_modulus,
                               verify_multiple)

P3 = 0b1011
P4 = 0b10011


def test_weight4_multiple_validation():
    m = Weight4Multiple(2, 4, 5)
    assert m.poly == 0b110101
    assert m.degree == 5
    assert m.shifts == (0, 2, 4, 5)
    for bad in [(0, 1, 2), (2, 2, 3), (3, 2, 5)]:
        with pytest.raises(ValidationError):
            Weight4Multiple(*bad)


def test_product_modulus_singleton():
    assert product_modulus([P3]) == P3


def test_product_modulus_of_two(toy):
    prod = product_modulus([P3, P4])
    assert prod == poly_mul(P3, P4)
    assert poly_rem(prod, P3) == 0 and poly_rem(prod, P4) == 0
    # also accepts LfsrSpec objects
    assert product_modulus(toy.lfsrs[1:]) == poly_mul(
        presets.TOY_POLY_11, presets.TOY_POLY_9)


def test_product_modulus_rejects_common_factor():
    with pytest.raises(ValidationError):
        product_modulus([P3, P3])
    with pytest.raises(ValidationError):
        product_modulus([poly_mul(P3, P4), P4])


def test_expected_count_formula():
    assert expected_count(20, 1 << 8) == Fraction(8, 3)
    assert expected_count(68, 1 << 25) == Fraction(64, 3)
    d_min = round((6 * 2 ** 20) ** (1 / 3))
    assert 0.9 < float(expected_count(20, d_min)) < 1.1


def test_verify_multiple():
    assert verify_multiple(Weight4Multiple(2, 4, 5), [P4])
    assert not verify_multiple(Weight4Multiple(1, 2, 3), [P4])
    assert verify_multiple(Weight4Multiple(2, 3, 4), [P3])
    assert not verify_multiple(Weight4Multiple(2, 3, 4), [P3, P4])


def test_find_weight4_toy_pentanomial():
    report = find_weight4(P4, 6)
    assert Weight4Multiple(2, 4, 5) in report.found


def test_find_weight4_equals_exhaustive_for_p3():
    report = find_weight4(P3, 7)
    brute = find_weight4_bruteforce(P3, 7)
    expected = {(2, 3, 4), (1, 2, 5), (1, 4, 6), (3, 5, 6)}
    assert {(m.t1, m.t2, m.t3) for m in report.found} == expected
    assert report.found == brute.found


def test_find_weight4_soundness(rng):
    modulus = product_modulus([presets.TOY_POLY_11, presets.TOY_POLY_9])
    report = find_weight4(modulus, 300)
    assert report.count > 0
    for m in report.found:
        assert verify_multiple(m, [presets.TOY_POLY_11, presets.TOY_POLY_9])
        assert m.t3 <= 300


def test_find_weight4_report_is_sorted():
    report = find_weight4(presets.TOY_POLY_13, 400)
    order = [(m.t3, m.t2, m.t1) for m in report.found]
    assert order == sorted(order)
    assert report.expected == expected_count(13, 400)


def test_weight4_multiples_sort_in_degree_order():
    assert sorted([Weight4Multiple(1, 5, 9), Weight4Multiple(2, 3, 8)]) == [
        Weight4Multiple(2, 3, 8), Weight4Multiple(1, 5, 9)]
    assert sorted([Weight4Multiple(2, 5, 9), Weight4Multiple(3, 4, 9),
                   Weight4Multiple(1, 5, 9)]) == [
        Weight4Multiple(3, 4, 9), Weight4Multiple(1, 5, 9),
        Weight4Multiple(2, 5, 9)]


@pytest.mark.parametrize("search", [find_weight4, find_weight4_bruteforce])
def test_weight4_search_rejects_negative_modulus(search):
    with pytest.raises(ValidationError, match="negative"):
        search(-0x201b, 300)


def test_find_weight4_limit():
    full = find_weight4(presets.TOY_POLY_13, 400)
    assert full.count > 3
    cut = find_weight4(presets.TOY_POLY_13, 400, limit=3)
    assert cut.found == full.found[:3]
    with pytest.raises(ValidationError, match="limit"):
        find_weight4(presets.TOY_POLY_13, 400, limit=-1)


def test_find_weight4_below_minimum_degree_is_empty():
    report = find_weight4(product_modulus([presets.TOY_POLY_13,
                                           presets.TOY_POLY_11]), 40)
    assert report.count == 0
    assert report.expected < 1


def test_find_weight4_rejects_bound_beyond_period():
    # X has order 127 modulo this degree-7 modulus; residues repeat past
    # that and the collision scan would return garbage
    with pytest.raises(ValidationError):
        find_weight4(0x89, 400)


def test_find_weight4_rejects_even_modulus():
    with pytest.raises(ValidationError):
        find_weight4(0b110, 10)


WIDE_MODULUS = (1 << 63) | 0b11  # X**63 + X + 1


@pytest.mark.parametrize("search", [
    lambda: find_weight4(WIDE_MODULUS, 1 << 14),
    lambda: find_weight4_bruteforce(WIDE_MODULUS, 512),
    lambda: attack.search_stage_multiples(
        presets.generator_29_31_37(),
        attack.plan(presets.generator_29_31_37(), (0, 1, 2)).stages[0],
        1 << 25),
], ids=["find_weight4", "bruteforce", "search_stage_multiples"])
def test_search_rejects_modulus_over_62_bits_before_work(search):
    # the limit holds before any residue or candidate is computed
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="62-bit limit.*--multiples"):
        search()
    assert time.perf_counter() - t0 < 1.0


def test_scan_at_the_62_bit_edge_finds_a_planted_multiple():
    planted = Weight4Multiple(5, 17, 62)
    report = find_weight4(planted.poly, 100)
    assert planted in report.found
    assert report.found == find_weight4_bruteforce(planted.poly, 100).found


def test_bruteforce_guard():
    with pytest.raises(ValidationError):
        find_weight4_bruteforce(P3, 1000)


def test_large_product_multiple_from_preset():
    m = presets.LARGE_MULTIPLE_31_37
    assert verify_multiple(m, [presets.POLY_31, presets.POLY_37])
    assert not verify_multiple(m, [presets.POLY_29])


def test_squaring_chain_multiples_verify():
    chain = presets.large_multiples_31_37(120000)
    assert len(chain) >= 4
    degrees = [m.t3 for m in chain]
    assert degrees == sorted(degrees)
    for m in chain:
        assert verify_multiple(m, [presets.POLY_31, presets.POLY_37])


def _random_primitive(degree, rng):
    while True:
        cand = (1 << degree) | int(rng.integers(0, 1 << (degree - 1))) << 1 | 1
        if poly_is_primitive(cand):
            return cand


@pytest.fixture(scope="module")
def random_searches():
    """(modulus, bound, brute-force multiples) for 60 primitives of degree
    5-14 and 40 products of two primitives of distinct degrees, summing
    to at most 20.  Bounds are log-uniform in 8..256, every 50th is 512,
    and none passes the period of X."""
    rng = np.random.default_rng(0x5CA7)
    cases = []
    for i in range(100):
        if i < 60:
            deg = int(rng.integers(5, 15))
            modulus, period = _random_primitive(deg, rng), (1 << deg) - 1
        else:
            d1 = int(rng.integers(3, 10))
            d2 = int(rng.integers(d1 + 1, 21 - d1))
            modulus = poly_mul(_random_primitive(d1, rng),
                               _random_primitive(d2, rng))
            period = lcm((1 << d1) - 1, (1 << d2) - 1)
        bound = 512 if i % 50 == 0 else int(2 ** rng.uniform(3, 8))
        bound = min(bound, period)
        cases.append((modulus, bound,
                      find_weight4_bruteforce(modulus, bound).found))
    return cases


def test_find_weight4_equals_bruteforce_on_random_moduli(random_searches):
    for modulus, bound, found in random_searches:
        assert find_weight4(modulus, bound).found == found, hex(modulus)
    assert sum(len(found) for _, _, found in random_searches) > 100


def test_find_weight4_equals_bruteforce_with_a_shrunk_table(
        random_searches, monkeypatch):
    # 2**(bound.bit_length() - 3) slots, under a quarter of the bound: most
    # residues lose their slot and go through the leftover scan
    monkeypatch.setattr(multiples, "_SPARE_BITS", -3)
    sizes = []
    scan = multiples._collision_scan

    def recorded(residues, bound, *rest):
        sizes.append(bound)
        return scan(residues, bound, *rest)

    monkeypatch.setattr(multiples, "_collision_scan", recorded)
    for modulus, bound, found in random_searches:
        sizes.clear()
        assert find_weight4(modulus, bound).found == found, hex(modulus)
        assert sizes[0] == bound and sizes[1] >= bound * 3 // 4
