"""Acceptance gate: every release-blocking check in one place.

Each test pins one end-to-end claim (exactness against an oracle, a
statistical tolerance, or a planning figure) and prints a one-line
summary.  Unit-level coverage lives in the other test files; nothing
here should be the only test of a code path.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import combgen
from combgen import attack, fileio, gf2, presets
from combgen.boolfn import (BooleanFunction, check_p_spectrum_bounds, fwht,
                            p_spectrum, p_spectrum_bruteforce,
                            random_balanced_function)
from combgen.cli import _balanced_tables_3, main
from combgen.errors import AttackExhaustedError
from combgen.gf2 import (GeneratorSpec, LfsrSpec, keystream,
                         poly_is_primitive, poly_mul, random_state)
from combgen.multiples import (expected_count, find_weight4,
                               find_weight4_bruteforce, product_modulus,
                               verify_multiple)


def _function_sweep():
    """All 70 balanced 3-variable functions plus 100 seeded random
    balanced ones at each n in {3, 4, 5}."""
    funcs = list(_balanced_tables_3())
    rng = np.random.default_rng(0xBA1A)
    for n in (3, 4, 5):
        funcs.extend(random_balanced_function(n, rng) for _ in range(100))
    return funcs


def _random_primitive(degree, rng, avoid=()):
    while True:
        middle = int(rng.integers(0, 1 << (degree - 1)))
        cand = (1 << degree) | (middle << 1) | 1
        if cand not in avoid and poly_is_primitive(cand):
            return cand


def test_01_probability_spectrum_matches_bruteforce():
    t0 = time.perf_counter()
    funcs = _function_sweep()
    for f in funcs:
        fast = p_spectrum(f)
        slow = p_spectrum_bruteforce(f)
        assert fast.n == slow.n
        assert fast.numerators == slow.numerators
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"check 01 PASS: spectrum == bruteforce on {len(funcs)} "
          f"functions (n=3/4/5), exact, {elapsed:.2f}s")


def test_02_probability_bounds_never_violated():
    funcs = _function_sweep()
    violations = 0
    for f in funcs:
        rep = check_p_spectrum_bounds(f)
        if not (rep.p0 >= rep.p0_bound and rep.min_gap >= rep.gap_bound):
            violations += 1
    assert violations == 0
    print(f"check 02 PASS: floor and gap bounds hold on {len(funcs)} "
          f"functions, exact rational comparison, 0 violations")


def _dense_transform(tables):
    """Oracle transform: explicit sign matrix times the value vector.

    Batched over rows of `tables` so the sign blocks are built once per
    size.  Exact: |entries| <= 2**34 fits float64 integers.
    """
    size = tables.shape[1]
    u = np.arange(size, dtype=np.uint64)
    vals = tables.T.astype(np.float64)
    out = np.empty(tables.shape, dtype=np.int64)
    block = max(1, min(size, (1 << 24) // size))
    for lo in range(0, size, block):
        rows = u[lo:lo + block, None] & u[None, :]
        signs = 1.0 - 2.0 * (np.bitwise_count(rows) & np.uint64(1))
        out[:, lo:lo + block] = np.rint(signs @ vals).astype(np.int64).T
    return out


def test_03_transform_matches_dense_oracle():
    # the time bound covers the fwht calls only: the dense oracle is
    # quadratic and its run time says nothing about the transform
    elapsed = 0.0
    rng = np.random.default_rng(0xF417)
    for k in range(1, 15):
        tables = rng.integers(-(1 << 20), 1 << 20,
                              size=(20, 1 << k)).astype(np.int64)
        expect = _dense_transform(tables)
        for i in range(tables.shape[0]):
            got = tables[i].copy()
            t0 = time.perf_counter()
            fwht(got)
            elapsed += time.perf_counter() - t0
            assert np.array_equal(got, expect[i]), f"mismatch at k={k}"
    assert elapsed < 1.0
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for k in range(1, 9):
        size = 1 << k
        u = np.arange(size, dtype=np.uint32)
        parity = (np.bitwise_count(u[:, None] & u[None, :]) & 1)
        signs = 1 - 2 * parity.astype(np.int8)
        assert np.array_equal(scipy_linalg.hadamard(size, dtype=np.int64),
                              signs.astype(np.int64))
    print(f"check 03 PASS: fwht == dense transform, 20 tables at each "
          f"k=1..14, exact, fwht {elapsed:.2f}s (+ hadamard cross-check)")


def test_04_multiple_search_sound_and_complete():
    rng = np.random.default_rng(0x4ACC)
    degrees = [8, 9, 10, 11, 12, 13, 14, 9, 11, 13]
    count = 0
    for deg in degrees:
        mod = _random_primitive(deg, rng)
        fast = find_weight4(mod, 128)
        slow = find_weight4_bruteforce(mod, 128)
        assert fast.found == slow.found, hex(mod)
        for m in fast.found:
            assert verify_multiple(m, [mod])
        count += fast.count
    print(f"check 04 PASS: collision scan == cubic enumeration on "
          f"{len(degrees)} moduli (degree <= 14), {count} multiples, "
          f"all verified")


def test_05_density_heuristic_within_factor_two():
    rng = np.random.default_rng(0x5EED5)
    observed = 0
    expected = 0.0
    products = 20
    for i in range(products):
        m2 = 14 + (i % 7)
        d1 = m2 // 2
        p1 = _random_primitive(d1, rng)
        p2 = _random_primitive(m2 - d1, rng, avoid=(p1,))
        bound = round((48 << m2) ** (1 / 3))  # expected count near 8
        rep = find_weight4(poly_mul(p1, p2), bound)
        observed += rep.count
        expected += float(expected_count(m2, bound))
    ratio = observed / expected
    assert 0.5 <= ratio <= 2.0
    print(f"check 05 PASS: {products} coprime products (m2 in 14..20), "
          f"mean count {observed / products:.2f} vs heuristic "
          f"{expected / products:.2f}, ratio {ratio:.3f}")


def _scoring_stage_12():
    """Two-register generator whose first register has 12 state bits and
    two wired taps, plus >= 10**4 harvested relations."""
    table = [(x & 1) ^ (((x >> 1) & (x >> 2)) & 1) ^ ((x >> 3) & 1)
             for x in range(16)]
    spec = GeneratorSpec(
        lfsrs=(LfsrSpec(12, 0x1053, (3, 10)),
               LfsrSpec(9, presets.TOY_POLY_9, (2, 7))),
        function=BooleanFunction(4, table),
        wiring=((0, 0), (0, 1), (1, 0), (1, 1)),
    )
    ks = keystream(spec, 0x15A1E3, 1 << 15)
    mults = find_weight4(presets.TOY_POLY_9, 505, limit=40).found
    eqs = attack.harvest_equations(ks, mults, max_equations=12000)
    return spec, eqs


def test_06_scoring_paths_agree_exactly():
    spec, eqs = _scoring_stage_12()
    assert eqs.total >= 10 ** 4
    lf, taps = attack._target(spec, 0)
    m1, n1 = lf.length, len(taps)
    assert m1 == 12 and n1 == 2
    size = 1 << m1
    tables = attack._fill_tables(attack.iter_column_chunks(spec, 0, eqs),
                                 n1, m1, eqs.class_counts)
    for w in tables:
        t = w.astype(np.int64)
        fwht(t)
        assert not np.any(t & ((1 << n1) - 1))
    n0_ref, n1_ref = attack.candidate_counts_naive(spec, 0, eqs)
    ranked_ref = attack.score_candidates_naive(spec, 0, eqs, top_k=size)
    assert sorted(c.candidate for c in ranked_ref) == list(range(size))
    for c in ranked_ref:
        assert (c.n0, c.n1) == (n0_ref[c.candidate], n1_ref[c.candidate])
    for s in (0, 4, 12):
        ranked = attack.score_stage(spec, 0, eqs, top_k=size, split_bits=s)
        assert ranked == ranked_ref, f"split={s}"
    print(f"check 06 PASS: streaming scorer at splits 0/4/12 == naive on "
          f"all {size} candidates, {eqs.total} relations, counts divisible "
          f"by 2**{n1}")


@pytest.mark.slow
def test_07_toy_recovery_nine_of_ten(toy):
    ap = attack.plan(toy, (0, 1, 2))
    length = 1 << 19
    mults = {idx: list(attack.search_stage_multiples(toy, ap.stages[idx],
                                                     length)[1])
             for idx in (0, 1)}
    expected_bias = float(2 * (p_spectrum(toy.function).p0 - Fraction(1, 2)))
    rng = np.random.default_rng(0xACCE55)
    wins = 0
    for trial in range(10):
        state = random_state(toy, rng)
        ks = keystream(toy, state, length)
        t0 = time.perf_counter()
        try:
            result = attack.run_attack(toy, ks, ap, multiples=mults, top_k=8)
        except AttackExhaustedError:
            continue
        assert time.perf_counter() - t0 < 120.0
        if result.state != state:
            continue
        wins += 1
        true0 = toy.split_state(state)[0]
        hit = [c for c in result.reports[0].candidates
               if c.candidate == true0]
        assert hit, "recovered without ranking the true first-stage value"
        sigma = 1.0 / math.sqrt(hit[0].total)
        assert abs(hit[0].bias - expected_bias) <= 4 * sigma
    assert wins >= 9
    print(f"check 07 PASS: {wins}/10 exact 33-bit recoveries from 2**19 "
          f"bits, stage-1 bias within 4 sigma of {expected_bias}")


def test_08_full_size_planning_figures(tmp_path, capsys):
    spec = presets.generator_29_31_37()
    rows = dict(attack.plan(spec).orderings)
    first = rows[(0, 1, 2)]
    assert round(math.log2(first.equations_required), 2) == 26.86
    mb_306 = 3.06 * (1 << 20) * 8
    assert 0.5 <= first.keystream_estimate / mb_306 <= 2.0
    swapped = rows[(2, 0, 1)]
    kb_985 = 985 * (1 << 10) * 8
    assert 0.5 <= swapped.keystream_estimate / kb_985 <= 2.0
    assert swapped.equations_required != first.equations_required

    path = tmp_path / "full.json"
    fileio.save_generator_spec(path, spec)
    assert main(["attack", "--spec", str(path), "--plan-only"]) == 0
    out = capsys.readouterr().out
    assert "2^26.86" in out
    assert f"N = {first.equations_required}" in out
    assert f"N = {swapped.equations_required}" in out
    assert attack.EQUATION_SCALING_NOTE in out
    print(f"check 08 PASS: N = {first.equations_required} = 2^26.86, "
          f"keystream {first.keystream_estimate} and "
          f"{swapped.keystream_estimate} bits within x2 of the planning "
          f"figures, ordering discrepancy printed")


def test_09_joint_multiple_cancels_every_register(toy):
    modulus = product_modulus([presets.TOY_POLY_13, presets.TOY_POLY_11,
                               presets.TOY_POLY_9])
    rep = find_weight4(modulus, 8192, limit=8)
    assert rep.count >= 1
    for m in rep.found:
        assert verify_multiple(m, [presets.TOY_POLY_13, presets.TOY_POLY_11,
                                   presets.TOY_POLY_9])
    state = 0x15543210F
    ks = keystream(toy, state, 1 << 15)
    eqs = attack.harvest_equations(ks, rep.found, max_equations=30000)
    frac = attack.zero_sum_fraction(toy, state, eqs)
    assert frac == 1.0
    print(f"check 09 PASS: joint multiples zero the full input sum on "
          f"{eqs.total} of {eqs.total} relations")


@pytest.mark.large_scale
def test_10_full_size_first_stage_recovery():
    spec = presets.generator_29_31_37()
    ap = attack.plan(spec, (0, 1, 2))
    stage = ap.stages[0]
    rng = np.random.default_rng(0xFEED5EED)
    state = random_state(spec, rng)
    length = 1 << 24
    ks = keystream(spec, state, length)
    mults = presets.large_multiples_31_37(length - 1)
    eqs = attack.harvest_equations(ks, mults,
                                   max_equations=stage.equations_required)
    ranked = attack.score_stage(spec, stage.target, eqs, 8, 2)
    assert ranked[0].candidate == spec.split_state(state)[0]
    print(f"check 10 PASS: 29-bit register recovered from {eqs.total} "
          f"relations over 2**24 keystream bits, "
          f"z={ranked[0].zscore:.1f} vs runner-up {ranked[1].zscore:.1f}")


# Harvest plus filter of 2**30 relations, alone in a child process so its
# peak RSS is the pipeline's own: argv is the packed keystream file, its
# bit count and register 0's state.  The peak is read as VmHWM, which
# starts afresh at exec (ru_maxrss would carry the parent's peak over).
_STAGE2_FILTER_CHILD = """
import sys, time
import numpy as np
from combgen import attack, presets
from combgen.gf2 import Keystream
from combgen.multiples import Weight4Multiple

bits = np.unpackbits(np.load(sys.argv[1]), count=int(sys.argv[2]))
rng = np.random.default_rng(0x5EC0)
mults = [Weight4Multiple(*sorted(int(t) for t in
                                 rng.choice(1 << 15, 3, replace=False)))
         for _ in range(32)]
t0 = time.perf_counter()
eqs = attack.harvest_equations(Keystream(bits), mults, max_equations=1 << 30)
kept = attack.filter_known(presets.generator_29_31_37(), eqs,
                           {0: int(sys.argv[3])})
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status
               if line.startswith("VmHWM:"))
print(eqs.total, kept.total, time.perf_counter() - t0, hwm)
"""


@pytest.mark.large_scale
def test_11_full_size_stage2_filter_in_bounded_memory(tmp_path):
    spec = presets.generator_29_31_37()
    state = random_state(spec, np.random.default_rng(0x5EC0))
    length = (1 << 25) + (1 << 15)
    path = tmp_path / "ks.npy"
    np.save(path, np.packbits(keystream(spec, state, length).bits))
    gf2.clear_residue_cache()
    src = str(Path(combgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _STAGE2_FILTER_CHILD, str(path), str(length),
         str(spec.split_state(state)[0])],
        capture_output=True, text=True, check=True, env=env)
    raw, kept, seconds, rss_kb = out.stdout.split()
    raw, kept, rss = int(raw), int(kept), int(rss_kb) * 1024
    assert raw == 1 << 30
    # register 0 feeds three inputs, so one relation in eight survives
    assert abs(kept / raw - 1 / 8) < 1e-3
    assert rss < 10 ** 9
    print(f"check 11 PASS: harvest + filter of {raw} relations kept {kept} "
          f"in {float(seconds):.1f} s, peak RSS {rss / 2 ** 20:.0f} MiB")


@pytest.mark.large_scale
def test_12_full_size_stage2_multiple_search():
    t0 = time.perf_counter()
    report = find_weight4(presets.POLY_37, 35423)
    elapsed = time.perf_counter() - t0
    assert report.count == 51
    assert all(verify_multiple(m, [presets.POLY_37]) for m in report.found)
    assert report.found[-1].degree == 35423
    print(f"check 12 PASS: {report.count} weight-4 multiples of the 37-bit "
          f"feedback below degree 35423, all verified, {elapsed:.1f} s")
