"""Attack engine: planning, harvesting, scoring, staged recovery.

Most tests run on the toy generator (13/11/9-bit registers, 6-input
filter) where everything is small enough for exact oracles.
"""

import math
from itertools import groupby, permutations

import numpy as np
import pytest

from combgen import attack, boolfn, gf2, presets
from combgen.attack import (AttackExhaustedError, candidate_counts,
                            candidate_counts_naive, candidates_tsv,
                            filter_known, final_direct_search,
                            harvest_equations, iter_column_chunks, plan,
                            run_attack,
                            score_candidates_naive, score_stage,
                            search_stage_multiples, zero_sum_fraction)
from combgen.boolfn import BooleanFunction
from combgen.errors import ValidationError, InvariantError
from combgen.gf2 import GeneratorSpec, Keystream, LfsrSpec, keystream
from combgen.multiples import (Weight4Multiple, find_weight4, product_modulus,
                              verify_multiple)

P3 = 0b1011

TRUE_KEY = 0x15543210F  # registers 0x10f / 0x219 / 0x155


def toy_keystream(toy, nbits=1 << 19, key=TRUE_KEY):
    return keystream(toy, key, nbits)


def stage1_multiples(toy, bound=1500):
    modulus = product_modulus([toy.lfsrs[1], toy.lfsrs[2]])
    return find_weight4(modulus, bound).found


def group_arrays(eqs):
    """(multiple, bases, classes) per group, gathered from the relation
    stream's chunks."""
    out = []
    for mult, chunks in groupby(attack._relation_chunks(eqs),
                                key=lambda c: c[0]):
        bases, classes = [], []
        for _, b, c in chunks:
            bases.append(np.arange(b.start, b.stop)
                         if isinstance(b, slice) else b)
            classes.append(c)
        out.append((mult, np.concatenate(bases), np.concatenate(classes)))
    return out


def table_pair(spec, target, eqs):
    """The unsplit class-0/class-1 mask-count tables score_stage builds
    for register `target`."""
    lf, taps = attack._target(spec, target)
    return attack._fill_tables(iter_column_chunks(spec, target, eqs),
                               len(taps), lf.length, eqs.class_counts)


def single_register_spec():
    return GeneratorSpec(
        lfsrs=(LfsrSpec(3, P3, taps=(0,)),),
        function=BooleanFunction(1, [0, 1]),
        wiring=((0, 0),))


# ------------------------------------------------------------------- plan

# describe() of three plans, pinned byte for byte: the toy and the
# paper instance in two orders, each with the ordering comparison
DESCRIBE_TOY = "\n".join([
    'attack plan, target order [0, 1, 2]',
    'stage 1: register 0 (m1=13)  known=[]  cancelled=[1, 2] (m2=20, '
    'n2=4)',
    '  samples S = 106496 = 2^16.70   equations N = 425984 = 2^18.70   '
    '(n1=2)',
    '  worst-case spectrum-gap figures: S = 697933, N = 2791729',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 426169 bits = 2^18.70 (52 KB); many '
    'multiples -> 1522 bits = 2^10.57 (190 B); planned 1522 bits = '
    '2^10.57 (190 B)',
    '  search: time 2^18.70, memory 2^13.00 counters; tradeoff endpoint '
    'time 2^30.70, memory 2^17.70',
    'stage 2: register 1 (m1=11)  known=[0]  cancelled=[2] (m2=9, n2=2)',
    '  samples S = 90112 = 2^16.46   equations N = 360448 = 2^18.46   '
    '(n1=2)',
    '  worst-case spectrum-gap figures: S = 590559, N = 2362233',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 1441807 bits = 2^20.46 (176 KB); many '
    'multiples -> 307 bits = 2^8.26 (38 B); planned 307 bits = 2^8.26 '
    '(38 B)',
    '  search: time 2^16.46, memory 2^11.00 counters; tradeoff endpoint '
    'time 2^28.46, memory 2^17.46',
    'stage 3: register 2 (m1=9)  known=[0, 1]  cancelled=[] (m2=0, n2=0)',
    '  direct search over 2^9 states on a window of 49 bits',
    'total keystream required: 1522 bits = 2^10.57 (190 B)',
    'first-stage cost by ordering:',
    '  order      m1  n1  m2     N                keystream',
    '  [0, 1, 2]  13   2  20  N = 425984 = 2^18.70  1522 bits = 2^10.57',
    '  [0, 2, 1]  13   2  20  N = 425984 = 2^18.70  1522 bits = 2^10.57',
    '  [1, 0, 2]  11   2  22  N = 360448 = 2^18.46  2064 bits = 2^11.01',
    '  [1, 2, 0]  11   2  22  N = 360448 = 2^18.46  2064 bits = 2^11.01',
    '  [2, 0, 1]   9   2  24  N = 294912 = 2^18.17  2776 bits = 2^11.44',
    '  [2, 1, 0]   9   2  24  N = 294912 = 2^18.17  2776 bits = 2^11.44',
    'note: equation counts N = m1 * 2^(2n+n1+1) scale with the first '
    "target's length m1, so orderings differ in N as well as in keystream",
    'warning: an all-zero register state gives no usable statistic; '
    'candidate 0 ranks last, so such keys are recovered only with top_k '
    '= 2**m1',
])

DESCRIBE_FULL_012 = "\n".join([
    'attack plan, target order [0, 1, 2]',
    'stage 1: register 0 (m1=29)  known=[]  cancelled=[1, 2] (m2=68, '
    'n2=6)',
    '  samples S = 15204352 = 2^23.86   equations N = 121634816 = '
    '2^26.86   (n1=3)',
    '  worst-case spectrum-gap figures: S = 243269632, N = 1946157056',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 133733283 bits = 2^26.99 (15.94 MB); '
    'many multiples -> 25619445 bits = 2^24.61 (3.05 MB); planned '
    '25619445 bits = 2^24.61 (3.05 MB)',
    '  search: time 2^36.86, memory 2^29.00 counters; tradeoff endpoint '
    'time 2^54.86, memory 2^25.86',
    'stage 2: register 1 (m1=31)  known=[0]  cancelled=[2] (m2=37, n2=3)',
    '  samples S = 16252928 = 2^23.95   equations N = 130023424 = '
    '2^26.95   (n1=3)',
    '  worst-case spectrum-gap figures: S = 260046848, N = 2080374784',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 1040196770 bits = 2^29.95 (124.00 MB); '
    'many multiples -> 203517 bits = 2^17.63 (25 KB); planned 203517 '
    'bits = 2^17.63 (25 KB)',
    '  search: time 2^38.95, memory 2^31.00 counters; tradeoff endpoint '
    'time 2^56.95, memory 2^25.95',
    'stage 3: register 2 (m1=37)  known=[0, 1]  cancelled=[] (m2=0, n2=0)',
    '  direct search over 2^37 states on a window of 77 bits',
    'total keystream required: 25619445 bits = 2^24.61 (3.05 MB)',
    'first-stage cost by ordering:',
    '  order      m1  n1  m2     N                keystream',
    '  [0, 1, 2]  29   3  68  N = 121634816 = 2^26.86  25619445 bits = '
    '2^24.61',
    '  [0, 2, 1]  29   3  68  N = 121634816 = 2^26.86  25619445 bits = '
    '2^24.61',
    '  [1, 0, 2]  31   3  66  N = 130023424 = 2^26.95  18420256 bits = '
    '2^24.13',
    '  [1, 2, 0]  31   3  66  N = 130023424 = 2^26.95  18420256 bits = '
    '2^24.13',
    '  [2, 0, 1]  37   3  60  N = 155189248 = 2^27.21  6807077 bits = '
    '2^22.70',
    '  [2, 1, 0]  37   3  60  N = 155189248 = 2^27.21  6807077 bits = '
    '2^22.70',
    'note: equation counts N = m1 * 2^(2n+n1+1) scale with the first '
    "target's length m1, so orderings differ in N as well as in keystream",
    'warning: an all-zero register state gives no usable statistic; '
    'candidate 0 ranks last, so such keys are recovered only with top_k '
    '= 2**m1',
])

DESCRIBE_FULL_120 = "\n".join([
    'attack plan, target order [1, 2, 0]',
    'stage 1: register 1 (m1=31)  known=[]  cancelled=[2, 0] (m2=66, '
    'n2=6)',
    '  samples S = 16252928 = 2^23.95   equations N = 130023424 = '
    '2^26.95   (n1=3)',
    '  worst-case spectrum-gap figures: S = 260046848, N = 2080374784',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 137644981 bits = 2^27.04 (16.41 MB); '
    'many multiples -> 18420256 bits = 2^24.13 (2.20 MB); planned '
    '18420256 bits = 2^24.13 (2.20 MB)',
    '  search: time 2^38.95, memory 2^31.00 counters; tradeoff endpoint '
    'time 2^56.95, memory 2^25.95',
    'stage 2: register 2 (m1=37)  known=[1]  cancelled=[0] (m2=29, n2=3)',
    '  samples S = 19398656 = 2^24.21   equations N = 155189248 = '
    '2^27.21   (n1=3)',
    '  worst-case spectrum-gap figures: S = 310378496, N = 2483027968',
    '  expected false survivors ~ 1.00',
    '  keystream: one multiple -> 1241515461 bits = 2^30.21 (148.00 MB); '
    'many multiples -> 53181 bits = 2^15.70 (6 KB); planned 53181 bits = '
    '2^15.70 (6 KB)',
    '  search: time 2^45.21, memory 2^37.00 counters; tradeoff endpoint '
    'time 2^63.21, memory 2^26.21',
    'stage 3: register 0 (m1=29)  known=[1, 2]  cancelled=[] (m2=0, n2=0)',
    '  direct search over 2^29 states on a window of 69 bits',
    'total keystream required: 18420256 bits = 2^24.13 (2.20 MB)',
    'first-stage cost by ordering:',
    '  order      m1  n1  m2     N                keystream',
    '  [0, 1, 2]  29   3  68  N = 121634816 = 2^26.86  25619445 bits = '
    '2^24.61',
    '  [0, 2, 1]  29   3  68  N = 121634816 = 2^26.86  25619445 bits = '
    '2^24.61',
    '  [1, 0, 2]  31   3  66  N = 130023424 = 2^26.95  18420256 bits = '
    '2^24.13',
    '  [1, 2, 0]  31   3  66  N = 130023424 = 2^26.95  18420256 bits = '
    '2^24.13',
    '  [2, 0, 1]  37   3  60  N = 155189248 = 2^27.21  6807077 bits = '
    '2^22.70',
    '  [2, 1, 0]  37   3  60  N = 155189248 = 2^27.21  6807077 bits = '
    '2^22.70',
    'note: equation counts N = m1 * 2^(2n+n1+1) scale with the first '
    "target's length m1, so orderings differ in N as well as in keystream",
    'warning: an all-zero register state gives no usable statistic; '
    'candidate 0 ranks last, so such keys are recovered only with top_k '
    '= 2**m1',
])


def test_plan_toy_parameters(toy):
    ap = plan(toy)
    s1 = ap.stages[0]
    assert (s1.m1, s1.m2, s1.n1, s1.n2) == (13, 20, 2, 4)
    assert s1.samples_required == 13 * 2 ** 13
    assert s1.equations_required == 13 * 2 ** 15
    assert s1.equations_required == s1.samples_required << s1.n1
    assert s1.expected_false_survivors == pytest.approx(1.0)
    assert ap.stages[-1].is_final and not ap.stages[-1].group2
    targets = [s.target for s in ap.stages]
    assert sorted(targets) == [0, 1, 2]


def test_plan_group2_is_union_of_later_targets(toy):
    ap = plan(toy, order=(2, 0, 1))
    assert ap.stages[0].group2 == (0, 1)
    assert ap.stages[1].group2 == (1,)
    assert ap.stages[0].n1 == 2 and ap.stages[0].n_known == 0
    assert ap.stages[1].n_known == 2


def test_plan_rejects_bad_order(toy):
    with pytest.raises(ValidationError):
        plan(toy, order=(0, 1))
    with pytest.raises(ValidationError):
        plan(toy, order=(0, 1, 1))


def test_plan_describe_mentions_each_stage(toy):
    text = plan(toy).describe()
    assert "stage 1" in text and "direct search" in text
    assert f"N = {13 * 2 ** 15}" in text


@pytest.mark.parametrize("order, expected", [
    (None, DESCRIBE_TOY), ((0, 1, 2), DESCRIBE_FULL_012),
    ((1, 2, 0), DESCRIBE_FULL_120)])
def test_plan_describe_is_pinned(order, expected):
    spec = (presets.toy_generator() if order is None
            else presets.generator_29_31_37())
    assert plan(spec, order).describe() == expected


def test_compare_orderings_covers_all_permutations(toy):
    rows = plan(toy).orderings
    assert len(rows) == 6
    n_by_order = {order: st.equations_required for order, st in rows}
    assert n_by_order[(0, 1, 2)] == 13 * 2 ** 15
    assert n_by_order[(2, 1, 0)] == 9 * 2 ** 15


def test_plan_builds_the_other_orders_only_when_read(toy, monkeypatch):
    built = []
    scored_stage = attack.ScoredStage

    def counted(**fields):
        built.append(fields["target"])
        return scored_stage(**fields)
    monkeypatch.setattr(attack, "ScoredStage", counted)
    ap = plan(toy)
    assert built == [0, 1]
    assert [order for order, _ in ap.orderings] == list(
        permutations(range(3)))
    assert built == [0, 1, 0, 0, 1, 1, 2, 2]


def chain_spec(count):
    """count one-tap registers of 3, 4, ... bits under a majority vote."""
    polys = (0b1011, 0b10011, 0b100101, 0b1000011, 0b10000011)[:count]
    x = np.arange(1 << count)
    return GeneratorSpec(
        tuple(LfsrSpec(p.bit_length() - 1, p, taps=(0,)) for p in polys),
        BooleanFunction(count, 2 * np.bitwise_count(x) > count),
        tuple((r, 0) for r in range(count)))


@pytest.mark.parametrize("count, rows", [(1, 0), (2, 2), (4, 24), (5, 0)])
def test_plan_compares_the_orders_of_2_to_4_registers(count, rows):
    ap = plan(chain_spec(count))
    assert len(ap.orderings) == rows
    lines = ap.describe().splitlines()
    tail = lines[1 + next(i for i, line in enumerate(lines)
                          if line.startswith("total keystream required")):]
    # the all-zero warning concerns scored stages, which one register
    # lacks; the comparison and its note appear only with 2 to 4
    warned = count > 1
    assert len(tail) == (rows + 3 if rows else 0) + warned
    assert sum("first-stage cost by ordering" in line
               for line in lines) == bool(rows)
    assert sum("orderings differ" in line for line in lines) == bool(rows)
    if rows:
        assert tail[:2] == [
            "first-stage cost by ordering:",
            "  order      m1  n1  m2     N                keystream"]
        for line, (order, st) in zip(tail[2:], ap.orderings):
            assert line.startswith(f"  {list(order)} ")
            assert f" N = {st.equations_required} = " in line
        assert tail[2 + rows] == f"note: {attack.EQUATION_SCALING_NOTE}"
    if warned:
        assert tail[-1].startswith("warning: an all-zero register state")


def test_plan_worstcase_blowup_uses_autocorrelation(toy):
    ap = plan(toy)
    s1 = ap.stages[0]
    factor = (1 - 24 / 64) ** -4  # toy filter delta is 24
    assert s1.samples_worstcase == math.ceil(s1.samples_required * factor)


def linear_structure_toy(toy):
    """The toy's wiring under f'(x) = x0 + f(x with bit 0 cleared): f'
    flips with input 0, so its autocorrelation peak is 2**n."""
    x = np.arange(1 << toy.n)
    table = (x & 1) ^ toy.function.table[x & ~1]
    return GeneratorSpec(toy.lfsrs, BooleanFunction(toy.n, table),
                         toy.wiring)


def test_plan_reports_unbounded_worstcase_for_a_linear_structure(toy):
    spec = linear_structure_toy(toy)
    assert boolfn.autocorrelation(spec.function).delta == 1 << spec.n
    ap = plan(spec)
    s1 = ap.stages[0]
    assert s1.samples_worstcase == s1.equations_worstcase == math.inf
    assert s1.samples_required == plan(toy).stages[0].samples_required
    assert "worst-case spectrum-gap figures: unbounded" in ap.describe()


# ---------------------------------------------------------------- harvest


def test_harvest_boundary_single_equation():
    bits = Keystream(np.ones(6, dtype=np.uint8))
    mult = Weight4Multiple(1, 2, 5)
    eqs = harvest_equations(bits, [mult])
    assert eqs.total == 1
    assert group_arrays(eqs)[0][2][0] == 0  # 1^1^1^1


def test_harvest_class_bits_match_direct_indexing(toy, rng):
    ks = toy_keystream(toy, 4000)
    mults = stage1_multiples(toy)[:3]
    eqs = harvest_equations(ks, mults)
    bits = ks.bits
    for mult, bases, classes in group_arrays(eqs):
        t1, t2, t3 = mult.t1, mult.t2, mult.t3
        for i in rng.integers(0, bases.size, size=40):
            base = int(bases[i])
            z = (int(bits[base]) ^ int(bits[base + t1])
                 ^ int(bits[base + t2]) ^ int(bits[base + t3]))
            assert z == int(classes[i])


def test_harvest_max_equations_truncates(toy):
    ks = toy_keystream(toy, 4000)
    mults = stage1_multiples(toy)[:3]
    eqs = harvest_equations(ks, mults, max_equations=100)
    assert eqs.total == 100


def test_harvest_rejects_too_short_keystream():
    bits = Keystream(np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValidationError):
        harvest_equations(bits, [Weight4Multiple(1, 2, 5)])


@pytest.mark.parametrize("raw", [np.array([0, 1, 2, 1, 0, 1, 1, 0]),
                                 np.ones((2, 8), dtype=np.uint8)])
def test_raw_keystream_arrays_are_validated(toy, raw):
    # a 2 used to reach score_stage and die in np.add.at; a 2-D array
    # was read as its flattening
    with pytest.raises(ValidationError, match="one-dimensional 0/1"):
        harvest_equations(raw, [Weight4Multiple(1, 2, 5)])
    with pytest.raises(ValidationError, match="one-dimensional 0/1"):
        final_direct_search(toy, raw, {0: 1, 1: 1})
    with pytest.raises(ValidationError, match="one-dimensional 0/1"):
        run_attack(toy, raw)


def test_harvest_allocates_nothing_per_relation(toy):
    # 2**22 relations over 4 multiples: int32 bases and uint8 classes
    # would take 20 MiB; a run is recorded by its count alone
    import tracemalloc
    ks = toy_keystream(toy, (1 << 20) + 64)
    mults = [Weight4Multiple(3 + i, 17 + 2 * i, 40 + 3 * i) for i in range(4)]
    tracemalloc.start()
    try:
        eqs = harvest_equations(ks, mults, max_equations=1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eqs.total == 1 << 22
    assert peak < 1 << 20


def test_full_product_multiple_conditions_every_relation(toy):
    mod_all = product_modulus(toy.lfsrs)
    report = find_weight4(mod_all, 8192)
    assert report.count > 0, "raise the bound"
    mult = report.found[0]
    ks = toy_keystream(toy, mult.t3 + 2000)
    eqs = harvest_equations(ks, [mult])
    assert zero_sum_fraction(toy, TRUE_KEY, eqs) == 1.0
    # with every input sum conditioned to zero, the output sum is zero
    # with probability P0, not certainty: f is nonlinear
    from combgen.boolfn import p_spectrum
    p0 = float(p_spectrum(toy.function).p0)
    frac0 = 1.0 - float(group_arrays(eqs)[0][2].mean())
    assert abs(frac0 - p0) < 4 / math.sqrt(eqs.total)


def test_partial_product_multiple_conditions_a_quarter(toy):
    mults = stage1_multiples(toy)[:4]
    ks = toy_keystream(toy, 60000)
    eqs = harvest_equations(ks, mults)
    frac = zero_sum_fraction(toy, TRUE_KEY, eqs)
    sigma = 3 / math.sqrt(eqs.total)
    assert abs(frac - 0.25) < sigma + 0.01


# ---------------------------------------------------------------- columns


def test_g_column_by_hand():
    # register X^3+X+1, tap 0, relation positions (0,1,2,4):
    # s0+s1+s2+s4 = s0 since s4 = s1+s2, so the mask is 0b001
    spec = single_register_spec()
    ks = Keystream(np.zeros(5, dtype=np.uint8))
    eqs = harvest_equations(ks, [Weight4Multiple(1, 2, 4)])
    (cols, _), = iter_column_chunks(spec, 0, eqs)
    assert len(cols) == 1
    assert cols[0][0] == 1


def test_true_key_dot_products_match_simulation(toy):
    mults = stage1_multiples(toy)[:2]
    ks = toy_keystream(toy, 30000)
    eqs = harvest_equations(ks, mults, max_equations=1000)
    u_true = toy.split_state(TRUE_KEY)[0]
    lf = toy.lfsrs[0]
    taps = toy.inputs_of_register(0)
    # each group's relations fit one chunk
    for (mult, bases, _), (cols, _) in zip(
            group_arrays(eqs), iter_column_chunks(toy, 0, eqs), strict=True):
        seq = np.asarray(
            keystream_of_register(lf, u_true,
                                  int(bases.max()) + mult.t3
                                  + max(p for _, p in taps) + 1))
        for i, base in enumerate(bases):
            for j, (_, p) in enumerate(taps):
                direct = 0
                for shift in mult.shifts:
                    direct ^= int(seq[int(base) + p + shift])
                hyp = bin(int(cols[j][i]) & u_true).count("1") & 1
                assert hyp == direct


def keystream_of_register(lf, init, count):
    from combgen.gf2 import sequence_bits
    return sequence_bits(lf.feedback, lf.length, init, count)


def test_columns_are_register_local(toy):
    # the same relations scored against register 1 use only 11-bit masks
    mults = stage1_multiples(toy)[:1]
    ks = toy_keystream(toy, 20000)
    eqs = harvest_equations(ks, mults, max_equations=200)
    assert all(int(c.max()) < (1 << 11)
               for cols, _ in iter_column_chunks(toy, 1, eqs) for c in cols)


# ----------------------------------------------------------- accumulation


def test_accumulate_total_mass(toy):
    ks = toy_keystream(toy, 30000)
    eqs = harvest_equations(ks, stage1_multiples(toy)[:2],
                            max_equations=5000)
    w0, w1 = table_pair(toy, 0, eqs)
    c0, c1 = eqs.class_counts
    assert int(w0.sum()) == c0 << 2
    assert int(w1.sum()) == c1 << 2


def test_accumulate_matches_naive_recount(monkeypatch):
    rng = np.random.default_rng(5)
    spec = GeneratorSpec(
        lfsrs=(LfsrSpec(9, presets.TOY_POLY_9, taps=(3, 8)),),
        function=BooleanFunction(2, [0, 1, 1, 0]),
        wiring=((0, 0), (0, 1)))
    ks = Keystream(rng.integers(0, 2, size=2000).astype(np.uint8))
    eqs = harvest_equations(ks, [Weight4Multiple(5, 19, 37)],
                            max_equations=300)
    (cols, classes), = iter_column_chunks(spec, 0, eqs)
    w0, w1 = table_pair(spec, 0, eqs)
    expect = [np.zeros(512, dtype=np.int64), np.zeros(512, dtype=np.int64)]
    for i in range(classes.size):
        b = int(classes[i])
        for y in range(4):
            v = 0
            if y & 1:
                v ^= int(cols[0][i])
            if y & 2:
                v ^= int(cols[1][i])
            expect[b][v] += 1
    assert np.array_equal(w0, expect[0])
    assert np.array_equal(w1, expect[1])
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 7)
    chunked = table_pair(spec, 0, eqs)
    assert np.array_equal(chunked[0], expect[0])
    assert np.array_equal(chunked[1], expect[1])


def test_accumulate_single_input_unrolled():
    spec = single_register_spec()
    rng = np.random.default_rng(6)
    ks = Keystream(rng.integers(0, 2, size=400).astype(np.uint8))
    eqs = harvest_equations(ks, [Weight4Multiple(2, 5, 11)])
    (cols, classes), = iter_column_chunks(spec, 0, eqs)
    w0, w1 = table_pair(spec, 0, eqs)
    c0, c1 = eqs.class_counts
    for b, (w, total) in enumerate(((w0, c0), (w1, c1))):
        direct = np.zeros(8, dtype=np.int64)
        sel = classes == b
        np.add.at(direct, cols[0][sel], 1)
        direct[0] += total
        assert np.array_equal(w, direct)


@pytest.mark.parametrize("prefix, bits", [(0, 12), (0b101, 9)])
def test_accumulate_int32_tables_equal_int64(prefix, bits):
    rng = np.random.default_rng(8)
    cols = [rng.integers(0, 1 << 12, 5000) for _ in range(3)]
    classes = rng.integers(0, 2, 5000).astype(np.uint8)
    arrays = []
    for dtype in (np.int32, np.int64):
        tables = np.zeros((2, 1 << bits), dtype)
        attack._accumulate_chunk(tables, cols, classes, 3, prefix, bits)
        arrays.append(tables)
    assert arrays[0].dtype == np.int32
    assert np.array_equal(arrays[0], arrays[1])


@pytest.mark.parametrize("preset", [presets.toy_generator,
                                    presets.generator_29_31_37])
def test_table_dtype_follows_relation_bound(preset):
    # one rule at every register length (m1 = 13 for the toy, 29 at full
    # size): int32 exactly when relations * 2**n1 < 2**31
    stage = plan(preset()).stages[0]
    edge = 1 << (31 - stage.n1)
    assert attack._table_dtype(edge - 1, stage.n1) is np.int32
    assert attack._table_dtype(edge, stage.n1) is np.int64
    planned = math.ceil(stage.equations_required * attack.RAW_MARGIN)
    assert planned < edge
    assert attack._table_dtype(planned, stage.n1) is np.int32


def test_candidate_counts_divisibility_guard():
    w0 = np.array([3, 1, 1, 1], dtype=np.int64)  # not a valid accumulation
    w1 = np.zeros(4, dtype=np.int64)
    with pytest.raises(InvariantError):
        candidate_counts(w0, w1, 2, (6, 0))


def test_candidate_counts_range_guard():
    # one relation whose columns are all zero: every candidate counts it
    w0 = np.array([4, 0, 0, 0], dtype=np.int64)
    w1 = np.zeros(4, dtype=np.int64)
    assert candidate_counts(w0.copy(), w1.copy(), 2, (1, 0))[0].tolist() \
        == [1, 1, 1, 1]
    with pytest.raises(InvariantError, match="class size"):
        candidate_counts(w0, w1, 2, (0, 0))


def test_candidate_counts_negative_guard():
    # transforms to 4 * [1, 1, 1, -1]: after the shift by 2, a count of -1
    w0 = np.array([2, 2, 2, -2], dtype=np.int64)
    w1 = np.zeros(4, dtype=np.int64)
    with pytest.raises(InvariantError, match="negative relation count"):
        candidate_counts(w0, w1, 2, (8, 0))


@pytest.mark.parametrize("bad, match", [
    (1, "not divisible"),
    (-2, "negative relation count"),
    (22, "exceeds class size"),
])
def test_candidate_counts_guards_reach_the_last_slice(bad, match):
    # fwht(t) transforms back to size * t, shifted down by n1 to t / 2, so
    # t's last entry, at the end of a row longer than one checked slice,
    # is the one odd, negative or too large count
    size = 2 * attack._COUNT_SLICE
    n1 = size.bit_length()
    t = np.zeros(size, dtype=np.int64)
    t[:size // 2] = 20
    w0 = np.zeros(size, dtype=np.int64)
    got = candidate_counts(w0.copy(), boolfn.fwht(t.copy()), n1, (0, 10))
    assert np.array_equal(got[1], t // 2)
    t[-1] = bad
    with pytest.raises(InvariantError, match=match):
        candidate_counts(w0, boolfn.fwht(t), n1, (0, 10))


# ------------------------------------------------------------------ score


def scored_stage(toy, nbits=1 << 18, max_eq=300000):
    ks = toy_keystream(toy, nbits)
    return harvest_equations(ks, stage1_multiples(toy), max_equations=max_eq)


def test_fast_scorer_equals_naive(toy):
    eqs = scored_stage(toy, max_eq=8000)
    ranked = score_stage(toy, 0, eqs, top_k=1 << 13)
    n0_ref, n1_ref = candidate_counts_naive(toy, 0, eqs)
    assert sorted(c.candidate for c in ranked) == list(range(1 << 13))
    for c in ranked:
        assert (c.n0, c.n1) == (n0_ref[c.candidate], n1_ref[c.candidate])


@pytest.mark.parametrize("split", [0, 1, 4, 13])
def test_tradeoff_scorer_equals_fast(toy, split):
    eqs = scored_stage(toy, max_eq=6000)
    ref = score_candidates_naive(toy, 0, eqs, top_k=10)
    assert score_stage(toy, 0, eqs, top_k=10, split_bits=split) == ref


@pytest.mark.parametrize("split", [0, 2, 4, 8])
def test_score_stage_breaks_exact_ties_by_candidate(toy, split):
    # candidates 0x1b5 and 0xa4c tie at n0 = 48, n1 = 25 for 8th place;
    # the smaller value must win at every split, as in the oracle
    ks = toy_keystream(toy, 1 << 15, key=0x1077819DA)
    _, mults = search_stage_multiples(toy, plan(toy).stages[0], len(ks))
    eqs = harvest_equations(ks, mults, max_equations=300)
    ref = score_candidates_naive(toy, 0, eqs, top_k=8)
    assert (ref[-1].candidate, ref[-1].n0, ref[-1].n1) == (0x1B5, 48, 25)
    assert score_stage(toy, 0, eqs, top_k=8, split_bits=split) == ref


def test_naive_ranking_puts_zero_and_unmatched_candidates_last():
    # a 2-bit register under f(x) = x: relations at bases 0, 2, 3 of the
    # multiple 1 + X + X^2 + X^3 have masks X^base mod (X^2 + X + 1), that
    # is 1, 3, 1, and classes 0, 1, 0 from the bits; candidate 0 matches
    # every relation and candidate 1 matches none
    spec = GeneratorSpec(lfsrs=(LfsrSpec(2, 0b111, (0,)),),
                         function=BooleanFunction(1, [0, 1]),
                         wiring=((0, 0),))
    eqs = attack.EquationSet(
        np.array([1, 0, 1, 0, 0, 0, 0], dtype=np.uint8),
        (attack.EquationGroup(Weight4Multiple(1, 2, 3), 3,
                              bases=np.array([0, 2, 3], dtype=np.int32),
                              classes=np.array([0, 1, 0], dtype=np.uint8)),))
    ranked = score_candidates_naive(spec, 0, eqs, top_k=4)
    assert [c.candidate for c in ranked] == [2, 3, 0, 1]
    assert score_candidates_naive(spec, 0, eqs, top_k=2) == ranked[:2]
    blocks = [(0, *candidate_counts_naive(spec, 0, eqs))]
    assert attack._rank_blocks(blocks, 4) == ranked
    assert score_stage(spec, 0, eqs, top_k=4) == ranked


def full_sort_ranking(blocks, top_k):
    """Every candidate of the blocks sorted by (-z, candidate), candidate
    0 and candidates with n0 + n1 = 0 at z = -inf."""
    scores = [attack.CandidateScore(offset + i, int(a), int(b))
              for offset, n0, n1c in blocks
              for i, (a, b) in enumerate(zip(n0, n1c))]

    def z(s):
        return s.zscore if s.candidate and s.total else -math.inf
    return sorted(scores, key=lambda s: (-z(s), s.candidate))[:top_k]


# (n0, n1) rows of three blocks.  Block 0: with top_k = 3 the largest
# n0 - n1 belong to R (z 2), X (z 4) and Y (z 2), so the slice floor is
# 2 and the pruning threshold 2 * sqrt(min n0 + min n1) = 2 * 6 = 12;
# T sits exactly on it (n0 - n1 = 12, z = 2) and wins the tie at z = 2
# by candidate value, and S (z 3.88) outranks R and Y on a small total.
# Candidate 0 would score highest if it were not excluded.  Block 1 has
# one positive n0 - n1 (another z = 2 tie) and empty rows; block 2 holds
# the best z (10), three more z = 2 ties, an empty row and negative
# margins, so the k-th place is a tie across slices and blocks.
RANK_BLOCKS = (
    ((2000, 100), (24, 12), (24, 24), (240, 160), (40, 12), (1300, 1200),
     (220, 180), (30, 30)),
    ((0, 0), (5, 9), (3, 3), (4, 0), (0, 0), (1, 2), (2, 2), (0, 7)),
    ((50, 50), (0, 0), (12, 4), (40, 24), (10, 30), (100, 0), (60, 40),
     (18, 32)),
)
T, X, S = 1, 3, 4


def rank_blocks(dtype):
    return [(8 * i, np.array([a for a, _ in rows], dtype=dtype),
             np.array([b for _, b in rows], dtype=dtype))
            for i, rows in enumerate(RANK_BLOCKS)]


def test_rank_keeps_the_candidate_on_the_pruning_threshold():
    blocks = rank_blocks(np.int32)[:1]
    ranked = attack._rank_blocks(blocks, 3)
    assert [c.candidate for c in ranked] == [X, S, T]
    assert (ranked[2].n0 - ranked[2].n1, ranked[2].zscore) == (12, 2.0)
    assert ranked == full_sort_ranking(blocks, 3)


# block 1 alone has fewer positive n0 - n1 than most top_k: no floor
@pytest.mark.parametrize("used", [(0, 1, 2), (1,)])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("rank_slice", [1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize("top_k", [1, 2, 3, 4, 7, 30])
def test_rank_blocks_equal_a_full_sort(monkeypatch, used, dtype, rank_slice,
                                       top_k):
    monkeypatch.setattr(attack, "_RANK_SLICE", rank_slice)
    blocks = [rank_blocks(dtype)[i] for i in used]
    ranked = attack._rank_blocks(iter(blocks), top_k)
    assert ranked == full_sort_ranking(blocks, top_k)


@pytest.mark.parametrize("split", [0, 2])
def test_score_stage_never_reaches_butterflies(toy, split):
    eqs = scored_stage(toy, max_eq=6000)
    ref = score_candidates_naive(toy, 0, eqs, top_k=10)
    assert score_stage(toy, 0, eqs, top_k=10, split_bits=split) == ref


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_scorer_tables_always_take_the_blocked_path(n1):
    # the count arrays' dtype and the bound candidate_counts passes put
    # every table on a float path: either side of the int32 -> int64
    # switch, and at the largest total below 2**(53 - n1)
    for total in ((1 << 31) - 1 >> n1, 1 << 31 - n1, (1 << 53 - n1) - 1):
        a = np.zeros(8, attack._table_dtype(total, n1))
        assert boolfn._float_exact(a, bound=total << n1) is np.float64
        assert not boolfn.fwht(a, bound=total << n1).any()


def test_tradeoff_passes_hold_one_table_pair():
    # a (2, 2**16) int32 count array is 512 KiB, so a pass that still
    # holds the previous pass's array peaks a full array above the first;
    # 64 KiB of slack absorbs incidental interpreter allocations
    import tracemalloc
    rng = np.random.default_rng(3)
    cols = [rng.integers(0, 1 << 18, 4000) for _ in range(2)]
    classes = rng.integers(0, 2, 4000).astype(np.uint8)
    ones = int(classes.sum())
    peaks = np.zeros(4, dtype=np.int64)
    tracemalloc.start()
    try:
        blocks = attack._tradeoff_blocks(lambda: iter([(cols, classes)]),
                                         18, 2, (classes.size - ones, ones),
                                         2)
        for i in range(4):
            tracemalloc.reset_peak()
            block = next(blocks)
            peaks[i] = tracemalloc.get_traced_memory()[1]
            del block
        assert next(blocks, None) is None
    finally:
        tracemalloc.stop()
    assert peaks[1:].max() <= peaks[0] + (1 << 16)


def test_true_candidate_ranks_first(toy):
    ranked = score_stage(toy, 0, scored_stage(toy), top_k=8)
    assert ranked[0].candidate == toy.split_state(TRUE_KEY)[0]
    assert ranked[0].zscore > ranked[1].zscore + 3
    assert all(c.candidate != 0 for c in ranked)


def test_candidate_zero_counts_everything(toy):
    # and, as it says nothing about the state, lists last
    eqs = scored_stage(toy, max_eq=4000)
    ranked = score_stage(toy, 0, eqs, top_k=1 << 13)
    assert ranked[-1].candidate == 0
    assert ranked[-1].total == eqs.total


def test_true_candidate_bias_matches_p_spectrum(toy):
    from combgen.boolfn import p_spectrum
    top = score_stage(toy, 0, scored_stage(toy), top_k=1)[0]
    expected = 2 * (float(p_spectrum(toy.function).p0) - 0.5)
    assert abs(top.bias - expected) < 4 / math.sqrt(top.total)


def test_naive_scorer_top_list_matches(toy):
    eqs = scored_stage(toy, max_eq=5000)
    assert score_stage(toy, 0, eqs, top_k=6) == \
        score_candidates_naive(toy, 0, eqs, top_k=6)


def test_candidates_tsv_shape(toy):
    text = candidates_tsv(score_stage(toy, 0, scored_stage(toy, max_eq=3000),
                                      top_k=3))
    lines = text.splitlines()
    assert lines[0] == "candidate\tn0\tn1\tbias\tzscore"
    assert len(lines) == 4 and lines[1].startswith("0x")


# ------------------------------------------------------------- filtering


def test_filter_known_identity(toy):
    ks = toy_keystream(toy, 30000)
    eqs = harvest_equations(ks, stage1_multiples(toy)[:2])
    assert filter_known(toy, eqs, {}) is eqs


def test_filter_known_survivors_have_zero_known_sums(toy):
    ks = toy_keystream(toy, 60000)
    # the P9 register's X-order is 511, so stay below it
    mods = find_weight4(product_modulus([toy.lfsrs[2]]), 505).found[:3]
    eqs = harvest_equations(ks, mods)
    u0 = toy.split_state(TRUE_KEY)[0]
    kept = filter_known(toy, eqs, {0: u0})
    assert 0 < kept.total < eqs.total
    # recheck by direct simulation of register 0 over the four positions
    from combgen.gf2 import sequence_bits
    lf = toy.lfsrs[0]
    for mult, bases, _ in group_arrays(kept):
        span = int(bases.max()) + mult.t3 + 10
        seq = sequence_bits(lf.feedback, lf.length, u0, span)
        for base in bases[:200]:
            for _, p in toy.inputs_of_register(0):
                s = 0
                for shift in mult.shifts:
                    s ^= int(seq[int(base) + p + shift])
                assert s == 0


def test_filter_known_survival_rate(toy):
    ks = toy_keystream(toy, 200000)
    mods = find_weight4(product_modulus([toy.lfsrs[2]]), 505).found[:100]
    eqs = harvest_equations(ks, mods, max_equations=40000)
    u0 = toy.split_state(TRUE_KEY)[0]
    kept = filter_known(toy, eqs, {0: u0})
    rate = kept.total / eqs.total
    sigma = math.sqrt(0.25 * 0.75 / eqs.total)
    assert abs(rate - 0.25) < 4 * sigma + 0.002


def test_filter_known_all_filtered_is_an_error(toy):
    # one equation survives a wrong-state filter only ~1/4 of the time,
    # so some state in a short list must empty it and raise
    ks = toy_keystream(toy, 3000)
    mods = find_weight4(product_modulus([toy.lfsrs[2]]), 505).found[:1]
    eqs = harvest_equations(ks, mods, max_equations=1)
    raised = False
    for wrong in range(1, 25):
        try:
            filter_known(toy, eqs, {0: wrong})
        except ValidationError:
            raised = True
            break
    assert raised


@pytest.mark.parametrize("raw", [1 << 20, 1 << 22])
def test_filter_known_peak_is_kept_plus_chunks(toy, monkeypatch, raw):
    # 2**16-relation chunks and register-output slabs over a 2**20-bit
    # keystream: the input words
    # and register bits (about 3 bytes per keystream bit) take 48 chunks
    # of the allowance; nothing else may grow with the group size or the
    # raw relation count beyond the kept arrays themselves
    import tracemalloc
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 1 << 16)
    monkeypatch.setattr(gf2, "_SLAB", 1 << 16)
    ks = toy_keystream(toy, (1 << 20) + 64)
    mults = [Weight4Multiple(3 + i, 17 + 2 * i, 40 + 3 * i)
             for i in range(raw >> 20)]
    eqs = harvest_equations(ks, mults, max_equations=raw)
    filter_known(toy, eqs, {0: 0x10f})  # warm the residue cache
    tracemalloc.start()
    try:
        kept = filter_known(toy, eqs, {0: 0x10f})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eqs.total == raw
    assert kept.total * 5 == sum(g.bases.nbytes + g.classes.nbytes
                                 for g in kept.groups)
    assert peak <= kept.total * 5 + 64 * attack.DEFAULT_CHUNK


def known_sums_vanish(spec, eqs, states):
    """Oracle: per group, whether every wired input of the registers in
    `states` cancels over each relation's four positions, simulated
    register by register."""
    from combgen.gf2 import sequence_bits
    out = []
    for mult, bases, _ in group_arrays(eqs):
        span = int(bases.max()) + mult.t3 + 1
        ok = np.ones(bases.size, dtype=bool)
        for r, state in states.items():
            lf = spec.lfsrs[r]
            seq = sequence_bits(lf.feedback, lf.length, state,
                                span + lf.length)
            for _, p in spec.inputs_of_register(r):
                s = np.zeros(bases.size, dtype=np.uint8)
                for shift in mult.shifts:
                    s ^= seq[bases + p + shift]
                ok &= s == 0
        out.append(ok)
    return out


@pytest.mark.parametrize("known", [{0: 0x10f}, {0: 0x10f, 1: 0x219},
                                   {0: 0x1a2b, 1: 0x3c}])
def test_filter_known_keeps_exactly_vanishing_relations(toy, known):
    ks = toy_keystream(toy, 60000)
    mods = find_weight4(product_modulus([toy.lfsrs[2]]), 505).found[:3]
    eqs = harvest_equations(ks, mods)
    kept = filter_known(toy, eqs, known)
    expect = [(mult, bases[ok], classes[ok])
              for (mult, bases, classes), ok in
              zip(group_arrays(eqs), known_sums_vanish(toy, eqs, known))
              if ok.any()]
    got = group_arrays(kept)
    assert len(got) == len(expect)
    for (mult, bases, classes), (emult, ebases, eclasses) in zip(got, expect):
        assert mult == emult
        assert bases.dtype == np.int32 and classes.dtype == np.uint8
        assert np.array_equal(bases, ebases)
        assert np.array_equal(classes, eclasses)


@pytest.mark.parametrize("key", [TRUE_KEY, 0x0A5A5F00D])
def test_zero_sum_fraction_equals_direct_count(toy, key):
    ks = toy_keystream(toy, 60000)
    eqs = harvest_equations(ks, stage1_multiples(toy)[:4])
    states = dict(enumerate(toy.split_state(key)))
    nonzero = sum(int(np.count_nonzero(~ok))
                  for ok in known_sums_vanish(toy, eqs, states))
    assert 0 < nonzero < eqs.total
    assert zero_sum_fraction(toy, key, eqs) == 1.0 - nonzero / eqs.total


@pytest.mark.parametrize("make_spec, dtype",
                         [(presets.toy_generator, np.uint8),
                          (presets.generator_29_31_37, np.uint16)])
def test_input_words_index_the_keystream(make_spec, dtype):
    from combgen.gf2 import random_state
    spec = make_spec()
    state = random_state(spec, np.random.default_rng(11))
    words = gf2.input_words(spec, dict(enumerate(spec.split_state(state))),
                            4096)
    assert words.dtype == dtype
    assert np.array_equal(spec.function.table[words],
                          keystream(spec, state, 4096).bits)


def test_input_words_same_in_slabs(toy, monkeypatch):
    states = dict(enumerate(toy.split_state(TRUE_KEY)))
    whole = gf2.input_words(toy, states, 3000)
    monkeypatch.setattr(gf2, "_SLAB", 7)
    assert np.array_equal(gf2.input_words(toy, states, 3000), whole)


# ----------------------------------------------------------- final search


def test_final_direct_search_finds_true_state(toy):
    ks = toy_keystream(toy, 200)
    parts = toy.split_state(TRUE_KEY)
    got = final_direct_search(toy, ks, {0: parts[0], 1: parts[1]})
    assert got == [parts[2]]


def test_final_direct_search_rejects_corrupt_known(toy):
    ks = toy_keystream(toy, 200)
    parts = toy.split_state(TRUE_KEY)
    got = final_direct_search(toy, ks, {0: parts[0] ^ 5, 1: parts[1]})
    assert got == []


def direct_search_oracle(spec, bits, known):
    """States of the one register not in `known`, ascending, whose
    plain-loop simulation (lfsr_sequence and the truth table) gives every
    bit of `bits`."""
    r_open, = (r for r in range(len(spec.lfsrs)) if r not in known)
    count = bits.size
    seqs = {r: gf2.lfsr_sequence(spec.lfsrs[r], s,
                                 count + max(spec.lfsrs[r].taps))
            for r, s in known.items()}
    lf = spec.lfsrs[r_open]
    found = []
    for state in range(1 << lf.length):
        seqs[r_open] = gf2.lfsr_sequence(lf, state, count + max(lf.taps))
        if all(spec.function(sum(
                int(seqs[r][t + spec.lfsrs[r].taps[k]]) << j
                for j, (r, k) in enumerate(spec.wiring))) == bits[t]
               for t in range(count)):
            found.append(state)
    return found


def random_three_register_spec(rng, lengths):
    """Random primitive feedbacks and two random taps per register under
    the toy's filter and wiring."""
    lfsrs = []
    for length in lengths:
        poly = 1 << length | int(rng.integers(0, 1 << length)) | 1
        while not gf2.poly_is_primitive(poly):
            poly = 1 << length | int(rng.integers(0, 1 << length)) | 1
        taps = sorted(rng.choice(length, size=2, replace=False))
        lfsrs.append(LfsrSpec(length, poly, taps))
    toy = presets.toy_generator()
    return GeneratorSpec(lfsrs, toy.function, toy.wiring)


@pytest.mark.parametrize("which", ["toy", "random"])
def test_final_direct_search_equals_plain_loop_oracle(toy, which):
    # a window of m1 + 2 bits leaves false survivors; for each of four
    # keys the search must return exactly the states that match every
    # window bit, ascending
    rng = np.random.default_rng(17)
    spec = toy if which == "toy" else random_three_register_spec(
        rng, (12, 10, 9))
    survivors = 0
    for _ in range(4):
        state = gf2.random_state(spec, rng)
        parts = spec.split_state(state)
        known = {0: parts[0], 1: parts[1]}
        bits = keystream(spec, state, spec.lfsrs[2].length + 2).bits
        want = direct_search_oracle(spec, bits, known)
        assert parts[2] in want
        assert final_direct_search(spec, bits, known) == want
        survivors += len(want)
    assert survivors >= 4 + 3


def test_final_direct_search_needs_one_unknown(toy):
    ks = toy_keystream(toy, 200)
    with pytest.raises(ValidationError):
        final_direct_search(toy, ks, {0: 1})


# -------------------------------------------------------------- run_attack


def test_run_attack_recovers_exact_state(toy):
    ks = toy_keystream(toy)
    result = run_attack(toy, ks)
    assert result.success
    assert result.state == TRUE_KEY
    assert keystream(toy, result.state, len(ks)) == ks
    assert [r.target for r in result.reports[-3:]] == [0, 1, 2]
    assert result.reports[-1].multiples == ()


def test_run_attack_with_supplied_multiples_and_tradeoff(toy):
    ks = toy_keystream(toy, 1 << 18)
    ap = plan(toy)
    mults = {0: list(stage1_multiples(toy, 2500)),
             1: list(find_weight4(presets.TOY_POLY_9, 500).found)}
    result = run_attack(toy, ks, ap, multiples=mults, split_bits=2)
    assert result.success and result.state == TRUE_KEY


def test_supplied_pool_is_verified_only_as_far_as_the_pick(toy, monkeypatch):
    # 40,684 multiples of the 9-bit register's feedback, all usable for
    # stage 2: the pick verifies only those it reaches, and harvests the
    # same groups as the whole pool
    stage = plan(toy).stages[1]
    ks = toy_keystream(toy, 1 << 18)
    pool = find_weight4(presets.TOY_POLY_9, 500).found
    assert len(pool) == 40684
    calls = []
    verify = attack.verify_multiple

    def counted(mult, polys):
        calls.append(mult)
        return verify(mult, polys)

    monkeypatch.setattr(attack, "verify_multiple", counted)
    picked = attack._stage_multiples(toy, 1, stage, len(ks), pool, None)
    groups = harvest_equations(ks, picked, stage.raw_target).groups
    assert len(calls) <= 2 * len(groups)
    assert [(g.multiple, g.count) for g in groups] == [
        (g.multiple, g.count)
        for g in harvest_equations(ks, pool, stage.raw_target).groups]


def test_run_attack_same_candidates_at_every_split(toy):
    ks = toy_keystream(toy, 1 << 18)
    ap = plan(toy)
    mults = {0: list(stage1_multiples(toy, 2500)),
             1: list(find_weight4(presets.TOY_POLY_9, 500).found)}
    runs = []
    for split in (0, 1, 3):
        result = run_attack(toy, ks, ap, multiples=mults, split_bits=split)
        # the final stage reports surviving states, the others scores
        runs.append((result.state, [
            [(c.candidate, c.n0, c.n1) if r.multiples else c
             for c in r.candidates] for r in result.reports]))
    assert runs[0][0] == TRUE_KEY
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("split, expected", [(2, {0: 2, 1: 0}),
                                             (3, {0: 3, 1: 1})])
def test_run_attack_splits_only_what_the_budget_needs(toy, monkeypatch, split,
                                                      expected):
    # split_bits budgets the 13-bit stage 1 a 2**(13 - split)-entry row;
    # the 11-bit stage 2 splits only the bits that do not fit in it
    calls = []
    score = attack.score_stage

    def recording(spec, target, eqs, top_k, split_bits):
        calls.append((target, split_bits))
        return score(spec, target, eqs, top_k, split_bits)

    monkeypatch.setattr(attack, "score_stage", recording)
    mults = {0: list(stage1_multiples(toy, 2500)),
             1: list(find_weight4(presets.TOY_POLY_9, 500).found)}
    result = run_attack(toy, toy_keystream(toy, 1 << 18), plan(toy),
                        multiples=mults, split_bits=split)
    assert result.state == TRUE_KEY
    assert len(set(calls)) == 2 and dict(calls) == expected


def test_split_beyond_a_shorter_stage_recovers_the_same_state(toy):
    # split 12 leaves the 13-bit stage 1 a 2-entry row and splits the
    # 11-bit stage 2 by 10 bits: only the longest stage bounds the split.
    # Four and sixteen multiples on 2**14 bits give each stage about
    # 2**16 relations, which keeps its 5120 passes to seconds
    ks = toy_keystream(toy, 1 << 14)
    mults = {0: list(stage1_multiples(toy))[:4],
             1: list(find_weight4(presets.TOY_POLY_9, 100).found)[:16]}
    runs = [run_attack(toy, ks, plan(toy), multiples=mults, split_bits=split)
            for split in (0, 12)]
    assert runs[0].state == runs[1].state == TRUE_KEY
    assert ([r.candidates for r in runs[1].reports]
            == [r.candidates for r in runs[0].reports])


def test_fill_tables_transient_memory_follows_the_chunk(toy, monkeypatch):
    # 2**19 relations in 128 chunks of 2**12: a signed pass holds its
    # count array and a few per-chunk arrays, nothing that grows with
    # the stage
    import tracemalloc
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 1 << 12)
    eqs = scored_stage(toy, max_eq=1 << 19)
    class_counts = eqs.class_counts
    list(iter_column_chunks(toy, 0, eqs))  # warm the residue cache
    tracemalloc.start()
    try:
        tables = attack._fill_tables(iter_column_chunks(toy, 0, eqs), 2, 12,
                                     class_counts, prefix=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eqs.total == 1 << 19
    assert peak <= tables.nbytes + 8 * attack.DEFAULT_CHUNK * 8


def filtered_toy_stage2(toy):
    """Toy stage 2 (register 1) on 2**14 bits: relations filtered on the
    true register 0, so every group stores its bases and classes."""
    ks = toy_keystream(toy, 1 << 14)
    mults = find_weight4(presets.TOY_POLY_9, 500).found
    return filter_known(toy, harvest_equations(ks, mults, max_equations=6000),
                        {0: toy.split_state(TRUE_KEY)[0]})


@pytest.mark.parametrize("split", [0, 2])
def test_score_stage_small_chunks_equal_naive(toy, monkeypatch, split):
    # filtered toy stage 2: stored bases and classes, walked 7 at a time
    stage = plan(toy).stages[1]
    eqs = filtered_toy_stage2(toy)
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 7)
    size = 1 << stage.m1
    got = score_stage(toy, stage.target, eqs, size, split)
    n0, n1c = candidate_counts_naive(toy, stage.target, eqs)
    assert sorted(c.candidate for c in got) == list(range(size))
    for c in got:
        assert (c.n0, c.n1) == (n0[c.candidate], n1c[c.candidate])


def test_naive_scorer_shares_no_column_path(toy, monkeypatch):
    # the oracle reads relations from their definition, so corrupting
    # the columns gathered for stored bases moves score_stage alone
    eqs = filtered_toy_stage2(toy)
    size = 1 << 11
    want = score_candidates_naive(toy, 1, eqs, top_k=size)
    assert score_stage(toy, 1, eqs, top_k=size) == want
    window_sums = attack._window_sums

    def corrupted(values, mult, bases, shifts=(0,)):
        sums = window_sums(values, mult, bases, shifts)
        return sums if isinstance(bases, slice) else [s ^ 1 for s in sums]

    monkeypatch.setattr(attack, "_window_sums", corrupted)
    assert score_stage(toy, 1, eqs, top_k=size) != want
    assert score_candidates_naive(toy, 1, eqs, top_k=size) == want


def test_naive_scorer_checks_stored_classes(toy):
    # the oracle recomputes each class from the bits: flipped stored
    # classes move score_stage alone
    eqs = filtered_toy_stage2(toy)
    size = 1 << 11
    want = score_candidates_naive(toy, 1, eqs, top_k=size)
    flipped = attack.EquationSet(eqs.bits, tuple(
        attack.EquationGroup(g.multiple, g.count, g.bases, g.classes ^ 1)
        for g in eqs.groups))
    assert score_candidates_naive(toy, 1, flipped, top_k=size) == want
    assert score_stage(toy, 1, flipped, top_k=size) != want


def byte_edge_spec(length, poly):
    """Register 0 (the target: two taps of `length` bits) and a 5-bit
    register 1 with one tap, under three-input majority."""
    return GeneratorSpec(
        lfsrs=(LfsrSpec(length, poly, taps=(0, 5)),
               LfsrSpec(5, 0b100101, taps=(1,))),
        function=BooleanFunction(3, [0, 0, 0, 1, 0, 1, 1, 1]),
        wiring=((0, 0), (0, 1), (1, 0)))


@pytest.mark.parametrize("length, poly, splits", [(8, 0x11D, (0, 3)),
                                                  (16, 0x1100B, (0, 5))])
@pytest.mark.parametrize("known", [{}, {1: 0b10110}])
def test_score_stage_at_byte_edge_widths_equals_naive(length, poly, splits,
                                                      known):
    # 8-bit columns are uint8 against a 9-bit count-array index, 16-bit
    # ones uint16 against a 17-bit index; filtered relations go through
    # the stored-bases window read, harvested ones through its slices
    spec = byte_edge_spec(length, poly)
    rng = np.random.default_rng(length)
    ks = Keystream(rng.integers(0, 2, size=1200).astype(np.uint8))
    eqs = filter_known(spec, harvest_equations(
        ks, [Weight4Multiple(3, 17, 40), Weight4Multiple(7, 9, 61)],
        max_equations=700), known)
    width = np.min_scalar_type((1 << length) - 1)
    assert all(c.dtype == width
               for cols, _ in iter_column_chunks(spec, 0, eqs) for c in cols)
    top_k = 1 << 8 if length == 8 else 10
    want = score_candidates_naive(spec, 0, eqs, top_k=top_k)
    for split in splits:
        assert score_stage(spec, 0, eqs, top_k, split) == want, split


def filtered_toy_stage(toy, nbits):
    """Register 2 of the toy against relations of four arbitrary
    multiples filtered on registers 0 and 1: four known inputs keep about
    1/16 of them, with bases spread over the whole keystream."""
    ks = toy_keystream(toy, nbits)
    mults = [Weight4Multiple(3 + i, 17 + 2 * i, 40 + 3 * i) for i in range(4)]
    raw = harvest_equations(ks, mults)
    eqs = filter_known(toy, raw, {0: 0x10f, 1: 0x219})
    assert eqs.total * 14 < raw.total
    return eqs


def test_column_windows_stay_within_a_chunk_plus_the_taps(toy, monkeypatch):
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 1 << 10)
    eqs = filtered_toy_stage(toy, 1 << 16)
    _, taps = attack._target(toy, 2)
    spans = []
    quad_sum = attack._quad_sum

    def recorded(values, mult, run):
        spans.append(run.stop - run.start)
        return quad_sum(values, mult, run)

    monkeypatch.setattr(attack, "_quad_sum", recorded)
    chunks = list(iter_column_chunks(toy, 2, eqs))
    assert sum(classes.size for _, classes in chunks) == eqs.total
    assert len(spans) == len(chunks)
    assert max(spans) <= attack.DEFAULT_CHUNK + max(taps)


def test_fill_tables_on_a_sparse_filtered_stage_follows_the_chunk(
        toy, monkeypatch):
    # about 2**16 of 2**20 relations survive the filter: each chunk reads
    # one window of at most 2**12 + 8 positions, never one spread over the
    # 16 times wider range of 2**12 stored bases, and cutting a group into
    # chunks copies none of its bases
    import tracemalloc
    monkeypatch.setattr(attack, "DEFAULT_CHUNK", 1 << 12)
    eqs = filtered_toy_stage(toy, (1 << 18) + 64)
    class_counts = eqs.class_counts
    list(iter_column_chunks(toy, 2, eqs))  # warm the residue cache
    tracemalloc.start()
    try:
        tables = attack._fill_tables(iter_column_chunks(toy, 2, eqs), 2, 9,
                                     class_counts, prefix=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tables.nbytes + 2 * attack.DEFAULT_CHUNK * 8


def test_stage_scorer_rejects_bad_top_k_before_work(toy, monkeypatch):
    def no_columns(*args, **kwargs):
        raise AssertionError("built columns before checking top_k")

    eqs = scored_stage(toy, nbits=1 << 14, max_eq=500)
    monkeypatch.setattr(attack, "iter_column_chunks", no_columns)
    with pytest.raises(ValidationError, match="top_k"):
        score_stage(toy, 0, eqs, top_k=0)


def test_run_attack_rejects_bad_top_k_before_work(toy, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched multiples before checking top_k")

    monkeypatch.setattr(attack, "search_stage_multiples", no_search)
    monkeypatch.setattr(attack, "harvest_equations", no_search)
    with pytest.raises(ValidationError, match="top_k"):
        run_attack(toy, toy_keystream(toy, 1 << 16), top_k=0)


@pytest.mark.parametrize("split", [-1, 14])
def test_run_attack_rejects_bad_split_before_work(toy, monkeypatch, split):
    # the longest scored register has 13 bits, so 14 cannot split it
    def no_harvest(*args, **kwargs):
        raise AssertionError("harvested before checking split_bits")

    monkeypatch.setattr(attack, "harvest_equations", no_harvest)
    with pytest.raises(ValidationError, match="split_bits"):
        run_attack(toy, toy_keystream(toy, 1 << 16), split_bits=split)


def test_run_attack_rejects_unrunnable_final_stage_before_work(monkeypatch):
    # the paper instance's last register has 37 bits, beyond the final
    # direct search; nothing may be searched or harvested first
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the final stage")

    monkeypatch.setattr(attack, "search_stage_multiples", no_work)
    monkeypatch.setattr(attack, "harvest_equations", no_work)
    bits = np.random.default_rng(5).integers(0, 2, 4000, dtype=np.uint8)
    with pytest.raises(ValidationError, match=r"stage 3 \(register 2\)"):
        run_attack(presets.generator_29_31_37(), Keystream(bits))


@pytest.mark.parametrize("nbits", [0, 1, 48])
def test_run_attack_rejects_keystream_below_final_window(toy, monkeypatch,
                                                         nbits):
    # the final stage's 9-bit register needs a 9 + 40 = 49-bit window;
    # nothing may be searched or harvested first
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the keystream length")

    monkeypatch.setattr(attack, "search_stage_multiples", no_work)
    monkeypatch.setattr(attack, "harvest_equations", no_work)
    with pytest.raises(ValidationError, match="needs at least 49"):
        run_attack(toy, toy_keystream(toy, nbits))


def test_run_attack_short_keystream_warns(toy):
    ks = toy_keystream(toy, 1200)
    try:
        result = run_attack(toy, ks, top_k=4)
        reports = result.reports
    except AttackExhaustedError as exc:
        reports = exc.result.reports
    assert any(r.warnings for r in reports)


def test_run_attack_exhausts_on_unrelated_bits(toy):
    rng = np.random.default_rng(3)
    junk = Keystream(rng.integers(0, 2, size=1 << 16).astype(np.uint8))
    with pytest.raises(AttackExhaustedError) as info:
        run_attack(toy, junk, top_k=2)
    assert info.value.result is not None
    assert info.value.result.backtracks > 0


def test_backtrack_searches_each_stage_once(toy, monkeypatch):
    # the true stage-1 candidate is forced to rank third, so stage 2 is
    # visited three times; its multiples and relations are made once
    true0 = toy.split_state(TRUE_KEY)[0]
    searched = []
    real_search, real_score = (attack.search_stage_multiples,
                               attack.score_stage)

    def counted_search(spec, stage, ks_len):
        searched.append(stage.target)
        return real_search(spec, stage, ks_len)

    def demoted_score(spec, target, eqs, top_k, split_bits):
        ranked = real_score(spec, target, eqs, top_k, split_bits)
        if target != 0:
            return ranked
        rest = [c for c in ranked if c.candidate != true0]
        assert len(rest) == len(ranked) - 1
        return rest[:2] + [c for c in ranked if c.candidate == true0] \
            + rest[2:]

    monkeypatch.setattr(attack, "search_stage_multiples", counted_search)
    monkeypatch.setattr(attack, "score_stage", demoted_score)
    result = run_attack(toy, toy_keystream(toy))
    assert result.state == TRUE_KEY
    assert sorted(searched) == [0, 1]
    assert [r.target for r in result.reports if r.multiples].count(1) == 3


def test_run_attack_drops_multiples_that_cancel_the_target(toy):
    # stage 1's multiples of P11*P9 cancel register 2 but also stage 2's
    # target, register 1, so every stage-2 candidate would tie
    ks = toy_keystream(toy)
    ap = plan(toy)
    _, m0 = search_stage_multiples(toy, ap.stages[0], len(ks))
    result = run_attack(toy, ks, ap, multiples={0: m0, 1: m0})
    assert result.state == TRUE_KEY
    stage2 = [m for r in result.reports if r.stage == 1 for m in r.multiples]
    assert stage2 and not any(verify_multiple(m, [toy.lfsrs[1]])
                              for m in stage2)


def test_run_attack_cache_round_trip(toy, tmp_path, monkeypatch):
    ks = toy_keystream(toy)
    first = run_attack(toy, ks, cache_dir=str(tmp_path))
    moduli = [product_modulus([toy.lfsrs[1], toy.lfsrs[2]]),
              toy.lfsrs[2].feedback]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"multiples-0x{m:x}.txt" for m in moduli)

    def no_search(*args, **kwargs):
        raise AssertionError("searched multiples despite the cache")

    monkeypatch.setattr(attack, "search_stage_multiples", no_search)
    second = run_attack(toy, ks, cache_dir=str(tmp_path))
    assert second.state == first.state == TRUE_KEY
    assert ([r.multiples for r in second.reports]
            == [r.multiples for r in first.reports])


def test_run_attack_cache_serves_a_shorter_keystream_in_full(
        toy, tmp_path, caplog):
    # a cache written on 2**19 bits holds few multiples; at 2**15 bits
    # they offer too few relations, so the stage searches again
    run_attack(toy, toy_keystream(toy), cache_dir=str(tmp_path))
    ap = plan(toy)
    with caplog.at_level("INFO", logger="combgen"):
        try:
            reports = run_attack(toy, toy_keystream(toy, 1 << 15), ap,
                                 cache_dir=str(tmp_path)).reports
        except AttackExhaustedError as exc:
            reports = exc.result.reports
    scored = {r.stage: r.relations_raw for r in reports if r.multiples}
    assert scored == {0: ap.stages[0].raw_target, 1: ap.stages[1].raw_target}
    assert sorted(scored.values()) == [532480, 1802240]
    assert caplog.text.count("cached multiples offer") == 2


def test_run_attack_harvests_a_repeated_multiple_once(toy):
    ks = toy_keystream(toy)
    ap = plan(toy)
    _, m0 = search_stage_multiples(toy, ap.stages[0], len(ks))

    def stage1_multiples_used(pool):
        result = run_attack(toy, ks, ap, multiples={0: pool})
        assert result.state == TRUE_KEY
        return [r.multiples for r in result.reports if r.stage == 0]

    once = stage1_multiples_used(m0)
    assert len(set(once[0])) > 1
    assert stage1_multiples_used(m0 + m0) == once


def test_search_stage_multiples_that_finds_none_names_the_modulus(toy):
    # 20 bits leave the scan a degree bound of 19, below any multiple
    stage = plan(toy).stages[0]
    modulus = product_modulus([toy.lfsrs[1], toy.lfsrs[2]])
    with pytest.raises(ValidationError, match=f"0x{modulus:x}"):
        search_stage_multiples(toy, stage, 20)


def test_search_stage_multiples_returns_verified(toy):
    ap = plan(toy)
    modulus, chosen = search_stage_multiples(toy, ap.stages[0], 1 << 17)
    assert modulus == product_modulus([toy.lfsrs[1], toy.lfsrs[2]])
    assert chosen
    degrees = [m.t3 for m in chosen]
    assert degrees == sorted(degrees)


# ------------------------------------------------------------ input checks


def unwired_spec():
    """Register 1 has no taps, so it feeds no input of f."""
    return GeneratorSpec(
        lfsrs=(LfsrSpec(3, P3, taps=(0,)), LfsrSpec(4, 0b10011, taps=())),
        function=BooleanFunction(1, [0, 1]), wiring=((0, 0),))


NO_RELATIONS = attack.EquationSet(np.zeros(64, dtype=np.uint8), ())
ZEROS = Keystream(np.zeros(100, dtype=np.uint8))


@pytest.mark.parametrize("call, match", [
    (lambda toy: plan(unwired_spec()), "register 1 feeds no inputs"),
    (lambda toy: score_stage(unwired_spec(), 1, NO_RELATIONS),
     "register 1 feeds no inputs"),
    (lambda toy: score_stage(toy, 0, NO_RELATIONS, split_bits=-1),
     r"split_bits must lie in \[0, 13\]"),
    (lambda toy: score_stage(toy, 0, NO_RELATIONS, split_bits=14),
     r"split_bits must lie in \[0, 13\]"),
    (lambda toy: search_stage_multiples(toy, plan(toy).stages[-1], 1 << 12),
     "the final stage uses direct search"),
    (lambda toy: final_direct_search(toy, ZEROS, {0: 1}),
     r"exactly one unknown register, got \[1, 2\]"),
    (lambda toy: final_direct_search(presets.generator_29_31_37(), ZEROS,
                                     {0: 1, 1: 1}),
     "limited to length <= 26"),
    (lambda toy: final_direct_search(toy, ZEROS[:8], {0: 1, 1: 1}),
     "window shorter than the register"),
    (lambda toy: candidate_counts_naive(presets.generator_29_31_37(), 0,
                                        NO_RELATIONS),
     "naive scoring limited to m1 <= 22"),
    (lambda toy: zero_sum_fraction(toy, TRUE_KEY, NO_RELATIONS),
     "empty relation set"),
], ids=["plan-unwired", "score-unwired", "split-negative", "split-past-m1",
        "final-stage-multiples", "direct-two-unknown", "direct-37-bits",
        "direct-short-keystream", "naive-29-bits", "zero-sum-empty"])
def test_input_checks_refuse_before_work(toy, call, match):
    with pytest.raises(ValidationError, match=match):
        call(toy)
