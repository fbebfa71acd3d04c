"""Staged recovery of combination-generator initial states.

One stage targets one register.  Weight-4 multiples of the product of
the not-yet-targeted registers' feedback polynomials turn keystream
positions (t, t+t1, t+t2, t+t3) into relations whose untargeted input
contributions cancel; already-recovered registers are handled by keeping
only relations whose known contribution is zero.  Each surviving
relation then says: if the candidate target state is right, the four
target-input sums are all zero with the quadruple-sum advantage of the
combining function, else (for this package's preset filters, and in
general up to the spectrum gap) essentially no advantage.  Relations
flow as one restartable chunk stream: a harvest stores one run per
multiple, and filtering stores only the survivors.

`score_stage` scores all 2**m1 candidates with one mask-count array,
a row per relation class, and one Walsh transform per row instead of a
per-candidate pass (`score_candidates_naive`, its oracle); a split
parameter trades table memory for repeated accumulation passes.
Once the first stage has given its register, every register left is
solved at once where the linearization of Courtois and Meier fits (the
collapse, `collapse_solve`): the known inputs restrict f at each
keystream bit, and each low-degree annihilator of the restriction is one
equation in the open state, so one GF(2) elimination over its monomials,
on the rows of the collapse's planned window, recovers them.  Where it
does not fit, later registers are scored in turn, and the last one falls
to a collapse of its own, with the direct search over its states
(`final_direct_search`) as the oracle.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, groupby, permutations

import numpy as np

from .boolfn import annihilators, autocorrelation, fwht, p_spectrum
from .errors import AttackExhaustedError, InvariantError, ValidationError
from .fileio import load_multiples_cache, save_multiples_cache
from .gf2 import (GeneratorSpec, Keystream, input_words, keystream,
                  residue_powers, residue_powers_reference, solve_linear)
from .gf2 import sequence_bits  # noqa: F401  perfbench/spans.py wraps it here
from .multiples import (MultipleSearchReport, Weight4Multiple, degree_key,
                        density_bound, find_weight4, product_modulus,
                        verify_multiple)

# keystream positions per relation chunk: its window and columns, at
# the register's width, stay in a core's L2
DEFAULT_CHUNK = 1 << 16
DEFAULT_BEAM = 8
FINAL_WINDOW_EXTRA = 40
RAW_MARGIN = 1.25
# A scored stage plans the relations that lift the true candidate's
# expected z, eps * sqrt(relations / 2**n1), above the largest z among
# its 2**m1 candidates' noise, about sqrt(2 * m1 * ln 2), by Z_MARGIN.
Z_MARGIN = 4
_RANK_SLICE = 1 << 20
_COUNT_SLICE = 1 << 16
# The collapse linearizes over the monomials of degree at most its degree
# in the open state bits, planned only while they number at most
# COLLAPSE_MAX_MONOMIALS and, for two or more registers, at a degree of
# at most COLLAPSE_MAX_DEGREE.  Its window offers COLLAPSE_WINDOW_FACTOR
# equations per monomial on average, and its one solve, where the rank
# falls short, enumerates at most 2**COLLAPSE_MAX_FREE states.  Rows are
# built lazily in slabs of time steps whose uint8 rows, one byte per
# monomial, take at most _COLLAPSE_SLAB bytes (a step selecting more
# rows than that is a slab of its own).
COLLAPSE_MAX_DEGREE = 2
COLLAPSE_MAX_MONOMIALS = 1 << 12
COLLAPSE_WINDOW_FACTOR = 2
COLLAPSE_MAX_FREE = 8
_COLLAPSE_SLAB = 1 << 18

_log = logging.getLogger("combgen")

# Printed after the plan's ordering comparison: the first-stage equation
# count N = m1 * 2**(2n + n1 + 1) scales with the length m1 of whichever
# register is targeted first, so orderings that shrink keystream (larger
# m2) pay for it in equations and search time (larger m1).
EQUATION_SCALING_NOTE = (
    "equation counts N = m1 * 2^(2n+n1+1) scale with the first target's "
    "length m1, so orderings differ in N as well as in keystream")


# --------------------------------------------------------------------------
# planning


@dataclass(frozen=True)
class _Stage:
    """What every stage kind records: the target register, its length
    m1 and wired inputs n1; the later registers (group2), with summed
    length m2 and inputs n2, which a scored stage cancels and a collapse
    solves with the target; the known ones, with inputs n_known."""

    target: int
    known: tuple
    group2: tuple
    m1: int
    m2: int
    n1: int
    n2: int
    n_known: int

    def heading(self, number):
        return (f"stage {number}: register {self.target} "
                f"(m1={self.m1})  known={list(self.known)}  "
                f"cancelled={list(self.group2)} (m2={self.m2}, n2={self.n2})")


@dataclass(frozen=True)
class ScoredStage(_Stage):
    """Cost model for scoring one register over weight-4 relations that
    cancel the group2 registers.  samples_required and the figures built
    on it are the paper's generic bound; the stage harvests for
    equations_planned relations, sized from f's quadruple-sum bias
    eps = 2 * P(0) - 1 (`bias`, None for an unbalanced f) in _stage.
    blowup, the factor by which the worst-case spectrum gap raises the
    sample count, is math.inf when the combining function has a linear
    structure."""

    samples_required: int
    keystream_single: int
    keystream_multi: int
    blowup: float
    bias: Fraction | None
    equations_planned: int
    is_final = False  # perfbench/workloads.py reads it

    @property
    def equations_required(self):
        return self.samples_required << self.n1

    @property
    def raw_target(self):
        """Raw relations to harvest: the planned count, times 2**n_known
        for the known-register filter, times RAW_MARGIN to spare."""
        return math.ceil(self.equations_planned * (1 << self.n_known)
                         * RAW_MARGIN)

    @property
    def z_target(self):
        return _z_target(self.m1)

    @property
    def predicted_z(self):
        """The truth's expected z over the raw target's share that passes
        the known-register filter, eps * sqrt(raw / 2**(n_known + n1));
        None where no positive bias sized the stage."""
        if not _sizes(self.bias):
            return None
        return float(self.bias) * math.sqrt(
            self.raw_target / (1 << self.n_known + self.n1))

    @property
    def keystream_estimate(self):
        return min(self.keystream_single, self.keystream_multi)

    @property
    def samples_worstcase(self):
        return self._worst(self.samples_required)

    @property
    def equations_worstcase(self):
        return self._worst(self.equations_required)

    def _worst(self, figure):
        """figure times the blow-up, math.inf when that is unbounded."""
        if self.blowup == math.inf:
            return math.inf
        return math.ceil(figure * self.blowup)

    def _planned(self):
        """describe's lines on the planned relations."""
        if not _sizes(self.bias):
            why = ("f is unbalanced" if self.bias is None
                   else f"bias eps = {self.bias} is not positive")
            return [f"  planned: the paper's bound; {why}"]
        return [f"  planned: N = {self.equations_planned} = "
                f"2^{math.log2(self.equations_planned):.2f} from bias "
                f"eps = {self.bias} = 2^{math.log2(self.bias):.2f}",
                f"  z: target {self.z_target:.2f} (noise maximum "
                f"{self.z_target - Z_MARGIN:.2f} + {Z_MARGIN}), predicted "
                f"{self.predicted_z:.2f} on {self.raw_target} raw relations"]

    def describe(self):
        worst = "unbounded (the combining function has a linear structure)"
        if self.blowup < math.inf:
            worst = (f"S = {self.samples_worstcase}, "
                     f"N = {self.equations_worstcase}")
        tradeoff_memory_log2 = math.log2(self.equations_required) - 1
        return [
            f"  paper's bound: samples S = {self.samples_required} = "
            f"2^{math.log2(self.samples_required):.2f}   "
            f"equations N = {self.equations_required} = "
            f"2^{math.log2(self.equations_required):.2f}   "
            f"(n1={self.n1})",
            *self._planned(),
            f"  worst-case spectrum-gap figures: {worst}",
            f"  keystream: one multiple -> "
            f"{_bits_human(self.keystream_single)}; "
            f"many multiples -> {_bits_human(self.keystream_multi)}; "
            f"planned {_bits_human(self.keystream_estimate)}",
            f"  search: time 2^{math.log2(self.m1) + self.n1 + self.m1:.2f}, "
            f"memory 2^{self.m1:.2f} counters; tradeoff "
            f"endpoint time 2^{tradeoff_memory_log2 + self.m1:.2f}, "
            f"memory 2^{tradeoff_memory_log2:.2f}"]


@dataclass(frozen=True)
class CollapseStage(_Stage):
    """The target and every later register (group2) solved at once, the
    known registers given.  At each keystream bit the known inputs pick
    a restriction of f, and each annihilator of degree at most `degree`
    of that restriction (of its complement where the bit is 0) is one
    equation in the open state bits, linear over their `monomials`
    monomials of degree at most `degree`, the constant included.
    per_bit is the exact mean number of such equations per keystream
    bit (_restricted_annihilators)."""

    degree: int
    per_bit: Fraction
    monomials: int
    is_final = True  # perfbench/workloads.py reads it

    @property
    def registers(self):
        return (self.target, *self.group2)

    @property
    def window(self):
        """Keystream bits of the first solve: COLLAPSE_WINDOW_FACTOR
        equations per monomial on average, plus FINAL_WINDOW_EXTRA."""
        return (math.ceil(COLLAPSE_WINDOW_FACTOR * self.monomials
                          / self.per_bit) + FINAL_WINDOW_EXTRA)

    @property
    def keystream_estimate(self):
        return self.window

    def check(self, number, ks_len):
        """Raise unless a ks_len-bit keystream covers the window."""
        if ks_len < self.window:
            raise ValidationError(
                f"keystream has {ks_len} bits; the collapse of registers "
                f"{list(self.registers)} (stage {number}) needs at least "
                f"{self.window}")

    def heading(self, number):
        return (f"stage {number}: registers {list(self.registers)} "
                f"(m={self.m1 + self.m2})  known={list(self.known)}")

    def describe(self):
        return [f"  collapse: degree {self.degree} over {self.monomials} "
                f"monomials, {float(self.per_bit):.3f} equations per "
                f"keystream bit, window of {self.window} bits"]


@dataclass(frozen=True)
class AttackPlan:
    spec: GeneratorSpec
    order: tuple
    stages: tuple
    keystream_required: int

    @property
    def orderings(self):
        """(order, first stage) for every target order of a 2- to
        4-register spec, built on each read; () for other counts."""
        count = len(self.order)
        if not 2 <= count <= 4:
            return ()
        blowup = self.stages[0].blowup
        return tuple((order, _stage(self.spec, order, 0, blowup))
                     for order in permutations(range(count)))

    def describe(self):
        lines = [f"attack plan, target order {list(self.order)}"]
        for i, st in enumerate(self.stages, start=1):
            lines.append(st.heading(i))
            lines.extend(st.describe())
        lines.append(
            f"total keystream required: {_bits_human(self.keystream_required)}")
        rows = self.orderings
        if rows:
            lines += ["first-stage cost by ordering:",
                      "  order      m1  n1  m2     N                keystream"]
            lines += [f"  {str(list(order)):<9} {st.m1:>3} {st.n1:>3} "
                      f"{st.m2:>3}  N = {st.equations_required} = "
                      f"2^{math.log2(st.equations_required):5.2f}  "
                      f"{st.keystream_estimate} bits = "
                      f"2^{math.log2(st.keystream_estimate):5.2f}"
                      for order, st in rows]
            lines.append(f"note: {EQUATION_SCALING_NOTE}")
        if not self.stages[0].is_final:
            lines.append(
                "warning: an all-zero register state gives no usable "
                "statistic; candidate 0 ranks last, so such keys are "
                "recovered only with top_k = 2**m1")
        return "\n".join(lines)


def _bits_human(bits):
    nbytes = bits / 8
    if nbytes >= 1 << 20:
        human = f"{nbytes / (1 << 20):.2f} MB"
    elif nbytes >= 1 << 10:
        human = f"{nbytes / (1 << 10):.0f} KB"
    else:
        human = f"{nbytes:.0f} B"
    return f"{bits} bits = 2^{math.log2(bits):.2f} ({human})"


def _stage_fields(spec, order, idx):
    """The _Stage fields of stage idx of the plan for `order`."""
    target, known, group2 = order[idx], order[:idx], order[idx + 1:]
    return dict(
        target=target, known=known, group2=group2,
        m1=spec.lfsrs[target].length,
        m2=sum(spec.lfsrs[r].length for r in group2),
        n1=len(spec.inputs_of_register(target)),
        n2=sum(len(spec.inputs_of_register(r)) for r in group2),
        n_known=sum(len(spec.inputs_of_register(r)) for r in known))


@functools.lru_cache(maxsize=64)
def _quad_bias(function):
    """eps = 2 * P(0) - 1 of f's quadruple sum (boolfn.p_spectrum), exact,
    or None for an unbalanced f, whose P spectrum assumes balance."""
    if not function.is_balanced:
        return None
    return 2 * p_spectrum(function).p0 - 1


def _sizes(bias):
    """True where a bias sizes a stage: known and positive."""
    return bias is not None and bias > 0


def _z_target(m1):
    """The truth's planned z among 2**m1 candidates: their noise maximum,
    sqrt(2 * m1 * ln 2), plus Z_MARGIN."""
    return math.sqrt(2 * m1 * math.log(2)) + Z_MARGIN


def _stage(spec, order, idx, blowup):
    """Scored stage idx of the plan that targets the registers in
    `order`; some register must follow it.

    The paper's bound is m1 * 2**(2n + 1) samples of 2**n1 equations.
    The stage plans S = ceil((z / eps)**2) samples instead, z its
    _z_target, so the truth's expected z reaches z, capped at the bound;
    an unbalanced f or a bias eps <= 0 keeps the bound."""
    shared = _stage_fields(spec, order, idx)
    target, m1, n1 = shared["target"], shared["m1"], shared["n1"]
    if n1 == 0:
        raise ValidationError(
            f"register {target} feeds no inputs and cannot be scored")
    samples = m1 << (2 * spec.n + 1)
    bias = _quad_bias(spec.function)
    planned = samples
    if _sizes(bias):
        planned = min(samples, math.ceil((_z_target(m1) / bias) ** 2))
    raw = (samples << n1) << shared["n_known"]
    m2 = shared["m2"]
    # the weight-4 multiples of degree up to L offer sum(L - t3), about
    # L**4 / (24 * 2**m2) relations, so L = (24 * raw * 2**m2)**(1/4)
    return ScoredStage(
        **shared, samples_required=samples,
        keystream_single=raw + math.ceil(density_bound(m2)),
        keystream_multi=math.ceil((24 * raw * 2.0 ** m2) ** (1 / 4)),
        blowup=blowup, bias=bias, equations_planned=planned << n1)


def _split_inputs(spec, known):
    """f's inputs wired from the registers in `known`, and the others,
    each as an ascending tuple."""
    known_in = sorted(j for r in known for j, _ in spec.inputs_of_register(r))
    return tuple(known_in), tuple(sorted(set(range(spec.n)) - set(known_in)))


def _spread(positions):
    """For each i below 2**len(positions), the word that carries bit k
    of i at bit positions[k]."""
    i = np.arange(1 << len(positions))
    word = np.zeros_like(i)
    for k, j in enumerate(positions):
        word |= ((i >> k) & 1) << j
    return word


def _truth_tables(anf):
    """The truth tables of rows of ANF coefficients: entry x is the XOR
    of the coefficients on the subsets u of x (a uint8 sum keeps its
    parity as it wraps)."""
    x = np.arange(anf.shape[1])
    return anf @ ((x[:, None] & x) == x[:, None]).astype(np.uint8) & 1


@functools.lru_cache(maxsize=64)
def _restricted_annihilators(function, known_in, open_in, degree):
    """(equations, count, cases, used) for f with the inputs known_in
    known.

    Bit k of a pattern a is known input known_in[k], bit k of an open
    point y open input open_in[k].  equations[a][z] holds the
    annihilators of degree at most `degree` that keystream bit z leaves
    at pattern a, as read-only truth tables over the open points; count
    sums their number over the cases, every (a, y) with z = f(a, y).
    used is the frozenset of terms, each a mask of open inputs, with a
    nonzero ANF coefficient in an equation that some case selects."""
    tables = function.table[_spread(known_in)[:, None]
                            | _spread(open_in)[None, :]]
    # bit z leaves the annihilators of f (z = 1) or of 1 + f (z = 0)
    anf = [[annihilators(t ^ z ^ 1, degree) for z in (0, 1)]
           for t in tables]
    equations = tuple(tuple(_truth_tables(a) for a in eq) for eq in anf)
    for eq in equations:
        for a in eq:
            a.setflags(write=False)
    count = sum(int(t.sum()) * len(eq[1])
                + (t.size - int(t.sum())) * len(eq[0])
                for t, eq in zip(tables, equations))
    used = frozenset(int(u) for t, eq in zip(tables, anf)
                     for z in set(t.tolist())
                     for u in np.flatnonzero(eq[z].any(0)))
    return equations, count, tables.size, used


def _collapse_stage(spec, order, idx):
    """The collapse of the registers order[idx:] with order[:idx] known,
    at the lowest degree whose equations pin each register it solves,
    or None.

    A register is pinned when some used term (_restricted_annihilators)
    is a product of its inputs alone: linearization makes every other
    product a variable of its own, so a register that enters only
    through products with another one's inputs is never determined.  A
    collapse of two or more registers keeps to COLLAPSE_MAX_DEGREE; the
    last register alone may take any degree up to its number of inputs,
    and raises ValidationError where none fits COLLAPSE_MAX_MONOMIALS.
    """
    registers = order[idx:]
    shared = _stage_fields(spec, order, idx)
    known_in, open_in = _split_inputs(spec, order[:idx])
    where = {j: k for k, j in enumerate(open_in)}
    own = [sum(1 << where[j] for j, _ in spec.inputs_of_register(r))
           for r in registers]
    top = len(open_in) if len(registers) == 1 else COLLAPSE_MAX_DEGREE
    reason = f"is pinned by no annihilator of degree up to {top}"
    for degree in range(1, top + 1):
        _, count, cases, used = _restricted_annihilators(
            spec.function, known_in, open_in, degree)
        if all(any(u and not u & ~mine for u in used) for mine in own):
            monomials = sum(math.comb(shared["m1"] + shared["m2"], i)
                            for i in range(degree + 1))
            if monomials <= COLLAPSE_MAX_MONOMIALS:
                return CollapseStage(**shared, degree=degree,
                                     monomials=monomials,
                                     per_bit=Fraction(count, cases))
            reason = (f"needs degree {degree} over {monomials} monomials, "
                      f"more than COLLAPSE_MAX_MONOMIALS = "
                      f"{COLLAPSE_MAX_MONOMIALS}")
            break
    if len(registers) > 1:
        return None
    raise ValidationError(
        f"no collapse ends order {list(order)}: register {registers[0]} "
        f"(open inputs {list(open_in)}) {reason}")


def plan(spec, order=None):
    """Per-stage cost model for recovering the registers in `order`.

    Stage 1 is a ScoredStage, unless the spec has one register.  From
    stage 2 on, the first stage whose registers fit a collapse
    (_collapse_stage) solves them all and ends the plan; until then each
    register gets a ScoredStage.  The last register always gets a
    collapse of its own, or plan raises ValidationError before any
    search or harvest; so it does for a register whose every input f
    ignores, which no keystream bit determines.

    Each ScoredStage harvests for the relations that f's exact bias
    needs (_stage), and keeps the paper's generic figures, keystream
    included, as its bound.  The autocorrelation peak delta of the
    combining function feeds the worst-case sample counts: the
    guaranteed spectrum gap shrinks as (1 - delta/2**n)**2, so the
    sample cost grows by its inverse square.
    """
    if order is None:
        order = tuple(range(len(spec.lfsrs)))
    order = tuple(int(r) for r in order)
    if sorted(order) != list(range(len(spec.lfsrs))):
        raise ValidationError(f"order {order} is not a permutation of the "
                              f"registers")
    table = spec.function.table
    points = np.arange(table.size)
    ignored = [r for r in range(len(order))
               if (inputs := spec.inputs_of_register(r))
               and all(np.array_equal(table, table[points ^ 1 << j])
                       for j, _ in inputs)]
    if ignored:
        raise ValidationError(
            f"f ignores every input of registers {ignored}, so no "
            f"keystream bit depends on them")
    delta = autocorrelation(spec.function).delta
    n = spec.n
    blowup = (1 - delta / (1 << n)) ** -4 if delta < (1 << n) else math.inf
    stages = []
    for idx in range(len(order)):
        collapse = (_collapse_stage(spec, order, idx)
                    if idx or len(order) == 1 else None)
        stages.append(collapse or _stage(spec, order, idx, blowup))
        if collapse:
            break
    return AttackPlan(
        spec=spec, order=order, stages=tuple(stages),
        keystream_required=max(st.keystream_estimate for st in stages))


# --------------------------------------------------------------------------
# relations


@dataclass(frozen=True, eq=False)
class EquationGroup:
    """The relations of one weight-4 multiple: a harvested group is the
    run of bases 0 .. count-1 and stores no array; a filtered group
    stores its surviving bases (int32, first keystream positions) and
    classes (uint8, keystream sums over the four positions)."""

    multiple: Weight4Multiple
    count: int
    bases: np.ndarray | None = None
    classes: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EquationSet:
    """Relation groups over the keystream `bits` they index."""

    bits: np.ndarray
    groups: tuple

    @property
    def total(self):
        return sum(g.count for g in self.groups)

    @property
    def class_counts(self):
        ones = sum(int(np.count_nonzero(classes))
                   for _, _, classes in _relation_chunks(self))
        return self.total - ones, ones


def _relation_chunks(eqs):
    """Yield (multiple, bases, classes) per chunk of at most DEFAULT_CHUNK
    keystream positions of every group (_group_chunks).  Each call
    restarts the stream."""
    for g in eqs.groups:
        for bases, classes in _group_chunks(eqs.bits, g):
            yield g.multiple, bases, classes


def _group_chunks(bits, g):
    """Yield (bases, classes) per chunk of one group; the one reader of
    both group formats.  A run's bases come as a slice; a filtered
    group's come as a sorted index array, cut where its bases cross a
    multiple of DEFAULT_CHUNK past the first, so _window_sums reads any
    chunk from a window of at most DEFAULT_CHUNK positions whatever the
    share of relations kept."""
    if g.bases is None:
        for lo in range(0, g.count, DEFAULT_CHUNK):
            run = slice(lo, min(lo + DEFAULT_CHUNK, g.count))
            yield run, _quad_sum(bits, g.multiple, run)
        return
    # cut points in the bases' own dtype, so the search copies nothing
    edges = np.searchsorted(g.bases, np.arange(
        g.bases[0], g.bases[-1] + 1, DEFAULT_CHUNK, dtype=g.bases.dtype))
    edges = [*edges.tolist(), g.count]
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:
            yield g.bases[lo:hi], g.classes[lo:hi]


def _lowest_degree(mults, ks_len, wanted=None, usable=None):
    """(multiple, relations) for the distinct multiples inside a ks_len-bit
    keystream, lowest degree first, until they offer `wanted` relations
    (the last offer cut to fit); every stage picks its multiples here.
    `usable`, if given, is asked only of the multiples the walk reaches."""
    picked = []
    room = math.inf if wanted is None else wanted
    for m in sorted(set(mults), key=degree_key):
        if m.t3 >= ks_len or room <= 0:
            break
        if usable is not None and not usable(m):
            continue
        picked.append((m, min(ks_len - m.t3, room)))
        room -= picked[-1][1]
    return picked


def harvest_equations(ks, mults, max_equations=None):
    """Extract 4-position relations for each multiple from a keystream.

    Distinct multiples are consumed in ascending degree until
    `max_equations` relations (the last group truncated).  A multiple's
    relations form one run, stored as its count alone.
    """
    bits = Keystream.of(ks).bits
    if bits.size >= 1 << 31:
        raise ValidationError("keystream beyond 2^31 bits is unsupported")
    if max_equations is not None and max_equations < 1:
        raise ValidationError("max_equations must be at least 1")
    groups = tuple(EquationGroup(m, count) for m, count
                   in _lowest_degree(mults, bits.size, max_equations))
    if not groups:
        raise ValidationError("no relations: every multiple outruns the "
                              "keystream (need more keystream or lower-degree "
                              "multiples)")
    return EquationSet(bits, groups)


def _quad_sum(values, mult, run):
    """values XOR-summed over the four positions base + (0, t1, t2, t3)
    of each base in the slice `run`, by contiguous XORs."""
    lo, hi = run.start, run.stop
    return (values[lo:hi] ^ values[lo + mult.t1:hi + mult.t1]
            ^ values[lo + mult.t2:hi + mult.t2]
            ^ values[lo + mult.t3:hi + mult.t3])


def _window_sums(values, mult, bases, shifts=(0,)):
    """For each p in shifts, values XOR-summed over the four positions
    base + p + (0, t1, t2, t3) of each base of one chunk.

    One _quad_sum covers the chunk's position range plus max(shifts);
    each shift is then a slice of that window for a run, or one gather
    from it for stored bases."""
    if isinstance(bases, slice):
        lo, hi, picks = bases.start, bases.stop, None
    else:
        lo, hi = int(bases[0]), int(bases[-1]) + 1
        picks = bases - lo
    window = _quad_sum(values, mult, slice(lo, hi + max(shifts)))
    if picks is None:
        return [window[p:p + hi - lo] for p in shifts]
    return [window[p:][picks] for p in shifts]


def filter_known(spec, eqs, known):
    """Keep relations whose known-register contributions sum to zero.

    `known` maps register index -> recovered initial state.  Each wired
    input of a known register must individually cancel over the four
    relation positions, which holds for about 2**-n_known of them; the
    survivors are stored, 5 bytes each.
    """
    if not known:
        return eqs
    words = input_words(spec, known, eqs.bits.size)
    groups = []
    for mult, chunks in groupby(_relation_chunks(eqs), key=lambda c: c[0]):
        bases, classes = [], []
        for _, b, c in chunks:
            keep = np.flatnonzero(_window_sums(words, mult, b)[0] == 0)
            bases.append((keep + b.start).astype(np.int32)
                         if isinstance(b, slice) else b[keep])
            classes.append(c[keep])
        bases = np.concatenate(bases)
        if bases.size:
            groups.append(EquationGroup(mult, bases.size, bases,
                                        np.concatenate(classes)))
    if not groups:
        raise ValidationError("known-register filtering left no relations; "
                              "harvest more keystream or more multiples")
    return EquationSet(eqs.bits, tuple(groups))


# --------------------------------------------------------------------------
# linear-form columns and mask accumulation


def _target(spec, target):
    """The register a stage scores, and its wired taps in input order."""
    taps = [p for _, p in spec.inputs_of_register(target)]
    if not taps:
        raise ValidationError(f"register {target} feeds no inputs")
    return spec.lfsrs[target], taps


def _folds(eqs, lf):
    """The period pi = 2**m1 - 1 of register lf, and per group whether
    iter_column_chunks folds it: a harvested run of at least pi bases."""
    period = (1 << lf.length) - 1
    return period, [g.bases is None and g.count >= period
                    for g in eqs.groups]


def _folded_counts(bits, mult, count, period, lo, hi):
    """(n0, n1) for the residues lo .. hi - 1 of a run of `count` bases:
    the class-0 and class-1 relations among the bases tau, tau + period,
    ... below count.  Whole periods are summed in blocks of at most
    DEFAULT_CHUNK bases, the last, partial one on its own."""
    width = hi - lo
    # periods k whose bases k * period + lo .. k * period + hi - 1 all run
    full = (count - hi) // period + 1
    rows = max(1, DEFAULT_CHUNK // period) if width == period else 1
    ones = np.zeros(width, np.int32)
    for k in range(0, full, rows):
        n = min(rows, full - k)
        block = _quad_sum(bits, mult, slice(k * period + lo,
                                            (k + n - 1) * period + hi))
        ones += block.reshape(n, width).sum(0, dtype=np.int32)
    seen = np.full(width, full, np.int32)
    # the first `tail` residues have one more base, in period `full`
    tail = count - full * period - lo
    if tail > 0:
        ones[:tail] += _quad_sum(bits, mult, slice(full * period + lo, count))
        seen[:tail] += 1
    return seen - ones, ones


def iter_column_chunks(spec, target, eqs):
    """Yield the column chunks of register `target` without holding
    every column at once; columns come in the residue table's
    register-width dtype, which covers only the positions they read.

    A group yields (columns, classes) per relation chunk, unless it is a
    harvested run of at least one period pi = 2**m1 - 1 of the register.
    Such a run is folded: X**pi mod P = 1, so the relation at base t has
    the masks of base t mod pi.  It yields (columns, classes, weights)
    per chunk of at most DEFAULT_CHUNK // 2 residues, each residue
    twice, class 0 then class 1, weighted by its relation counts n0 and
    n1 (_folded_counts), so no chunk outgrows DEFAULT_CHUNK entries.  The
    count arrays come out as the relations'."""
    lf, taps = _target(spec, target)
    period, folds = _folds(eqs, lf)
    # one past the last base each group reads, plus its span
    reach = max(((period if fold else g.count if g.bases is None
                  else int(g.bases[-1]) + 1) + g.multiple.t3
                 for g, fold in zip(eqs.groups, folds)), default=0)
    table = residue_powers(lf.feedback, reach + max(taps))
    if any(folds) and table[period] != 1:
        raise InvariantError(f"X**{period} mod 0x{lf.feedback:x} is not 1; "
                             f"the fold needs the register's period")
    for g, fold in zip(eqs.groups, folds):
        if not fold:
            for bases, classes in _group_chunks(eqs.bits, g):
                yield _window_sums(table, g.multiple, bases, taps), classes
            continue
        width = max(1, DEFAULT_CHUNK // 2)
        for lo in range(0, period, width):
            hi = min(lo + width, period)
            cols = _window_sums(table, g.multiple, slice(lo, hi), taps)
            yield ([np.tile(c, 2) for c in cols],
                   np.repeat(np.uint8([0, 1]), hi - lo),
                   np.concatenate(_folded_counts(eqs.bits, g.multiple,
                                                 g.count, period, lo, hi)))


def _table_dtype(total, n1):
    """int32 when total * 2**n1, which bounds every entry of the count
    array and every partial sum of its transform, fits; else int64."""
    return np.int32 if total << n1 < 1 << 31 else np.int64


def _key_dtype(m1):
    """Narrowest unsigned dtype of an (m1 + 1)-bit key."""
    return np.min_scalar_type((2 << m1) - 1)


def _mask_keys(cols, classes, n1, m1, split_bits, out=None):
    """One chunk's (m1 + 1)-bit keys in out (new if None), a run per
    nonzero mask in Gray-code order (one XOR each): the class, the mask's
    low m1 - split_bits bits, then its high split_bits bits, so key >>
    split_bits indexes the flattened (2, 2**(m1 - split_bits)) array."""
    n, suffix_bits = classes.size, m1 - split_bits
    if out is None:
        out = np.empty(n * ((1 << n1) - 1), _key_dtype(m1))
    rows = classes.astype(out.dtype) << m1
    for y in range(1, 1 << n1):
        v = cols[0] if y == 1 else v ^ cols[(y & -y).bit_length() - 1]
        rot = ((v & ((1 << suffix_bits) - 1)) << split_bits
               | v >> suffix_bits) if split_bits else v
        np.bitwise_or(rows, rot, out=out[(y - 1) * n:y * n],
                      casting="unsafe")
    return out


def _accumulate_chunk(tables, cols, classes, n1, split_bits=0, prefix=0,
                      weights=None):
    """Add one chunk's mask counts, signed for prefix and times each
    entry's weight (1 if None), into the count array, row = class, by
    unsorted scatters of its keys: one, or one per mask if weighted."""
    m1 = tables.shape[1].bit_length() - 1 + split_bits
    keys = _mask_keys(cols, classes, n1, m1, split_bits)
    if weights is None:
        _scatter_keys(tables, keys, split_bits, prefix)
        return
    for run in keys.reshape((1 << n1) - 1, classes.size):
        _scatter_keys(tables, run, split_bits, prefix, weights)


def _fill_tables(chunks, n1, bits, class_counts, split_bits=0, prefix=0):
    """(2, 2**bits) mask-count array over every chunk for one prefix, row
    b counting the class-b relations; entry 0 of each row is seeded with
    its class count (the all-zero mask of each relation)."""
    tables = np.zeros((2, 1 << bits), _table_dtype(sum(class_counts), n1))
    tables[:, 0] = class_counts
    for cols, classes, *weights in chunks:
        _accumulate_chunk(tables, cols, classes, n1, split_bits, prefix,
                          *weights)
    return tables


def _sorted_keys(chunks, m1, n1, total, split_bits):
    """Every unweighted (columns, classes) chunk's _mask_keys in one
    array of total * (2**n1 - 1) entries, filled in place and sorted."""
    step = (1 << n1) - 1
    keys = np.empty(total * step, _key_dtype(m1))
    hi = 0
    for cols, classes in chunks:
        lo, hi = hi, hi + classes.size * step
        _mask_keys(cols, classes, n1, m1, split_bits, keys[lo:hi])
    if hi != keys.size:
        raise InvariantError(f"chunks held {hi} of {keys.size} keys")
    keys.sort()
    return keys


def _scatter_keys(tables, keys, split_bits, prefix, weights=None):
    """Add each key's sign, the parity of (key AND prefix), times its
    weight (1 if None) at entry key >> split_bits of tables, one
    cache-sized slice at a time; returns tables."""
    flat = tables.reshape(-1)
    for lo in range(0, keys.size, _COUNT_SLICE):
        k = keys[lo:lo + _COUNT_SLICE]
        sign = 1 - 2 * (np.bitwise_count(k & prefix) & 1).astype(
            tables.dtype) if prefix else tables.dtype.type(1)
        if weights is not None:
            sign = weights[lo:lo + _COUNT_SLICE] * sign
        # a Python int 1 would take np.add.at's casting path, 30x slower
        np.add.at(flat, k >> split_bits if split_bits else k, sign)
    return tables


def candidate_counts(w0, w1, n1, class_counts):
    """Turn mask-count tables into per-candidate (n0, n1) relation counts.

    Transforms in place (the tables are consumed), each row with
    class_counts[b] * 2**n1 as its bound on sum|a|: _fill_tables adds
    that many signs of +-1 to row b.  Every transformed entry must be
    divisible by 2**n1 and land in [0, class count]; a violation means
    corrupted tables and raises.
    """
    mask = (1 << n1) - 1
    for b, w in enumerate((w0, w1)):
        fwht(w, bound=class_counts[b] << n1)
        # one pass over each cache-sized slice runs every check
        for lo in range(0, w.size, _COUNT_SLICE):
            part = w[lo:lo + _COUNT_SLICE]
            if np.any(part & mask):
                raise InvariantError("transformed counts not divisible "
                                     "by 2**n1")
            part >>= n1
            if int(part.min()) < 0:
                raise InvariantError("negative relation count")
            if int(part.max()) > class_counts[b]:
                raise InvariantError("relation count exceeds class size")
    return w0, w1


@dataclass(frozen=True)
class CandidateScore:
    candidate: int
    n0: int
    n1: int

    @property
    def total(self):
        return self.n0 + self.n1

    @property
    def bias(self):
        return (self.n0 - self.n1) / self.total if self.total else 0.0

    @property
    def zscore(self):
        return ((self.n0 - self.n1) / math.sqrt(self.total)
                if self.total else 0.0)


def _zscores(a, b):
    """(a - b) / sqrt(a + b) in float64, -inf where a + b is 0."""
    tot = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tot > 0, (a - b) / np.sqrt(np.maximum(tot, 1)),
                        -np.inf)


def _margins(a, b, skip_first, out=None):
    """d = a - b, its first entry set below any margin when skip_first."""
    d = np.subtract(a, b, out=out)
    if skip_first:
        d[0] = np.iinfo(d.dtype).min
    return d


def _kth_largest(values, k):
    return np.partition(values, values.size - k)[values.size - k]


def _rank_blocks(blocks, top_k):
    """Merge (offset, n0, n1) blocks into score_stage's top-k list.

    Blocks are ranked in slices of _RANK_SLICE entries, each through one
    integer temporary d = n0 - n1 (candidate 0 excluded).  A floor below
    which no z can enter the list is the running list's k-th z once it
    is full and positive, else the k-th largest exact z of the slice's
    top_k largest d.  For a floor f > 0, z >= f needs
    d >= f * sqrt(n0 + n1), and n0 + n1 is at least min n0 + min n1 and
    at least d, so only the candidates with d at or above
    f * sqrt(max(min n0 + min n1, f**2)), less a rounding margin, get a
    float z; with no positive floor the whole slice does.  Of those,
    every z above the k-th largest is kept, then the ties at that z in
    candidate order, so the answer is independent of the slicing and of
    split_bits.
    """
    best = []
    for offset, n0, n1c in blocks:
        for lo in range(0, n0.size, _RANK_SLICE):
            sl = slice(lo, min(lo + _RANK_SLICE, n0.size))
            a, b = n0[sl], n1c[sl]
            has_zero = offset == 0 and lo == 0
            d = _margins(a, b, has_zero)
            floor = best[-1][0] if len(best) == top_k else -math.inf
            if floor <= 0:
                # the k-th largest d, then d again: partition reorders it
                k = min(top_k, d.size)
                d.partition(d.size - k)
                dk = int(d[d.size - k])
                _margins(a, b, has_zero, out=d)
                if dk > 0:
                    top = np.flatnonzero(d >= dk)
                    floor = float(_kth_largest(_zscores(a[top], b[top]), k))
            if floor > 0:
                # the margin covers the float rounding of z and the bound
                tot_min = max(int(a.min()) + int(b.min()), floor * floor)
                keep = np.flatnonzero(
                    d >= math.ceil(floor * math.sqrt(tot_min) * (1 - 1e-9)))
                d = None
                if not keep.size:
                    continue
                z = _zscores(a[keep], b[keep])
            else:
                keep = d = None
                z = _zscores(a, b)
                if has_zero:
                    z[0] = -np.inf
            k = min(top_k, z.size)
            kth = _kth_largest(z, k)
            above = np.flatnonzero(z > kth)
            for i in (*above, *np.flatnonzero(z == kth)[:k - above.size]):
                j = i if keep is None else keep[i]
                best.append((float(z[i]), int(offset + lo + j),
                             int(a[j]), int(b[j])))
            best.sort(key=lambda t: (-t[0], t[1]))
            best = best[:top_k]
        # drop the block before the generator builds the next one
        n0 = n1c = a = b = d = z = None
    return [CandidateScore(candidate=c, n0=a, n1=b) for _, c, a, b in best]


def candidate_counts_naive(spec, target, eqs):
    """Oracle scorer for register `target`: every relation from its
    definition, then each candidate tested against each relation.

    A relation of a group sits at the positions base + (0, t1, t2, t3),
    bases 0 .. count-1 for a harvested run or the stored ones; its class
    is the keystream's sum over them, so stored classes are checked too,
    and tap p's mask is the sum of the plain-loop residues X**(pos + p)."""
    lf, taps = _target(spec, target)
    if lf.length > 22:
        raise ValidationError("naive scoring limited to m1 <= 22")
    pos = np.concatenate([
        np.add.outer(np.arange(g.count) if g.bases is None else g.bases,
                     np.array(g.multiple.shifts)) for g in eqs.groups])
    residues = residue_powers_reference(lf.feedback,
                                        int(pos.max()) + max(taps) + 1)
    is0 = np.bitwise_xor.reduce(eqs.bits[pos], axis=1) == 0
    masks = [np.bitwise_xor.reduce(residues[pos + p], axis=1) for p in taps]
    size = 1 << lf.length
    n0 = np.zeros(size, dtype=np.int64)
    n1c = np.zeros(size, dtype=np.int64)
    for u in range(size):
        selected = np.ones(is0.size, dtype=bool)
        for mask in masks:
            selected &= (np.bitwise_count(mask & u) & 1) == 0
        n0[u] = np.count_nonzero(selected & is0)
        n1c[u] = np.count_nonzero(selected) - n0[u]
    return n0, n1c


def score_candidates_naive(spec, target, eqs, top_k=DEFAULT_BEAM):
    """Oracle ranking: every candidate from candidate_counts_naive sorted
    by (-z, candidate), candidate 0 and candidates that match no relation
    last, as score_stage documents."""
    n0, n1c = candidate_counts_naive(spec, target, eqs)
    scores = [CandidateScore(u, int(a), int(b))
              for u, (a, b) in enumerate(zip(n0, n1c))]

    def z(s):
        return s.zscore if s.candidate and s.total else -math.inf
    return sorted(scores, key=lambda s: (-z(s), s.candidate))[:top_k]


def _tradeoff_blocks(chunks_factory, m1, n1, class_counts, split_bits,
                     weighted=False):
    """Yield (offset, n0, n1) per prefix of the split candidate space.

    chunks_factory() restarts the chunk stream; each pass fills one (2,
    2**(m1 - split_bits)) count array.  A split stage whose keys fit in
    as many bytes as the array streams once and sorts them, so each pass
    walks the array in order; a larger one, or a `weighted` one (with
    folded chunks, iter_column_chunks), restreams every pass.
    """
    if not 0 <= split_bits <= m1:
        raise ValidationError(f"split_bits must lie in [0, {m1}]")
    total, suffix_bits = sum(class_counts), m1 - split_bits
    key_bytes = total * ((1 << n1) - 1) * _key_dtype(m1).itemsize
    table_bytes = np.dtype(_table_dtype(total, n1)).itemsize << suffix_bits + 1
    keys = None
    if split_bits and not weighted and key_bytes <= table_bytes:
        keys = _sorted_keys(chunks_factory(), m1, n1, total, split_bits)
    for prefix in range(1 << split_bits):
        # built inside the yield: no local keeps this pass's count array
        # alive while the next pass fills its own
        yield (prefix << suffix_bits, *candidate_counts(*(
            _fill_tables(chunks_factory(), n1, suffix_bits, class_counts,
                         split_bits, prefix) if keys is None else
            _scatter_keys(_fill_tables((), n1, suffix_bits, class_counts),
                          keys, split_bits, prefix)),
            n1, class_counts))


def check_top_k(top_k):
    """Raise unless top_k keeps at least one candidate."""
    if top_k < 1:
        raise ValidationError(f"top_k must be at least 1, got {top_k}")


def score_stage(spec, target, eqs, top_k=DEFAULT_BEAM, split_bits=0):
    """Top-k of register `target`'s 2**m1 candidate states against `eqs`
    by (n0-n1)/sqrt(n0+n1) descending, ties broken by candidate value;
    candidate 0 matches every relation and ranks below any with one.

    Column chunks (iter_column_chunks) feed 2**split_bits prefix passes,
    each over one (2, 2**(m1 - split_bits)) count array.  A harvested run
    of at least one period pi = 2**m1 - 1 of the register is folded into
    weighted entries, one per residue mod pi and class, and such a stage
    restreams every pass; else a split stage whose keys, 2**n1 - 1 per
    relation, fit in as many bytes as the array streams once.
    """
    check_top_k(top_k)
    lf, taps = _target(spec, target)
    blocks = _tradeoff_blocks(lambda: iter_column_chunks(spec, target, eqs),
                              lf.length, len(taps), eqs.class_counts,
                              split_bits, any(_folds(eqs, lf)[1]))
    return _rank_blocks(blocks, top_k)


# --------------------------------------------------------------------------
# the collapse's oracle: direct search for the last register


def final_direct_search(spec, ks, known):
    """Recover the one remaining register by filtering all its states,
    the oracle of a collapse that solves the last register alone.

    Uses a window of length + FINAL_WINDOW_EXTRA keystream bits; each wrong
    state survives a bit only with the function's agreement probability,
    so the expected number of false survivors is far below one.  Returns
    the surviving states, each matching every bit of the window, in
    ascending order.
    """
    bits = Keystream.of(ks).bits
    unknown = [r for r in range(len(spec.lfsrs)) if r not in known]
    if len(unknown) != 1:
        raise ValidationError(f"direct search needs exactly one unknown "
                              f"register, got {unknown}")
    r_open = unknown[0]
    lf = spec.lfsrs[r_open]
    if lf.length > 26:
        raise ValidationError("direct search enumerates 2**length states; "
                              "limited to length <= 26")
    window = min(bits.size, lf.length + FINAL_WINDOW_EXTRA)
    if window < lf.length:
        raise ValidationError("window shorter than the register")
    open_inputs = spec.inputs_of_register(r_open)
    known_x = input_words(spec, known, window)
    table = residue_powers(lf.feedback, window + max(lf.taps, default=0))
    alive = np.arange(1 << lf.length, dtype=np.int64)
    for t in range(window):
        x = np.full(alive.size, known_x[t], dtype=np.int32)
        for j, p in open_inputs:
            bit = (np.bitwise_count(alive & int(table[t + p])) & 1)
            x |= bit.astype(np.int32) << j
        alive = alive[spec.function.table[x] == bits[t]]
        if alive.size == 0:
            break
    return [int(v) for v in alive]


# --------------------------------------------------------------------------
# the collapse: every open register from one GF(2) elimination


def _collapse_words(spec, stage, lo, hi):
    """(hi - lo, m) words, m = m1 + m2, for the time steps [lo, hi), in
    the narrowest unsigned dtype of the open inputs: bit k of word u is
    open input k's coefficient on state bit u, open inputs in ascending
    input order.  The open state holds register stage.registers[i] at
    the summed length of those before it."""
    lengths = [spec.lfsrs[r].length for r in stage.registers]
    offsets = dict(zip(stage.registers, accumulate([0, *lengths])))
    wired = sorted((j, r, p) for r in stage.registers
                   for j, p in spec.inputs_of_register(r))
    dtype = np.min_scalar_type((1 << len(wired)) - 1)
    words = np.zeros((hi - lo, sum(lengths)), dtype=dtype)
    for k, (_, r, p) in enumerate(wired):
        lf = spec.lfsrs[r]
        masks = residue_powers(lf.feedback, hi + p)[lo + p:]
        coeffs = masks[:, None] >> np.arange(lf.length, dtype=masks.dtype)
        words[:, offsets[r]:offsets[r] + lf.length] |= (
            (coeffs & 1).astype(dtype) << k)
    return words


@functools.lru_cache(maxsize=16)
def _collapse_sets(m, degree):
    """For each size s = 1 .. degree, (bits, subsets) of the sets of s of
    m state bits in itertools.combinations order: each set's bits, and
    the variable of each of its 2**s subsets, the set itself last and the
    empty set's variable the right-hand side."""
    blocks = [list(combinations(range(m), s)) for s in range(1, degree + 1)]
    index = {c: i for i, c in enumerate([*sum(blocks, []), ()])}
    return tuple((np.array(block), np.array(
        [[index[t] for k in range(len(c) + 1) for t in combinations(c, k)]
         for c in block])) for block in blocks)


def _collapse_rows(spec, stage, patterns, bits, window):
    """The collapse's rows in gf2.solve_linear's layout for the keystream
    bits [0, window), built one slab of time steps at a time.

    At time t, pattern patterns[t] and bit bits[t] select the
    annihilators equations[pattern][bit] of _restricted_annihilators;
    each gives the row of h(s) = g(L(s)), g composed with the open
    inputs' linear forms, of degree at most stage.degree in the open
    state s.  Variable i < m is state bit i; above them come the
    products of s state bits for s = 2 .. degree, a block per s in
    itertools.combinations order (for pairs, np.triu_indices order).
    The coefficient of h on the product over a set S of state bits is
    the XOR over T ⊆ S of h(1_T), where h(1_T) = g(XOR over u in T of
    the word w_u, _collapse_words); the empty set gives g(0), the
    right-hand side.

    Slabs are sized by the rows their steps select, known before any is
    built.  solve_linear stops at full rank, which no elimination
    reaches before nvars rows, so the first slab ends once it holds
    nvars rows plus FINAL_WINDOW_EXTRA (the window's own margin past its
    planned equations); later ones fill _COLLAPSE_SLAB bytes, as does
    the first when that is less.  Rows come in time order, each step's
    in its annihilators' order, so the rows read up to any point are
    those of a prefix of the keystream.
    """
    nvars = stage.monomials - 1
    known_in, open_in = _split_inputs(spec, stage.known)
    equations = _restricted_annihilators(spec.function, known_in, open_in,
                                         stage.degree)[0]
    sets = _collapse_sets(stage.m1 + stage.m2, stage.degree)
    keys = patterns[:window] << 1 | bits[:window]
    ends = np.cumsum(np.array([len(g) for eq in equations for g in eq])[keys])
    budget = max(1, _COLLAPSE_SLAB // (nvars + 1))
    lo, want = 0, nvars + FINAL_WINDOW_EXTRA
    while lo < window:
        done = int(ends[lo - 1]) if lo else 0
        # through the step that brings `want` rows, within the budget
        hi = min(int(np.searchsorted(ends, done + want)) + 1,
                 int(np.searchsorted(ends, done + budget, side="right")),
                 lo + budget, window)
        hi, want = max(hi, lo + 1), budget
        words = _collapse_words(spec, stage, lo, hi)
        # the open point at each set's state, the empty set's 0 last
        points = np.zeros((hi - lo, nvars + 1), dtype=words.dtype)
        for members, subsets in sets:
            points[:, subsets[:, -1]] = np.bitwise_xor.reduce(
                words[:, members], axis=2)
        slab = keys[lo:hi]
        # one gather per key, grouped by annihilator, then by step
        groups = [(equations[key >> 1][key & 1], np.flatnonzero(slab == key))
                  for key in np.unique(slab).tolist()]
        rows = np.concatenate([eq[:, points[at]].reshape(-1, nvars + 1)
                               for eq, at in groups])
        # in place from the largest sets down, as a set's subsets are
        # no larger than it
        for _, subsets in reversed(sets):
            rows[:, subsets[:, -1]] = np.bitwise_xor.reduce(rows[:, subsets],
                                                            axis=2)
        # emitted in time order: a stable sort on each row's step
        packed = np.packbits(rows, axis=1, bitorder="little")[np.argsort(
            np.concatenate([np.tile(at, len(eq)) for eq, at in groups]),
            kind="stable")]
        raw, width = packed.tobytes(), packed.shape[1]
        for at in range(0, len(raw), width):
            yield int.from_bytes(raw[at:at + width], "little")
        lo = hi


def _collapse(spec, ks, known, stage):
    """collapse_solve's states and the rank reached (None when the rows
    are inconsistent)."""
    bits = Keystream.of(ks).bits
    if set(known) != set(stage.known):
        raise ValidationError(f"the collapse needs registers "
                              f"{sorted(stage.known)} known, got "
                              f"{sorted(known)}")
    window = stage.window
    if bits.size < window:
        raise ValidationError(f"keystream has {bits.size} bits; the "
                              f"collapse needs at least {window}")
    known_in, _ = _split_inputs(spec, stage.known)
    words = input_words(spec, known, window)
    patterns = np.zeros(window, dtype=np.intp)
    for k, j in enumerate(known_in):
        patterns |= ((words >> j) & 1).astype(np.intp) << k
    solved = solve_linear(_collapse_rows(spec, stage, patterns, bits, window),
                          stage.monomials - 1)
    if solved is None:
        return [], None
    solution, null = solved
    # free directions that move a state bit, as a reduced basis
    free = []
    for v in null:
        v &= (1 << stage.m1 + stage.m2) - 1
        for b in free:
            v = min(v, v ^ b)
        if v:
            free = sorted([*free, v], reverse=True)
    if len(free) > COLLAPSE_MAX_FREE:
        raise ValidationError(
            f"the collapse of registers {list(stage.registers)} leaves "
            f"{len(free)} free directions in its state bits on its "
            f"{window}-bit window, more than the {COLLAPSE_MAX_FREE} it "
            f"enumerates")
    found = []
    for pick in range(1 << len(free)):
        x = solution
        for k, v in enumerate(free):
            if pick >> k & 1:
                x ^= v
        states = {}
        for r in stage.registers:
            length = spec.lfsrs[r].length
            states[r] = x & ((1 << length) - 1)
            x >>= length
        # a collapse ends the plan: known and solved make the whole state
        whole = {**known, **states}
        state = spec.join_state([whole[r] for r in sorted(whole)])
        if keystream(spec, state, window) == Keystream(bits[:window]):
            found.append(states)
    found.sort(key=lambda st: [st[r] for r in sorted(st)])
    return found, stage.monomials - 1 - len(null)


def collapse_solve(spec, ks, known, stage):
    """Solve every register of a CollapseStage from `known` (register ->
    state, exactly stage.known) by one GF(2) elimination.

    The rows of the first stage.window keystream bits (_collapse_rows)
    go to gf2.solve_linear once; the states are the solution's first m
    bits.  Every assignment of the free directions that still move a
    state bit (at most 2**COLLAPSE_MAX_FREE, else ValidationError) is
    kept if, with `known`, gf2.keystream regenerates every bit of the
    window from it.  Returns the kept states as dicts (register ->
    state), ascending; an inconsistent system, as a wrong known state
    gives, returns [].
    """
    return _collapse(spec, ks, known, stage)[0]


# --------------------------------------------------------------------------
# full attack driver


@dataclass(frozen=True)
class StageReport:
    stage: int
    target: int
    known: dict
    candidates: tuple
    seconds: float
    multiples: tuple = ()
    relations_raw: int = 0
    relations_used: int = 0
    warnings: tuple = ()
    # a collapse's rank reached (None if its rows are inconsistent)
    rank: int | None = None


@dataclass
class AttackResult:
    success: bool
    state: int | None
    order: tuple
    reports: list = field(default_factory=list)
    backtracks: int = 0
    seconds: float = 0.0


def _spares_target(spec, stage):
    """A multiple that the target's feedback also divides cancels the
    target too, so every candidate of the stage would tie; keep the
    others."""
    target = [spec.lfsrs[stage.target]]
    return lambda m: not verify_multiple(m, target)


def search_stage_multiples(spec, stage, ks_len):
    """Search enough weight-4 multiples for one scored stage.

    Climbs a ladder of degree bounds: the first expects as many multiples
    as the stage's raw relation target needs at ks_len relations each,
    and each next one is 2**(1/3) times higher, which doubles the expected
    count, resuming the scan below it.  Stops once the usable multiples
    found offer that target in ks_len bits, or at the period of X modulo
    the product or the keystream's end, and returns (modulus, the
    lowest-degree usable prefix that meets it); run_attack caches that.
    """
    if not isinstance(stage, ScoredStage):
        raise ValidationError("a collapse stage uses no multiples")
    modulus = product_modulus([spec.lfsrs[r].feedback for r in stage.group2])
    raw_target = stage.raw_target
    # a searched multiple cancels the group2 registers by construction
    usable = _spares_target(spec, stage)
    # the collision scan needs distinct residues, so never look past
    # the order of X modulo the product
    period = math.lcm(*((1 << spec.lfsrs[r].length) - 1
                        for r in stage.group2))
    cap = min(ks_len - 1, period)
    rung = max(density_bound(stage.m2, math.ceil(raw_target / ks_len)), 8)
    report = None
    while True:
        bound = min(math.ceil(rung), cap)
        report = find_weight4(modulus, bound, after=report)
        picked = _lowest_degree(report.found, ks_len, raw_target, usable)
        if sum(n for _, n in picked) >= raw_target or bound >= cap:
            break
        rung *= 2 ** (1 / 3)
    if not picked:
        raise ValidationError(
            f"no usable weight-4 multiple of modulus 0x{modulus:x} below the "
            f"keystream length; supply caches or more keystream")
    return modulus, [m for m, _ in picked]


def _stage_multiples(spec, idx, stage, ks_len, supplied, cache_dir):
    """The multiples one scored stage harvests, lowest degree first up to
    its raw relation target at ks_len bits: picked from the supplied ones
    if any is usable, else from the cache if they meet the target, else
    by a search that rewrites the cache.  Outside multiples must cancel
    the group2 registers but not the target, or its candidates all tie;
    each is verified only when the pick reaches it."""
    group = [spec.lfsrs[r].feedback for r in stage.group2]
    modulus = product_modulus(group)
    name = f"stage {idx + 1} (register {stage.target})"
    raw_target = stage.raw_target
    spares = _spares_target(spec, stage)

    def usable(m):
        return verify_multiple(m, group) and spares(m)

    picked = _lowest_degree(supplied, ks_len, raw_target, usable)
    if picked:
        return [m for m, _ in picked]
    path = cache_dir and os.path.join(cache_dir,
                                      f"multiples-0x{modulus:x}.txt")
    if path and os.path.exists(path):
        _log.info(f"{name}: multiples from cache {path}")
        picked = _lowest_degree(load_multiples_cache(path).found, ks_len,
                                raw_target, usable)
        offered = sum(n for _, n in picked)
        if offered >= raw_target:
            return [m for m, _ in picked]
        _log.info(f"{name}: cached multiples offer {offered} of {raw_target} "
                  f"relations")
    _log.info(f"{name}: searching multiples of 0x{modulus:x}")
    t0 = time.perf_counter()
    _, chosen = search_stage_multiples(spec, stage, ks_len)
    top = chosen[-1].t3
    _log.info(f"{name}: {len(chosen)} multiples up to degree {top} in "
              f"{time.perf_counter() - t0:.2f}s")
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        save_multiples_cache(path, MultipleSearchReport(
            modulus=modulus, degree_bound=top, found=tuple(chosen)))
        _log.info(f"saved cache {path}")
    return chosen


def run_attack(spec, ks, attack_plan=None, multiples=None, top_k=DEFAULT_BEAM,
               split_bits=0, cache_dir=None):
    """Recover the full initial state from a keystream.

    Stages follow the plan's order; at each stage the top_k candidates
    are tried depth-first, so a stage-1 miss can be repaired by
    backtracking, and the recovered state must regenerate the keystream
    exactly; a collapse stage tries each of its solutions.  Each scored
    stage's multiples are harvested once, before
    the search, lowest degree first up to its raw relation target: from
    `multiples` (stage index -> list of Weight4Multiple), else from
    `cache_dir` if they reach the target, else by a search saved to
    `cache_dir`; progress goes to the "combgen" logger.  split_bits is a
    memory budget: one count array of 2**(M - split_bits) entries per
    row, M the longest scored register, and at most as many bytes of
    sorted keys, kept while they fit.  That stage scores in
    2**split_bits prefix passes; a stage of m1 bits splits only the
    max(0, m1 - M + split_bits) bits that do not fit, so a stage whose
    table fits scores in one pass.  A top_k below 1, a split_bits
    outside [0, M], a plan for another spec or a keystream shorter than
    the last collapse's window is rejected before any work.
    """
    check_top_k(top_k)
    if attack_plan is None:
        attack_plan = plan(spec)
    if attack_plan.spec != spec:
        raise ValidationError("the attack plan is for another generator")
    scored = {idx: st for idx, st in enumerate(attack_plan.stages)
              if isinstance(st, ScoredStage)}
    longest = max((st.m1 for st in scored.values()), default=0)
    if not 0 <= split_bits <= longest:
        raise ValidationError(
            f"split_bits must lie in [0, {longest}], the longest scored "
            f"register's length, got {split_bits}")
    table_bits = longest - split_bits
    ks = Keystream.of(ks)
    attack_plan.stages[-1].check(len(attack_plan.stages), len(ks))
    if len(ks) < attack_plan.keystream_required:
        _log.warning(f"warning: keystream has {len(ks)} bits, below the "
                     f"plan estimate {attack_plan.keystream_required}; "
                     f"proceeding with degraded confidence")
    started = time.perf_counter()
    result = AttackResult(success=False, state=None, order=attack_plan.order)
    # raw relations per scored stage, harvested once for all visits
    harvests = {}
    for idx, stage in scored.items():
        pool = _stage_multiples(spec, idx, stage, len(ks),
                                (multiples or {}).get(idx) or (), cache_dir)
        harvests[idx] = harvest_equations(ks, pool,
                                          max_equations=stage.raw_target)

    def solve(idx, known):
        if idx == len(attack_plan.stages):
            state = spec.join_state([known[r] for r in sorted(known)])
            return state if keystream(spec, state, len(ks)) == ks else None
        stage = attack_plan.stages[idx]
        t0 = time.perf_counter()
        if isinstance(stage, ScoredStage):
            raw = harvests[idx]
            eqs = filter_known(spec, raw, known)
            warnings = ()
            if eqs.total < stage.equations_planned:
                warnings = (f"only {eqs.total} relations survive filtering, "
                            f"below the planned {stage.equations_planned}",)
            ranked = score_stage(spec, stage.target, eqs, top_k,
                                 max(0, stage.m1 - table_bits))
            result.reports.append(StageReport(
                stage=idx, target=stage.target, known=dict(known),
                multiples=tuple(g.multiple for g in raw.groups),
                relations_raw=raw.total,
                relations_used=eqs.total, candidates=tuple(ranked),
                seconds=time.perf_counter() - t0, warnings=warnings))
            branches = [{stage.target: c.candidate} for c in ranked]
        else:
            branches, rank = _collapse(spec, ks, known, stage)
            result.reports.append(StageReport(
                stage=idx, target=stage.target, known=dict(known),
                candidates=tuple(branches), rank=rank,
                seconds=time.perf_counter() - t0))
        for i, branch in enumerate(branches):
            # a runner-up of a scored stage is a backtrack; another
            # solution of a collapse is not
            if i and isinstance(stage, ScoredStage):
                result.backtracks += 1
            found = solve(idx + 1, {**known, **branch})
            if found is not None:
                return found
        return None

    try:
        state = solve(0, {})
    finally:
        # solve calls itself through its closure, a reference cycle that
        # would keep the keystream and the harvests alive until the next
        # garbage collection
        del solve
    result.seconds = time.perf_counter() - started
    if state is None:
        raise AttackExhaustedError(
            "all candidate branches rejected", result)
    result.success = True
    result.state = state
    return result


def candidates_tsv(scores):
    """Candidate table as tab-separated text for reports and logs."""
    lines = ["candidate\tn0\tn1\tbias\tzscore"]
    for s in scores:
        lines.append(f"0x{s.candidate:x}\t{s.n0}\t{s.n1}\t"
                     f"{s.bias:.6f}\t{s.zscore:.3f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# diagnostics


def zero_sum_fraction(spec, state, eqs):
    """Fraction of relations whose full input vectors sum to zero.

    With the true state and multiples of every register's feedback
    polynomial this is exactly 1.0; with multiples of only a subgroup it
    drops to about 2**-(inputs wired from uncancelled registers).
    """
    if eqs.total == 0:
        raise ValidationError("empty relation set")
    words = input_words(spec, dict(enumerate(spec.split_state(state))),
                        eqs.bits.size)
    nonzero = sum(
        int(np.count_nonzero(_window_sums(words, mult, bases)[0]))
        for mult, bases, _ in _relation_chunks(eqs))
    return 1.0 - nonzero / eqs.total
