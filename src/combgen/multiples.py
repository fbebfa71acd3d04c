"""Search for weight-4 multiples of feedback polynomial products.

A weight-4 multiple 1 + X**t1 + X**t2 + X**t3 of the product of some
registers' feedback polynomials yields keystream relations that cancel
those registers entirely; the attack conditions on them.  The search
here is the birthday-style collision scan: read X**a mod M for
a = 1..D from gf2's cached residue table (uint32 up to 32 bits, int64
above), then for every pair (a, b) look up whether 1 ^ r_a ^ r_b is
some r_c in a direct-address table that holds the residues themselves,
one gather per pair; only a hit looks up its exponent.  Time O(D**2)
lookups, memory O(D) plus the table.  Pairs are visited by their larger
exponent, so a scan resumes from a report at a lower bound and reads
only the new pairs; attack.search_stage_multiples climbs a ladder of
bounds that way and stops once its picks are settled.

Moduli are limited to gf2.RESIDUE_MAX_DEGREE (62) bits.  A wider product
needs a bound near 2**22 or more before it expects a single multiple,
which a quadratic scan never finishes; its multiples come from outside
(the CLI's --multiples, run_attack(multiples=), or a squaring chain such
as presets.large_multiples_31_37) and still verify here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from .errors import ValidationError
from .gf2 import (RESIDUE_MAX_DEGREE, poly_degree, poly_gcd, poly_mul,
                  residue_powers, residue_powers_reference, x_power_mod)

_SPARE_BITS = 5
_TABLE_BITS_MAX = 22

degree_key = attrgetter("t3", "t2", "t1")  # Weight4Multiple's sort order


@dataclass(frozen=True)
class Weight4Multiple:
    """Exponents of a multiple 1 + X**t1 + X**t2 + X**t3, 0 < t1 < t2 < t3,
    sorting in degree order: t3, then t2, then t1."""

    t1: int
    t2: int
    t3: int

    def __lt__(self, other):
        return degree_key(self) < degree_key(other)

    def __post_init__(self):
        if not 0 < self.t1 < self.t2 < self.t3:
            raise ValidationError(
                f"exponents must satisfy 0 < t1 < t2 < t3, got "
                f"({self.t1}, {self.t2}, {self.t3})")

    @property
    def poly(self):
        return 1 | 1 << self.t1 | 1 << self.t2 | 1 << self.t3

    @property
    def degree(self):
        return self.t3

    @property
    def shifts(self):
        return (0, self.t1, self.t2, self.t3)


@dataclass(frozen=True)
class MultipleSearchReport:
    """Everything a search run found below one degree bound."""

    modulus: int
    degree_bound: int
    found: tuple
    cut: bool = False  # find_weight4's limit dropped some

    @property
    def count(self):
        return len(self.found)

    @property
    def expected(self):
        return expected_count(poly_degree(self.modulus), self.degree_bound)


def product_modulus(polys):
    """Product of pairwise-coprime feedback polynomials.

    Accepts ints or objects with a .feedback attribute.
    """
    polys = [p.feedback if hasattr(p, "feedback") else int(p) for p in polys]
    if not polys:
        raise ValidationError("empty polynomial group")
    for p in polys:
        if poly_degree(p) < 1:
            raise ValidationError("group members must have degree >= 1")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if poly_gcd(polys[i], polys[j]) != 1:
                raise ValidationError(
                    f"polynomials 0x{polys[i]:x} and 0x{polys[j]:x} share a factor")
    return reduce(poly_mul, polys)


def expected_count(degree, bound):
    """Heuristic number of weight-4 multiples with t3 <= bound: D**3 / (6 * 2**m)."""
    if degree < 1 or bound < 1:
        raise ValidationError("need degree >= 1 and bound >= 1")
    return Fraction(bound ** 3, 6 << degree)


def density_bound(degree, count=1):
    """expected_count's inverse: the (float) bound expecting `count`."""
    return (6 * count * 2.0 ** degree) ** (1 / 3)


def verify_multiple(mult, polys):
    """True iff every polynomial in the group divides the multiple.

    Works per exponent with X**t mod p, so huge-degree multiples verify
    in logarithmic time instead of materialising the dense polynomial.
    """
    polys = [p.feedback if hasattr(p, "feedback") else int(p) for p in polys]
    return all(_divides(mult, p) for p in polys)


@lru_cache(maxsize=1 << 12)
def _divides(mult, p):
    """p divides the multiple; remembered, as an attack checks the same
    supplied multiples against the same feedbacks on every call."""
    acc = 1
    for t in (mult.t1, mult.t2, mult.t3):
        acc ^= x_power_mod(t, p)
    return acc == 0


def _pair_hits(r, one, start, tab, mask):
    """(i, j, t) for every pair i < j of r with j >= start whose target
    t = one ^ r[i] ^ r[j] the table holds.

    Rows j come in blocks of at most about 2**16 pairs against the columns
    below the block's last row, each step in the same four buffers; a pair
    costs one gather, tab[t & mask] == t.
    """
    ro = r ^ one
    size = min(max(1 << 16, r.size), r.size * r.size)
    bufs = [np.empty(size, dtype=d) for d in (r.dtype, np.intp, r.dtype, bool)]
    hits = [(np.zeros(0, dtype=np.intp),) * 2 + (r[:0],)]
    j0 = max(start, 1)
    while j0 < r.size:
        j1 = min(r.size, j0 + max(1, (1 << 16) // (j0 + 256)))
        t, key, got, eq = (b[:(j1 - j0) * (j1 - 1)].reshape(j1 - j0, j1 - 1)
                            for b in bufs)
        np.bitwise_xor(ro[j0:j1, None], r[None, :j1 - 1], out=t)
        np.bitwise_and(t, mask, out=key, casting="unsafe")
        np.take(tab, key, out=got, mode="wrap")  # every key is in range
        flat = np.flatnonzero(np.equal(got, t, out=eq))
        jj, i = np.divmod(flat, j1 - 1)
        keep = i < j0 + jj
        hits.append((i[keep], j0 + jj[keep], t.ravel()[flat[keep]]))
        j0 = j1
    return tuple(np.concatenate(h) for h in zip(*hits))


def _collision_scan(r, bound, one=1, exps=None, start=0):
    """Collision scan over residues r (uint32 or int64): raw (a, b, c)
    exponent rows for every triple with r_a ^ r_b ^ r_c = one and a member
    at index start or above, each at least once.

    tab[v & mask] holds one residue v with those low bits (2**_SPARE_BITS
    slots per residue, at most 2**_TABLE_BITS_MAX), and an empty slot a
    value whose low bits differ from its index.  Pairs with their larger
    index at start or above find every such triple with a member held in
    the table, except one whose new member alone is held; pairs of lost
    residues below start find those.  Triples whose members all lost
    their slots are rescanned among the lost on the next bits (a rotation,
    which keeps every XOR relation).
    """
    if exps is None:
        # X**t = 1 for some t < bound repeats every residue past t
        if (r[:-1] == 1).any():
            raise ValidationError("degree bound exceeds the period of X "
                                  "modulo the modulus; the collision scan "
                                  "would miss solutions (lower the bound)")
        exps = np.arange(1, bound + 1)
    if bound < 3:
        return np.zeros((0, 3), dtype=np.int64)
    width = int(max(r.max(), one)).bit_length()
    k = max(1, min(bound.bit_length() + _SPARE_BITS, _TABLE_BITS_MAX, width))
    mask = (1 << k) - 1
    keys = r & mask
    tab = np.arange(1 << k, dtype=r.dtype)
    tab ^= 1  # an empty slot never matches
    tab[keys] = r
    lost = np.flatnonzero(tab[keys] != r)
    order = np.argsort(r)  # finds a hit's index, as the residues are distinct
    i, j, t = _pair_hits(r, one, start, tab, mask)
    c = order[np.searchsorted(r, t, sorter=order)]
    hits = [np.stack((exps[i], exps[j], exps[c]), axis=1)]
    # a triple whose new member alone is held: its other two lost theirs
    below = lost[:np.searchsorted(lost, start)]
    i, j, t = _pair_hits(r[below], one, 0, tab, mask)
    c = order[np.searchsorted(r, t, sorter=order)]
    new = c >= start
    hits.append(np.stack((exps[below[i[new]]], exps[below[j[new]]],
                          exps[c[new]]), axis=1))
    rest = np.append(r[lost], r.dtype.type(one))
    rest = rest >> k | (rest & mask) << (width - k)
    hits.append(_collision_scan(rest[:-1], lost.size, int(rest[-1]),
                                exps[lost], below.size))
    return np.concatenate(hits)


def _check_modulus(modulus):
    """Reject a modulus that can divide no weight-4 multiple."""
    if modulus < 0:
        raise ValidationError(f"modulus must not be negative, got {modulus}")
    deg = poly_degree(modulus)
    if deg < 1:
        raise ValidationError("modulus must have degree >= 1")
    if not modulus & 1:
        raise ValidationError("modulus with zero constant term divides no "
                              "weight-4 multiple")
    if deg > RESIDUE_MAX_DEGREE:
        raise ValidationError(
            f"modulus of degree {deg} is over the {RESIDUE_MAX_DEGREE}-bit "
            f"limit of the collision scan, whose first multiple is expected "
            f"near degree 2^{math.log2(density_bound(deg)):.1f}; supply the "
            f"multiples instead (--multiples, run_attack(multiples=), "
            f"presets.large_multiples_31_37)")


def find_weight4(modulus, degree_bound, limit=None, after=None):
    """All weight-4 multiples of modulus with degree <= degree_bound.

    Exact and exhaustive within the bound.  The report lists multiples
    sorted by degree; `limit`, if given, truncates the sorted list (the
    scan itself always covers the full bound), must not be negative, and
    marks the report `cut` when it drops any.  `after`, an uncut report
    of this function for the same modulus at a bound no higher, resumes
    it: only pairs with an exponent above its bound are scanned, and the
    report equals a scan from scratch.  The residues stay in gf2's cache
    for a later, larger bound; gf2.clear_residue_cache frees them.
    """
    _check_modulus(modulus)
    if degree_bound < 3:
        raise ValidationError("degree bound below the minimum weight-4 degree")
    if degree_bound > 1 << 24:
        raise ValidationError("collision scan is quadratic; bound over 2**24 "
                              "is not practical here")
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must not be negative, got {limit}")
    start, known = 0, ()
    if after is not None:
        if (after.modulus != modulus or after.degree_bound > degree_bound
                or after.cut):
            raise ValidationError(
                "can only resume an uncut report for the same modulus at a "
                "bound no higher")
        start, known = after.degree_bound, after.found
    residues = residue_powers(modulus, degree_bound + 1)[1:]
    wide = poly_degree(modulus) > 32
    raw = _collision_scan(residues.astype(np.int64 if wide else np.uint32),
                          degree_bound, 1, None, start)
    # each triple comes back once per pair of its members: sort each hit,
    # drop any with a repeat, sort the rows by (t3, t2, t1), which is
    # degree order, and keep the first of each run before building objects
    hits = np.sort(raw, axis=1)
    hits = hits[(hits[:, 0] < hits[:, 1]) & (hits[:, 1] < hits[:, 2])]
    hits = hits[np.lexsort(hits.T)]
    first = np.ones(len(hits), dtype=bool)
    first[1:] = (hits[1:] != hits[:-1]).any(axis=1)
    rows = hits[first].tolist()
    found = islice(chain(known, (Weight4Multiple(*t) for t in rows)), limit)
    return MultipleSearchReport(modulus, degree_bound, tuple(found),
                                limit is not None
                                and limit < len(known) + len(rows))


def find_weight4_bruteforce(modulus, degree_bound):
    """Oracle: test every 0 < t1 < t2 < t3 <= degree_bound directly.

    Cost grows as degree_bound**3; for cross-checking the collision scan
    at small bounds.  Reads gf2's plain residue loop, not the cached
    table the scan reads.
    """
    _check_modulus(modulus)
    if degree_bound > 1 << 9:
        raise ValidationError("cubic enumeration limited to bound <= 512")
    residues = residue_powers_reference(modulus, degree_bound + 1).tolist()
    found = []
    for t1 in range(1, degree_bound - 1):
        for t2 in range(t1 + 1, degree_bound):
            partial = 1 ^ residues[t1] ^ residues[t2]
            for t3 in range(t2 + 1, degree_bound + 1):
                if partial == residues[t3]:
                    found.append(Weight4Multiple(t1, t2, t3))
    found.sort()
    return MultipleSearchReport(modulus, degree_bound, tuple(found))
