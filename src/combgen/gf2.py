"""GF(2)[X] arithmetic and LFSR combination-generator simulation.

Polynomials over GF(2) are plain Python ints: bit i is the coefficient
of X**i, so X**4 + X + 1 is 0b10011 = 0x13.  The zero polynomial has
degree -1 by convention.

LFSR convention: a register of length l with feedback polynomial P
(degree l) outputs s_0, s_1, ... and satisfies
s_{t+l} = sum_{i<l} c_i * s_{t+i} where c_i is coefficient i of P.
The initial state is the first l bits, packed LSB-first into an int, and
the state at time t is the window (s_t, ..., s_{t+l-1}).  Under this
convention s_t equals the GF(2) dot product of the initial state with
the coefficient vector of X**t mod P, which is what ties sequence bits
to linear forms of the initial state throughout the attack code.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfn import BooleanFunction, evaluate_packed
from .errors import ValidationError


def poly_degree(p):
    """Degree of a polynomial, -1 for zero; a negative int is rejected."""
    if p < 0:
        raise ValidationError(f"polynomial must not be negative, got {p}")
    return p.bit_length() - 1


def poly_mul(a, b):
    """Carry-less product in GF(2)[X]."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_divmod(a, m):
    """Quotient and remainder of a by m in GF(2)[X]."""
    if m == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dm = poly_degree(m)
    q = 0
    while True:
        shift = poly_degree(a) - dm
        if shift < 0:
            return q, a
        q |= 1 << shift
        a ^= m << shift


def poly_rem(a, m):
    """Remainder of a modulo m in GF(2)[X]."""
    return poly_divmod(a, m)[1]


def poly_mulmod(a, b, m):
    """Product of a and b reduced modulo m."""
    return poly_rem(poly_mul(a, b), m)


def poly_gcd(a, b):
    """Greatest common divisor in GF(2)[X]."""
    while b:
        a, b = b, poly_rem(a, b)
    return a


def x_power_mod(t, m):
    """X**t mod m by square and multiply; m must have degree >= 1."""
    if t < 0:
        raise ValidationError(f"negative exponent {t}")
    if poly_degree(m) < 1:
        raise ValidationError("modulus must have degree >= 1")
    result = 1
    base = poly_rem(2, m)
    while t:
        if t & 1:
            result = poly_mulmod(result, base, m)
        base = poly_mulmod(base, base, m)
        t >>= 1
    return result


def poly_from_exponents(exponents):
    """Polynomial with a 1 coefficient at each listed exponent."""
    p = 0
    for e in exponents:
        p |= 1 << e
    return p


# Miller-Rabin on the first 12 prime bases is exact below 3.18 * 10**23
# (Sorenson and Webster, 2015), past every 2**l - 1 with l <= 64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _PRIME_BASES)


def _prime_factors(m):
    """Sorted distinct prime factors of m >= 1.  A composite part splits
    off its smallest base, or else by Pollard's rho (BIT 1975) with
    Floyd's cycle finding, moving to the next constant c if one fails."""
    primes, parts = set(), [m]
    while parts:
        n = parts.pop()
        if n == 1 or _is_prime(n):
            primes.add(n)
            continue
        d = next((p for p in _PRIME_BASES if n % p == 0), n)
        c = 0
        while d == n:
            c, x, y, d = c + 1, 2, 2, 1
            while d == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
        parts += (d, n // d)
    return sorted(primes - {1})


@lru_cache(maxsize=None)
def poly_is_primitive(p):
    """True iff p is primitive over GF(2).

    Tests that X has order exactly 2**l - 1 modulo p, which for degree l
    characterises primitivity (it forces irreducibility as well).  The
    degree must be in [1, 64], where 2**l - 1 factors in milliseconds.
    """
    l = poly_degree(p)
    if l < 1:
        raise ValidationError("degree must be at least 1")
    if l > 64:
        raise ValidationError("primitivity test limited to degree <= 64")
    if not p & 1:
        return False
    order = (1 << l) - 1
    if x_power_mod(order, p) != 1:
        return False
    return all(x_power_mod(order // q, p) != 1 for q in _prime_factors(order))


def solve_linear(rows, nvars):
    """One solution of a linear system over GF(2), and its null space.

    Each row is a Python int: bit i < nvars is the coefficient of
    variable i and bit nvars the right-hand side.  Rows are read one at
    a time and reduced against one pivot per leading bit; reading stops
    at full rank, so rows past that point are never checked.  Returns
    None when a row reduces to 0 = 1, else (solution, null): solution
    has every free variable 0, and null holds one vector per free
    variable (that variable 1, the other free ones 0), so the solutions
    of the rows read are solution XOR any sum of null vectors.
    """
    if nvars < 0:
        raise ValidationError(f"nvars must be nonnegative, got {nvars}")
    # inside, variable i sits at bit i + 1 and the right-hand side at bit
    # 0, so a row's bit length names its leading variable's pivot, kept
    # at pivots[bit length]: pivots[0] stays 0, and a row of bit length 1
    # says 0 = 1
    mask = (1 << nvars) - 1
    pivots = [0] * (nvars + 2)
    rank = 0
    for row in rows:
        row = (row & mask) << 1 | (row >> nvars & 1)
        pivot = pivots[row.bit_length()]
        while pivot:
            row ^= pivot
            pivot = pivots[row.bit_length()]
        lead = row.bit_length()
        if lead == 1:
            return None
        if lead:
            pivots[lead] = row
            rank += 1
            if rank == nvars:
                break
    # back substitution, lowest pivot first: a pivot row's other
    # variables all sit below its leading one
    solution, null = 0, []
    for i in range(1, nvars + 1):
        row = pivots[i + 1]
        if row:
            solution |= ((row ^ (row & solution).bit_count()) & 1) << i
            null = [v | ((row & v).bit_count() & 1) << i for v in null]
        else:
            null.append(1 << i)
    return solution >> 1, [v >> 1 for v in null]


# --- residue tables and impulse responses --------------------------------
#
# Two sequences grow from X**t mod P for consecutive t.  Residue tables
# hold X**t mod P itself, at the register's width: the narrowest unsigned
# dtype that holds l bits (uint8 up to 8 bits, uint16 up to 16, uint32 up
# to 32, uint64 above), so a 29- or 31-bit register takes 4 bytes per
# entry.  They back the attack's linear-form columns and the weight-4
# multiple search, so they are cached per polynomial and grown on demand,
# to exactly the length asked for; generating or checking a keystream
# reads none of them.  Register output comes from the other sequence, the
# impulse response w: the output from state 2**(l-1), so w_t is bit l - 1
# of X**t mod P and its first l bits are 0, ..., 0, 1.
#
# Both grow by one rule, Golomb's shift-and-add identity: for any s,
# X**(s + t) mod P is the XOR of X**(t + i) mod P over the set bits i of
# X**s mod P, and so w[s + t] is the XOR of w[t + i] over the same bits.
# Both are seeded by stepping t through [0, 2l) (_stepped).  With entries
# [0, k) known, k >= 2l, s is the largest power of two below k, so s >= l,
# and the chunk [k, h) with h = k + s - l + 1 reads only known entries:
# it is the XOR of the slices [k - s + i, h - s + i) (_chunks).  A residue
# table reads X**s mod P from its own entry s and XORs its slices in
# place; a modulus without a constant term can make X**s mod P zero, and
# its chunk zero with it.  w reads X**s mod P from its _Response's
# `powers`, each power of two squared from the one below, among them
# X**_SLAB mod P, the slab step.  residue_powers_reference and
# lfsr_sequence are the plain stepping loops the two are tested against.
#
# Every register output sequence is a sum of shifts of w: s_t = XOR of
# a_i * w_{t+i} over i < l, where bit t of s is read as bit l - 1 of
# X**t * A mod P for the polynomial A = sum a_i X**i.  Starting a slab n
# bits later multiplies A by X**n mod P.  _Response caches, per
# polynomial, w as an int, eight packed copies of it (phase k holding
# w[k:] packed LSB first, so shift 8q + k reads phase k from byte q), the
# reciprocal of P and `powers`.  w is extended in place, so no bit of it
# is computed twice; each time it grows its phases are rebuilt whole from
# it and published read-only, as a new array.  Both caches grow under one
# lock, and their arrays are immutable once published.
#
# One kernel, _packed_slabs, XORs those phases into a register's packed
# output slab by slab; sequence_bits unpacks each slab.  One reader,
# _input_slabs, reads each tap as a word shift of its register's stream:
# keystream runs f bitsliced on those words (boolfn.evaluate_packed) and
# keeps the result packed (Keystream); input_words unpacks.

# The widest modulus that residue tables, the weight-4 collision scan and
# registers accept: the int64 oracle steps a residue through l + 1 bits.
RESIDUE_MAX_DEGREE = 62

_residue_cache = {}
_phase_cache = {}
_residue_lock = threading.Lock()
_SLAB = 1 << 16


def _check_residue_degree(poly):
    l = poly_degree(poly)
    if not 1 <= l <= RESIDUE_MAX_DEGREE:
        raise ValidationError(
            f"residue tables need degree in [1, {RESIDUE_MAX_DEGREE}]")
    return l


def _stepped(poly, l, count):
    """X**t mod poly for t in [0, count), stepping t: the seed both
    sequences grow from."""
    out, r = [], 1
    for _ in range(count):
        out.append(r)
        r <<= 1
        if r >> l:
            r ^= poly
    return out


def _chunks(known, count, l):
    """(lo, hi, s) for each chunk that grows a sequence from `known` >= 2l
    entries to `count`: s is the largest power of two below lo, and
    entries [lo, hi) are the XOR of [lo - s + i, hi - s + i) over the set
    bits i of X**s mod P."""
    while known < count:
        s = 1 << ((known - 1).bit_length() - 1)
        hi = min(count, known + s - l + 1)
        yield known, hi, s
        known = hi


def residue_powers(poly, count):
    """Array of X**t mod poly for t in [0, count), cached per poly, in
    the narrowest unsigned dtype that holds degree(poly) bits.

    Requires 1 <= degree(poly) <= RESIDUE_MAX_DEGREE.
    """
    l = _check_residue_degree(poly)
    dtype = np.min_scalar_type((1 << l) - 1)
    if count <= 0:
        return np.zeros(0, dtype=dtype)
    with _residue_lock:
        cached = _residue_cache.get(poly)
        if cached is None or cached.size < count:
            fresh = np.empty(count, dtype=dtype)
            known = 0 if cached is None else cached.size
            if known < 2 * l:
                known = min(count, 2 * l)
                fresh[:known] = _stepped(poly, l, known)
            else:
                fresh[:known] = cached
            for lo, hi, s in _chunks(known, count, l):
                c = int(fresh[s])
                taps = [lo - s + i for i in range(l) if c >> i & 1]
                dst = fresh[lo:hi]
                dst[:] = fresh[taps[0]:taps[0] + hi - lo] if taps else 0
                for a in taps[1:]:
                    dst ^= fresh[a:a + hi - lo]
            fresh.setflags(write=False)
            _residue_cache[poly] = fresh
            cached = fresh
    return cached[:count]


def residue_powers_reference(poly, count):
    """X**t mod poly for t in [0, count) by stepping t one at a time.

    Uncached plain loop, the oracle for residue_powers.
    """
    l = _check_residue_degree(poly)
    out = np.empty(max(count, 0), dtype=np.int64)
    top = 1 << l
    low = poly & (top - 1)
    r = 1
    for i in range(out.size):
        out[i] = r
        r <<= 1
        if r & top:
            r ^= top | low
    return out


def clear_residue_cache():
    """Drop all cached residue tables and sequence phases (frees memory
    after large runs)."""
    with _residue_lock:
        _residue_cache.clear()
        _phase_cache.clear()


def _reverse(v, width):
    """The low `width` bits of v in reverse order."""
    return int(format(v, f"0{width}b")[::-1], 2)


class _Response:
    """A polynomial's impulse response w, packed, and the constants of
    its packed output; see the notes above.  `bits` holds w[:known] as
    an int, bit t being w_t; `phases`, read-only and replaced whenever w
    grows, has row k, byte q holding w[8q + k:8q + k + 8), zero past
    `known`; `powers` caches X**t mod P by t (see power)."""

    def __init__(self, poly, length):
        self.poly, self.length = poly, length
        self.reciprocal = _reverse(poly, length + 1) & ((1 << length) - 1)
        r = _stepped(poly, length, 2 * length)
        self.bits = sum((v >> (length - 1) & 1) << t for t, v in enumerate(r))
        self.known = 2 * length
        self.powers = {1 << k: r[1 << k]
                       for k in range((2 * length - 1).bit_length())}
        self._publish()

    def power(self, t):
        """X**t mod P, cached: a power of two squared from the one below,
        another t the product of its lowest bit's power and the rest's."""
        if t not in self.powers:
            low = t & -t
            a, b = (t >> 1, t >> 1) if t == low else (low, t - low)
            self.powers[t] = poly_mulmod(self.power(a), self.power(b),
                                         self.poly)
        return self.powers[t]

    def extend(self, need):
        """Grow w to at least `need` bits, from the bits already known."""
        l, w, known = self.length, self.bits, self.known
        for lo, hi, s in _chunks(known, need, l):
            c = self.power(s)
            # the bits [lo - s, hi - s + l - 1) that the chunk reads
            seg = w >> (lo - s) & ((1 << (hi - lo + l - 1)) - 1)
            new = 0
            for i in range(c.bit_length()):
                if c >> i & 1:
                    new ^= seg >> i
            w |= (new & ((1 << (hi - lo)) - 1)) << lo
            known = hi
        self.bits, self.known = w, known
        self._publish()

    def _publish(self):
        """Rebuild the phases from w[:known] and publish them read-only."""
        size = (self.known + 7) >> 3
        row = np.frombuffer(self.bits.to_bytes(size + 1, "little"),
                            dtype=np.uint8)
        phases = np.empty((8, size), dtype=np.uint8)
        phases[0] = row[:-1]
        for k in range(1, 8):
            phases[k] = row[:-1] >> k | row[1:] << 8 - k
        phases.setflags(write=False)
        self.phases = phases


def _response(poly, length, n):
    """poly's _Response, its phases serving slabs of up to n bits."""
    with _residue_lock:
        got = _phase_cache.get(poly)
        if got is None:
            got = _phase_cache[poly] = _Response(poly, length)
        if got.known < n + length:
            got.extend(n + length)
    return got


def _packed_slabs(poly, length, init, count, first=0, extra=0):
    """The register's output from `init`, packed, one slab at a time.

    Yields (lo, n, words) for each slab of n = min(_SLAB, count - lo)
    bits: bit t of the uint64 words, LSB first, is s_{lo + first + t}
    for every t < n + extra, and at least one word follows the last of
    them, so the stream p <= extra bits later reads its word i as
    words[i] >> p | words[i + 1] << (64 - p); later bits are unspecified.
    s_t = XOR of a_i * w_{t+i} over i < length, for the impulse response
    w (see the residue table notes), with a = init * P* mod z**length read
    backwards, P*(z) being the reciprocal of poly: s(z) * P*(z) =
    init(z) * P*(z) mod z**length, and shift i of w is
    z**(length-1-i) / P*(z).  So a slab XORs the packed phases of w from
    bit first + i on, at the set bits i of a, and the next one starts
    from a * X**_SLAB mod poly.  The reciprocal, the slab step and the
    phases are cached per polynomial (_Response), so the products with
    the state are the call's only polynomial arithmetic; no residue
    table is read.
    """
    if not 0 <= init < 1 << length:
        raise ValidationError(f"initial state out of range for length {length}")
    low = (1 << length) - 1
    got = _response(poly, length, min(count, _SLAB) + first + extra)
    a = _reverse(poly_mul(init, got.reciprocal) & low, length)
    phases = got.phases
    for lo in range(0, count, _SLAB):
        if lo:
            a = poly_mulmod(a, got.power(_SLAB), poly)
        n = min(_SLAB, count - lo)
        nbytes = (n + extra + 7) // 8
        acc = np.zeros(((n + extra) // 64 + 2) * 8, dtype=np.uint8)
        head = acc[:nbytes]
        for i in range(first, first + a.bit_length()):
            if a >> (i - first) & 1:
                head ^= phases[i & 7, i >> 3:(i >> 3) + nbytes]
        yield lo, n, acc.view(np.uint64)


def sequence_bits(poly, length, init, count):
    """First `count` output bits of the LFSR, fast bulk path.

    Bit t is the parity of (X**t mod poly) AND init, per the convention
    in the module docstring.  Each slab of _SLAB bits is built packed
    (_packed_slabs, the kernel keystream shares) and unpacked once.
    """
    if poly_degree(poly) != length:
        raise ValidationError("feedback degree does not match length")
    if count < 0:
        raise ValidationError("count must be nonnegative")
    out = np.empty(count, dtype=np.uint8)
    for lo, n, words in _packed_slabs(poly, length, init, count):
        out[lo:lo + n] = np.unpackbits(words.view(np.uint8), count=n,
                                       bitorder="little")
    return out


@dataclass(frozen=True)
class LfsrSpec:
    """One register: length, primitive feedback polynomial, tap positions."""

    length: int
    feedback: int
    taps: tuple

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(int(t) for t in self.taps))
        if self.length > RESIDUE_MAX_DEGREE:
            raise ValidationError(
                f"register length {self.length} over the "
                f"{RESIDUE_MAX_DEGREE}-bit limit of the residue tables")
        if poly_degree(self.feedback) != self.length:
            raise ValidationError(
                f"feedback 0x{self.feedback:x} does not have degree {self.length}")
        if not poly_is_primitive(self.feedback):
            raise ValidationError(f"feedback 0x{self.feedback:x} is not primitive")
        if len(set(self.taps)) != len(self.taps):
            raise ValidationError("duplicate tap positions")
        for t in self.taps:
            if not 0 <= t < self.length:
                raise ValidationError(f"tap {t} outside register of length "
                                      f"{self.length}")


@dataclass(frozen=True)
class GeneratorSpec:
    """A combination generator: LFSRs, combining function, and wiring.

    wiring[j] = (register index, tap index) says which tapped bit feeds
    input j of the combining function.  Every tap of every register must
    be wired exactly once.
    """

    lfsrs: tuple
    function: BooleanFunction
    wiring: tuple

    def __post_init__(self):
        object.__setattr__(self, "lfsrs", tuple(self.lfsrs))
        object.__setattr__(
            self, "wiring", tuple((int(r), int(k)) for r, k in self.wiring))
        if not self.lfsrs:
            raise ValidationError("need at least one register")
        feedbacks = [lf.feedback for lf in self.lfsrs]
        # primitive feedbacks are irreducible, so distinct ones are coprime
        if len(set(feedbacks)) != len(feedbacks):
            raise ValidationError("feedback polynomials must be distinct")
        total_taps = sum(len(lf.taps) for lf in self.lfsrs)
        if self.function.n != total_taps:
            raise ValidationError(
                f"function arity {self.function.n} != total taps {total_taps}")
        if len(self.wiring) != total_taps:
            raise ValidationError("wiring must list every tap exactly once")
        seen = set()
        for r, k in self.wiring:
            if not 0 <= r < len(self.lfsrs):
                raise ValidationError(f"wiring names register {r}")
            if not 0 <= k < len(self.lfsrs[r].taps):
                raise ValidationError(f"wiring names tap {k} of register {r}")
            if (r, k) in seen:
                raise ValidationError(f"tap ({r}, {k}) wired twice")
            seen.add((r, k))

    @property
    def m(self):
        """Total state size in bits."""
        return sum(lf.length for lf in self.lfsrs)

    @property
    def n(self):
        """Arity of the combining function."""
        return self.function.n

    def split_state(self, state):
        """Unpack a full m-bit state int into per-register ints."""
        if not 0 <= state < 1 << self.m:
            raise ValidationError(f"state out of range for {self.m} bits")
        parts = []
        for lf in self.lfsrs:
            parts.append(state & ((1 << lf.length) - 1))
            state >>= lf.length
        return parts

    def join_state(self, parts):
        """Pack per-register state ints into the full m-bit state."""
        if len(parts) != len(self.lfsrs):
            raise ValidationError("wrong number of register states")
        state = 0
        for lf, part in zip(reversed(self.lfsrs), reversed(parts)):
            if not 0 <= part < 1 << lf.length:
                raise ValidationError("register state out of range")
            state = (state << lf.length) | part
        return state

    def inputs_of_register(self, r):
        """List of (input index, tap position) pairs wired from register r."""
        return [(j, self.lfsrs[r].taps[k])
                for j, (rr, k) in enumerate(self.wiring) if rr == r]


class Keystream:
    """A run of generator output bits, held as a uint8 0/1 array `bits`,
    as uint64 `words` packed LSB first with zeros past the last bit, or
    both: each form is made from the other on first read and kept, so
    neither may change once handed in.  Two keystreams are equal when
    their lengths and words are."""

    __slots__ = ("_bits", "_words", "_count")

    def __init__(self, bits):
        raw = np.asarray(bits)
        bits = np.ascontiguousarray(raw, dtype=np.uint8)
        # the cast wraps 256 to 0 and 0.5 to 0: compare with the input
        if (bits.ndim != 1 or (bits.size and bits.max() > 1)
                or (raw.dtype != np.uint8 and not np.array_equal(raw, bits))):
            raise ValidationError("keystream bits must be one-dimensional 0/1")
        self._bits, self._words, self._count = _frozen(bits), None, bits.size

    @classmethod
    def packed(cls, words, count):
        """The first `count` bits of the uint64 `words`, LSB first; later
        words are dropped and later bits of the last word cleared."""
        if count < 0:
            raise ValidationError("count must be nonnegative")
        words = np.asarray(words, dtype=np.uint64)[:(count + 63) // 64]
        if words.ndim != 1 or words.size * 64 < count:
            raise ValidationError(f"{count} bits need {(count + 63) // 64} "
                                  f"words, got {words.size}")
        tail = np.uint64(count % 64)
        if tail and words[-1] >> tail:
            words = words.copy()
            words[-1] &= (np.uint64(1) << tail) - np.uint64(1)
        ks = cls.__new__(cls)
        ks._bits, ks._words, ks._count = None, _frozen(words), count
        return ks

    @classmethod
    def of(cls, ks):
        """`ks`, or the Keystream of a raw bit array, checked 1-D, 0/1."""
        return ks if isinstance(ks, cls) else cls(ks)

    @property
    def bits(self):
        """The bits as a read-only uint8 0/1 array."""
        if self._bits is None:
            self._bits = _frozen(np.unpackbits(
                self._words.view(np.uint8), count=self._count,
                bitorder="little"))
        return self._bits

    @property
    def words(self):
        """The bits as read-only uint64 words, LSB first, zero past the
        last bit."""
        if self._words is None:
            packed = np.zeros((self._count + 63) // 64 * 8, dtype=np.uint8)
            packed[:(self._count + 7) // 8] = np.packbits(self._bits,
                                                         bitorder="little")
            self._words = _frozen(packed.view(np.uint64))
        return self._words

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        got = self.bits[i]
        return Keystream(got) if isinstance(got, np.ndarray) else int(got)

    def __eq__(self, other):
        if isinstance(other, Keystream):
            return (self._count == other._count
                    and np.array_equal(self.words, other.words))
        return NotImplemented


def _frozen(a):
    """A read-only view of the array a."""
    view = a.view()
    view.setflags(write=False)
    return view


def lfsr_sequence(spec, init, count):
    """Reference bit-at-a-time simulation of one register.

    Walks the recurrence s_{t+l} = sum c_i s_{t+i} directly; used as the
    semantic baseline that sequence_bits is tested against.
    """
    l = spec.length
    if not 0 <= init < 1 << l:
        raise ValidationError(f"initial state out of range for length {l}")
    mask = spec.feedback & ((1 << l) - 1)
    window = init
    out = np.empty(count, dtype=np.uint8)
    for t in range(count):
        out[t] = window & 1
        fb = (window & mask).bit_count() & 1
        window = (window >> 1) | (fb << (l - 1))
    return out


def _input_slabs(spec, states, count):
    """Per slab of n = min(_SLAB, count - lo) bits, (lo, n, inputs):
    inputs maps each input j that a register in `states` (register ->
    initial state) feeds to its ceil(n / 64) uint64 words, bit t LSB
    first at time lo + t.  Each tap is a word shift (p < 64) of its
    register's stream from its lowest tap on (_packed_slabs)."""
    wired, slabs = {}, []
    for r, state in states.items():
        lf, first = spec.lfsrs[r], min(spec.lfsrs[r].taps, default=0)
        wired.update((j, (len(slabs), p - first))
                     for j, p in spec.inputs_of_register(r))
        slabs.append(_packed_slabs(lf.feedback, lf.length, state, count,
                                   first, max(lf.taps, default=0) - first))
    for got in zip(*slabs):
        lo, n, _ = got[0]
        w, nw = [words for _, _, words in got], (n + 63) // 64
        yield lo, n, {j: w[i][:nw] >> p | w[i][1:nw + 1] << 64 - p if p
                      else w[i][:nw] for j, (i, p) in wired.items()}


def input_words(spec, states, count):
    """Wired inputs of the registers in `states` (register -> initial
    state), one word per time step, bit j being input j of f, 0 for other
    registers' inputs: keystream's reader _input_slabs, unpacked once per
    slab.  The attack indexes f's annihilators (its oracle, f) with them."""
    if count < 0:
        raise ValidationError("count must be nonnegative")
    words = np.zeros(count, dtype=np.min_scalar_type((1 << spec.n) - 1))
    for lo, n, inputs in _input_slabs(spec, states, count):
        for j, w in inputs.items():
            bits = np.unpackbits(w.view(np.uint8), count=n, bitorder="little")
            # times 2**j, not shifted: numpy's uint8 shifts do not vectorise
            words[lo:lo + n] |= bits * words.dtype.type(1 << j)
    return words


def keystream(spec, state, count):
    """Generator output z_t = f(wired tap bits), fast bulk path, bitsliced.

    f runs on each slab's packed inputs (_input_slabs) as its reduced
    multiplexer circuit (boolfn.evaluate_packed), 64 bits per word
    operation, and the result stays packed (Keystream.packed): its
    words are compared as they are, and unpacked only when its bits are
    read.  Working memory beyond the count / 8 bytes of the result is a
    few dozen slab-sized words, whatever `count` is.  The circuit suits
    the few-input functions of real generators: the toy's 6 inputs and
    the paper's 9 take 42 and 40 word operations per 64 bits.  A random
    f of 10-12 inputs takes 460-1470; with a circuit of 600-1900
    operations such functions took 2-8 ms per 2^18 bits on a 2-vCPU VM,
    where a truth-table lookup of ready input words took 0.3 ms.
    """
    if count < 0:
        raise ValidationError("count must be nonnegative")
    states = dict(enumerate(spec.split_state(state)))
    # one spare word: a slab that starts inside a word spills into it
    out = np.zeros((count + 63) // 64 + 1, dtype=np.uint64)
    for lo, n, inputs in _input_slabs(spec, states, count):
        nw = (n + 63) // 64
        z = evaluate_packed(spec.function,
                            [inputs[j] for j in range(spec.n)])[:nw].copy()
        z[-1] &= ~np.uint64(0) >> np.uint64(-n % 64)
        q, p = divmod(lo, 64)
        if p:
            out[q:q + nw] |= z << np.uint64(p)
            out[q + 1:q + nw + 1] |= z >> np.uint64(64 - p)
        else:
            out[q:q + nw] = z
    return Keystream.packed(out, count)


def keystream_reference(spec, state, count):
    """Plain-loop generator simulation, independent of the fast path."""
    parts = spec.split_state(state)
    seqs = []
    for r, lf in enumerate(spec.lfsrs):
        span = count + max((p for _, p in spec.inputs_of_register(r)),
                           default=0)
        seqs.append(lfsr_sequence(lf, parts[r], span))
    out = np.empty(count, dtype=np.uint8)
    for t in range(count):
        x = 0
        for j, (r, k) in enumerate(spec.wiring):
            x |= int(seqs[r][t + spec.lfsrs[r].taps[k]]) << j
        out[t] = spec.function.table[x]
    return Keystream(out)


def random_state(spec, rng):
    """Draw a uniform full state, rerolling all-zero registers."""
    parts = []
    for lf in spec.lfsrs:
        part = int(rng.integers(0, 1 << lf.length))
        while part == 0:
            part = int(rng.integers(0, 1 << lf.length))
        parts.append(part)
    return spec.join_state(parts)
