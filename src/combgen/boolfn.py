"""Spectral analysis of Boolean functions used as combining functions.

Truth tables are numpy uint8 arrays of length 2**n.  Entry x holds f(x)
where bit j of the index x is input number j (LSB first).  Every spectral
quantity here is an exact integer, and probabilities are kept as integer
numerators over a power-of-two denominator, so results can be compared
bit-for-bit against brute-force enumeration.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantError, ValidationError

# The blocked transform multiplies by the Hadamard matrix of 2**_FWHT_RADIX
# rows, one group of levels at a time.  Its first pass does the lowest
# _FWHT_LOW_LEVELS levels in row slabs of _FWHT_SLAB entries (at least
# 2**_FWHT_LOW_LEVELS), whose two float copies stay in cache; its
# second pass does every higher level in column slabs of the same size.
# Radix 16 needs 4 multiply-adds per entry and level against 10.7 for
# radix 64, and measured faster once the products run on one thread, in
# float32 as in float64.
_FWHT_RADIX = 4
_FWHT_LOW_LEVELS = 16
_FWHT_SLAB = 1 << 17
# Largest m*n*k of one BLAS product.  OpenBLAS runs products up to this
# size on the calling thread; larger ones wake its worker threads, which
# on a loaded 2-vCPU host at times made a 2**15-entry transform 15x
# slower, while a second thread saved at most a quarter on large tables.
_BLAS_PRODUCT = 1 << 18
# Each float type with the bound below which it holds every integer.
_FLOAT_EXACT = ((np.float32, 1 << 24), (np.float64, 1 << 53))
# Support points per slab of annihilator equations.
_ANNIHILATOR_SLAB = 1 << 12


def fwht(table, bound=None):
    """Walsh-Hadamard transform in place.

    Accepts a one-dimensional numpy array (transformed in place, also
    returned) or a plain list of Python ints (exact, no overflow, k *
    2**k butterflies in Python).  The length must be a power of two.
    Applying the transform twice multiplies the original table by its
    length.

    A signed integer array of 2**k entries is transformed as Kronecker
    factors: each group of up to 4 levels is a float product with the
    Sylvester Hadamard matrix of 16 (or fewer) rows, run on BLAS in
    pieces small enough to stay on the calling thread.  One pass over
    memory does the lowest 16 levels in cache-sized row slabs and a
    second pass does every higher level in column slabs.
    Every intermediate value is a signed sum of input entries, so its
    magnitude is at most sum|a|, and every such integer is exact in
    float32 below 2**24 and in float64 below 2**53, whatever order BLAS
    adds in: the products run in the narrower type that serves, and the
    result equals the integer transform exactly.  Any other array (an
    unsigned or float dtype, or sum|a| at or above min(2**53, dtype
    maximum + 1)) is left untouched and raises ValidationError.
    A caller that knows an upper bound on sum|a| passes it as `bound`,
    which replaces the pass over the table that measures sum|a|; a
    bound below the true sum makes the float result inexact.
    """
    size = len(table)
    if size == 0 or size & (size - 1):
        raise ValidationError(f"table length {size} is not a power of two")
    if isinstance(table, np.ndarray):
        if table.ndim != 1:
            raise ValidationError("expected a one-dimensional array")
        ftype = _float_exact(table, bound)
        if ftype is None:
            raise ValidationError(
                f"fwht of this {table.dtype} array is not exact: it needs a "
                f"signed dtype and sum|a| (or bound) below min(2**53, dtype "
                f"max + 1); use a wider signed dtype or a list of ints")
        return _fwht_blocked(table, ftype)
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for i in range(start, start + h):
                x, y = table[i], table[i + h]
                table[i] = x + y
                table[i + h] = x - y
        h *= 2
    return table


def _float_exact(a, bound=None):
    """The narrowest float type in which fwht(a) is exact, or None.

    sum|a| bounds every sum the transform forms, so a type serves when
    sum|a| is below its bound, provided a has a signed integer dtype
    whose maximum sum|a| does not exceed.  `bound`, an upper bound on
    sum|a| known to the caller, stands in for it; without one, a
    float64 slab sum of |a| measures it, exact below 2**53 and at least
    2**53 otherwise, dtype minima included."""
    if not np.issubdtype(a.dtype, np.signedinteger):
        return None
    limit = min(_FLOAT_EXACT[-1][1], int(np.iinfo(a.dtype).max) + 1)
    total = bound
    if total is None:
        total = 0
        for lo in range(0, a.size, _FWHT_SLAB):
            total += int(np.abs(a[lo:lo + _FWHT_SLAB],
                                dtype=np.float64).sum())
            if total >= limit:
                break
    if total >= limit:
        return None
    return next(ftype for ftype, top in _FLOAT_EXACT if total < top)


@functools.cache
def _hadamard(g, dtype):
    """The 2**g x 2**g Sylvester Hadamard matrix in dtype, read-only."""
    i = np.arange(1 << g)
    odd = np.bitwise_count(i[:, None] & i[None, :]) & 1
    h = np.where(odd, -1, 1).astype(dtype)
    h.setflags(write=False)
    return h


def _fwht_blocked(a, ftype=np.float64):
    """The BLAS path of fwht in float type ftype; exact only where
    _float_exact(a) allows ftype."""
    k = a.size.bit_length() - 1
    low = min(k, _FWHT_LOW_LEVELS)
    high = k - low
    span = max(min(a.size, _FWHT_SLAB), 1 << high)
    bufs = (np.empty(span, ftype), np.empty(span, ftype))
    rows = a.reshape(1 << high, 1 << low)
    per = _FWHT_SLAB >> low
    for r0 in range(0, 1 << high, per):
        _hadamard_slab(rows[r0:r0 + per], low, 1, bufs)
    if high:
        cols = max(1, _FWHT_SLAB >> high)
        for c0 in range(0, 1 << low, cols):
            _hadamard_slab(rows[:, c0:c0 + cols], high, cols, bufs)
    return a


def _hadamard_slab(block, levels, inner, bufs):
    """Transform `block`, read as (outer, 2**levels, inner) in C order,
    along its middle axis in the buffers' float type, and write the
    result back."""
    x, y = (b[:block.size] for b in bufs)
    np.copyto(x.reshape(block.shape), block)
    for j in range(0, levels, _FWHT_RADIX):
        g = min(_FWHT_RADIX, levels - j)
        h = _hadamard(g, x.dtype.type)
        stride = inner << j
        part = _BLAS_PRODUCT >> 2 * g
        if stride == 1:
            shape = (-1, min(part, x.size >> g), 1 << g)
            np.matmul(x.reshape(shape), h, out=y.reshape(shape))
        else:
            c = min(part, stride)
            shape = (-1, 1 << g, stride // c, c)
            np.matmul(h, x.reshape(shape).swapaxes(1, 2),
                      out=y.reshape(shape).swapaxes(1, 2))
        x, y = y, x
    np.copyto(block, x.reshape(block.shape), casting="unsafe")


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """An n-variable Boolean function stored as a truth table."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"bad arity {self.n!r}")
        tbl = np.asarray(self.table)
        if tbl.shape != (1 << self.n,):
            raise ValidationError(
                f"table has {tbl.size} entries, expected {1 << self.n}")
        values = np.unique(tbl)
        if not np.isin(values, (0, 1)).all():
            raise ValidationError("truth table entries must be 0 or 1")
        tbl = np.ascontiguousarray(tbl, dtype=np.uint8)
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)

    @classmethod
    def from_hex(cls, text, n=None):
        """Parse a truth table written as a hex string of 2**n bits.

        Hex digit 0 carries table entries 0..3 (LSB first), so the string
        has 2**n / 4 digits.  Without `n` the length sets it, at least 2;
        a given n must match the length, except that n = 1 reads the two
        low bits of the one digit to_hex writes for it.
        """
        digits = text.strip().lower().removeprefix("0x")
        nbits = 4 * len(digits)
        if nbits == 0 or nbits & (nbits - 1):
            raise ValidationError(
                f"hex truth table has {nbits} bits, not a power of two")
        try:
            packed = int(digits, 16)
        except ValueError as exc:
            raise ValidationError(f"bad hex truth table: {exc}") from None
        implied = nbits.bit_length() - 1
        if n is None:
            n = implied
        elif n != implied and not (n == 1 and implied == 2 and packed < 4):
            raise ValidationError(f"truth table length implies n={implied}, "
                                  f"header says {n}")
        table = np.array([(packed >> i) & 1 for i in range(1 << n)],
                         dtype=np.uint8)
        return cls(n, table)

    def to_hex(self):
        packed = 0
        for i, bit in enumerate(self.table):
            packed |= int(bit) << i
        width = (1 << self.n) // 4
        return "0x" + format(packed, f"0{width}x")

    @property
    def weight(self):
        return int(self.table.sum())

    @property
    def is_balanced(self):
        return self.weight == 1 << (self.n - 1)

    def __call__(self, x):
        return int(self.table[x])

    def __eq__(self, other):
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Correlations with all linear functions: W[y] = sum_x (-1)^(f(x)+x.y)."""

    n: int
    values: np.ndarray

    @property
    def max_abs(self):
        return int(np.abs(self.values).max())


@dataclass(frozen=True, eq=False)
class AutocorrSpectrum:
    """Autocorrelation AC[y] = sum_x (-1)^(f(x)+f(x+y)) and its peak."""

    n: int
    values: np.ndarray
    delta: int


@dataclass(frozen=True)
class PSpectrum:
    """Distribution of f(u1)+f(u2)+f(u3)+f(u4) over quadruples with fixed sum.

    numerators[x] / 2**(3n) is the probability that the four outputs sum
    to zero given that the four (uniform, independent) inputs sum to x.
    """

    n: int
    numerators: tuple

    @property
    def denominator(self):
        return 1 << (3 * self.n)

    def probability(self, x):
        return Fraction(self.numerators[x], self.denominator)

    @property
    def p0(self):
        return self.probability(0)


def walsh_spectrum(f):
    """Exact Walsh spectrum of a BooleanFunction, int64 values."""
    signs = 1 - 2 * f.table.astype(np.int64)
    fwht(signs)
    return WalshSpectrum(f.n, signs)


def autocorrelation(f):
    """Autocorrelation spectrum via the squared Walsh spectrum.

    Uses 2**n * AC = WHT(W**2), checking divisibility along the way.
    delta is the largest |AC[y]| over y != 0.
    """
    if f.n > 20:
        raise ValidationError("autocorrelation supported up to n = 20")
    w = walsh_spectrum(f).values
    squares = w * w
    fwht(squares)
    mask = (1 << f.n) - 1
    if np.any(squares & mask):
        raise InvariantError("autocorrelation sums not divisible by 2**n")
    ac = squares >> f.n
    delta = int(np.abs(ac[1:]).max()) if f.n >= 1 else 0
    return AutocorrSpectrum(f.n, ac, delta)


def p_spectrum(f):
    """Exact quadruple-sum probability spectrum.

    Computed from the fourth power of the Walsh spectrum:
    numerator[x] = 2**(3n-1) + WHT(W**4)[x] / 2**(n+1), all in exact
    Python integers.  Warns when f is unbalanced since the downstream
    bias statistics assume a balanced combining function.
    """
    if not f.is_balanced:
        warnings.warn("p_spectrum of an unbalanced function; "
                      "bias-based scoring assumes balance", stacklevel=2)
    n = f.n
    fourth = [int(v) ** 4 for v in walsh_spectrum(f).values]
    fwht(fourth)
    half = 1 << (3 * n - 1)
    divisor = 1 << (n + 1)
    numerators = []
    for s in fourth:
        q, r = divmod(s, divisor)
        if r:
            raise InvariantError("fourth-power spectrum sum not divisible "
                                 f"by 2**{n + 1}")
        num = half + q
        if not 0 <= num <= 1 << (3 * n):
            raise InvariantError("probability numerator out of range")
        numerators.append(num)
    return PSpectrum(n, tuple(numerators))


def p_spectrum_bruteforce(f):
    """Ground-truth P spectrum by enumerating all 2**(3n) input triples.

    The fourth input is forced by the required sum x, so for each x we
    count triples (u1, u2, u3) with f(u1)+f(u2)+f(u3)+f(u1+u2+u3+x) = 0.
    Cost grows as 2**(3n); intended as an oracle for n <= 8.
    """
    if f.n > 8:
        raise ValidationError("brute force limited to n <= 8 (cost 2**(3n))")
    n = f.n
    size = 1 << n
    u = np.arange(size, dtype=np.uint16)
    tbl = f.table
    x3 = u[:, None, None] ^ u[None, :, None] ^ u[None, None, :]
    s3 = (tbl[u][:, None, None] ^ tbl[u][None, :, None]
          ^ tbl[u][None, None, :])
    numerators = []
    for x in range(size):
        agree = s3 == tbl[x3 ^ x]
        numerators.append(int(np.count_nonzero(agree)))
    return PSpectrum(n, tuple(numerators))


@dataclass(frozen=True)
class PSpectrumBounds:
    """Exact comparison of a P spectrum against its guaranteed bounds."""

    n: int
    delta: int
    p0: Fraction
    p0_bound: Fraction
    min_gap: Fraction
    gap_bound: Fraction

    @property
    def ok(self):
        return self.p0 >= self.p0_bound and self.min_gap >= self.gap_bound


def check_p_spectrum_bounds(f):
    """Check the two exact lower bounds on the quadruple-sum spectrum.

    For any f: P(0) >= 1/2 + 2**-(n+1), and for every u != 0 the gap
    P(0) - P(u) is at least (1 - delta/2**n)**2 / 2**(n+1) where delta is
    the autocorrelation peak.  Comparisons are exact rational arithmetic;
    the bounds hold unconditionally, so a report that is not ok means a
    bug in the spectrum code.
    """
    spec = p_spectrum(f)
    n = f.n
    delta = autocorrelation(f).delta
    p0 = spec.p0
    p0_bound = Fraction(1, 2) + Fraction(1, 1 << (n + 1))
    num0 = spec.numerators[0]
    min_gap_num = min(num0 - spec.numerators[u] for u in range(1, 1 << n))
    min_gap = Fraction(min_gap_num, spec.denominator)
    gap_bound = Fraction(((1 << n) - delta) ** 2, 1 << (3 * n + 1))
    return PSpectrumBounds(n, delta, p0, p0_bound, min_gap, gap_bound)


def annihilators(table, degree):
    """A basis of the functions g of degree at most `degree` that vanish
    wherever the 0/1 truth table is 1, as rows of ANF coefficients:
    entry u of a row is the coefficient of the monomial prod_{j in u} x_j,
    so every row is 0 outside the masks of weight <= degree.

    The monomial u is 1 at x exactly when u is a subset of x, so each
    point of the table's support is one homogeneous equation over the
    monomials, and the basis is the null space of those equations.
    """
    from .gf2 import solve_linear  # gf2 imports this module

    table = np.asarray(table)
    size = table.size
    if table.ndim != 1 or size == 0 or size & (size - 1):
        raise ValidationError(f"table length {size} is not a power of two")
    masks = np.flatnonzero(np.bitwise_count(np.arange(size)) <= degree)
    support = np.flatnonzero(table)

    def rows():
        # a slab of points at a time, as the solver stops at full rank
        for lo in range(0, support.size, _ANNIHILATOR_SLAB):
            x = support[lo:lo + _ANNIHILATOR_SLAB, None]
            packed = np.packbits((x & masks) == masks, axis=1,
                                 bitorder="little")
            yield from (int.from_bytes(row.tobytes(), "little")
                        for row in packed)

    _, null = solve_linear(rows(), masks.size)
    basis = np.zeros((len(null), size), dtype=np.uint8)
    for k, v in enumerate(null):
        basis[k, masks[[i for i in range(masks.size) if v >> i & 1]]] = 1
    return basis


# --- bitsliced evaluation ---------------------------------------------------
#
# f is evaluated on 64 inputs at a time by a circuit over uint64 words: the
# Shannon tree f = x ? f_hi : f_lo, splitting on the top input first, with
# equal subtables built once and constant subtables folded into the gate
# above them.  A node whose halves agree is the half itself, so an input f
# ignores costs nothing.  While compiling, a subtable is a reference to a
# node, possibly complemented (2 * node + 1), so the complement of a
# subtable already built costs nothing, and a NOT is emitted only where a
# gate needs one operand plain (at most once per node).  A split on x
# with two nonconstant halves is low ^ (x & d) for the subtable d =
# high ^ low, itself shared like any other, so it costs two operations
# where d is built already and three where it is not.  Steps are
# (op, a, b, c) over node numbers: inputs are nodes 0..n-1, step k makes
# node n + k, _XOR_AND makes c ^ (a & b) and _XOR_OR c ^ (a | b).
_NOT, _AND, _OR, _XOR, _XOR_AND, _XOR_OR = range(6)


@functools.lru_cache(maxsize=64)
def _mux_circuit(f):
    """(steps, root) of f's reduced multiplexer circuit; root is a node
    number, or -1 / -2 when f is constant 0 / 1.  Cached per function."""
    zero, one = -1, -2
    steps, built, nots = [], {}, {}

    def emit(op, a, b=0, c=0):
        steps.append((op, a, b, c))
        return 2 * (f.n + len(steps) - 1)

    def plain(ref):
        if ref & 1 and ref not in nots:
            nots[ref] = emit(_NOT, ref >> 1)
        return nots.get(ref, ref) >> 1

    def node(table, var):
        if not table.any():
            return zero
        if table.all():
            return one
        key = table.tobytes()
        if key not in built:
            flip = (table ^ 1).tobytes()
            built[key] = (built[flip] ^ 1 if flip in built
                          else split(table, var))
        return built[key]

    def split(table, var):
        half = table.size // 2
        low = node(table[:half], var - 1)
        high = node(table[half:], var - 1)
        x = 2 * var
        if low == high:
            return low
        if (low, high) == (zero, one):
            return x
        if (low, high) == (one, zero):
            return x | 1
        # ~x & low = ~(x | ~low) and ~x | high = ~(x & ~high)
        if low == zero:
            return emit(_AND, var, plain(high))
        if high == zero:
            return emit(_OR, var, plain(low ^ 1)) | 1
        if high == one:
            return emit(_OR, var, plain(low))
        if low == one:
            return emit(_AND, var, plain(high ^ 1)) | 1
        if high == low ^ 1:
            return emit(_XOR, var, low >> 1) | low & 1
        # x ? high : low = low ^ (x & d) = ~(high ^ (x | ~d)), d the
        # subtable high ^ low, one XOR unless some node already holds it
        diff = table[:half] ^ table[half:]
        key = diff.tobytes()
        if key not in built and (diff ^ 1).tobytes() not in built:
            built[key] = emit(_XOR, high >> 1, low >> 1) | (high ^ low) & 1
        d = node(diff, var - 1)
        if d & 1:
            return emit(_XOR_OR, var, d >> 1, high >> 1) | (high & 1) ^ 1
        return emit(_XOR_AND, var, d >> 1, low >> 1) | low & 1

    root = node(f.table, f.n - 1)
    if root >= 0:
        root = plain(root)
    return tuple(steps), root


def evaluate_packed(f, inputs):
    """f applied bit by bit to n packed inputs: bit b of word i of the
    result is f(x) for x whose bit j is bit b of word i of inputs[j].

    The inputs are equal-length uint64 arrays, read, never written; the
    result may be one of them.  Runs f's reduced multiplexer circuit (see
    the comment above), compiled once per function and cached: 40 word
    operations for the paper's 9-input function, 42 for the toy's
    6-input one, but 460-1470 for a random function of 10-12 inputs.
    """
    if len(inputs) != f.n:
        raise ValidationError(f"{len(inputs)} inputs for a function of "
                              f"{f.n}")
    steps, root = _mux_circuit(f)
    if root < 0:
        fill = np.uint64(0) if root == -1 else ~np.uint64(0)
        return np.full(len(inputs[0]), fill, dtype=np.uint64)
    nodes = list(inputs)
    for op, a, b, c in steps:
        if op == _NOT:
            got = np.invert(nodes[a])
        elif op == _AND:
            got = np.bitwise_and(nodes[a], nodes[b])
        elif op == _OR:
            got = np.bitwise_or(nodes[a], nodes[b])
        elif op == _XOR:
            got = np.bitwise_xor(nodes[a], nodes[b])
        else:
            got = (np.bitwise_and if op == _XOR_AND
                   else np.bitwise_or)(nodes[a], nodes[b])
            np.bitwise_xor(got, nodes[c], out=got)
        nodes.append(got)
    return nodes[root]


def resiliency_order(f):
    """Largest t such that the Walsh spectrum vanishes on weights 0..t.

    Returns -1 for an unbalanced function.
    """
    w = walsh_spectrum(f).values
    if w[0] != 0:
        return -1
    weights = np.bitwise_count(np.arange(1 << f.n, dtype=np.uint32))
    for t in range(1, f.n + 1):
        if np.any(w[weights == t]):
            return t - 1
    raise InvariantError("Walsh spectrum identically zero")


def nonlinearity(f):
    """Distance to the nearest affine function: 2**(n-1) - max|W|/2."""
    peak = walsh_spectrum(f).max_abs
    return (1 << (f.n - 1)) - peak // 2


def random_balanced_function(n, rng):
    """Uniformly random balanced function on n variables."""
    if n < 1:
        raise ValidationError("need n >= 1")
    table = np.zeros(1 << n, dtype=np.uint8)
    ones = rng.permutation(1 << n)[: 1 << (n - 1)]
    table[ones] = 1
    return BooleanFunction(n, table)
