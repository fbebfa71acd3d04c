"""
LFSR simulation basics
======================

A linear feedback shift register is fixed by its feedback polynomial;
every output bit is a known linear form of the initial state.  This
script walks through the degree-9 register used by the toy generator.
"""

import numpy as np

from combgen.gf2 import (lfsr_sequence, poly_degree, poly_is_primitive,
                         residue_powers, x_power_mod)
from combgen.presets import TOY_POLY_9
from combgen.gf2 import LfsrSpec

# The polynomial is stored as an integer, bit i = coefficient of X**i.
print(f"feedback polynomial: 0x{TOY_POLY_9:x}, degree {poly_degree(TOY_POLY_9)}")
print(f"primitive: {poly_is_primitive(TOY_POLY_9)}")

# A primitive degree-9 polynomial gives the maximal period 2**9 - 1.
spec = LfsrSpec(9, TOY_POLY_9, taps=())
bits = lfsr_sequence(spec, 0x1, 1022)
print("first 40 output bits:", "".join(map(str, bits[:40])))
print("period check (bits repeat after 511):",
      bool(np.array_equal(bits[:511], bits[511:1022])))

# Bit t of the sequence is parity(init & (X**t mod P)).  That residue is
# how the attack reaches far-away keystream positions without stepping.
t = 100_000
mask = x_power_mod(t, TOY_POLY_9)
init = 0x155  # any nonzero 9-bit state
direct = bin(init & mask).count("1") & 1
stepped = int(lfsr_sequence(spec, init, t + 1)[t])
print(f"bit {t} via residue mask 0x{mask:x}: {direct}, via stepping: {stepped}")

# residue_powers materialises the whole mask table at once, cached per
# polynomial: from the first s masks it gets the next s by multiplying
# each by X**s mod P, a GF(2)-linear map applied with byte lookup tables.
table = residue_powers(TOY_POLY_9, 512)
recomputed = [bin(init & int(m)).count("1") & 1 for m in table[:16]]
print("first 16 bits from the mask table:", recomputed)
print("                    from stepping:",
      lfsr_sequence(spec, init, 16).tolist())
