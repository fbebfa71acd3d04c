"""
Planning the full-size attack
=============================

Registers of 29, 31 and 37 bits under a 3-resilient 9-input filter.
Nothing here runs the heavy stage; it reproduces the parameter
arithmetic that decides whether the attack is worth running, and shows
how a single low-weight multiple seeds a whole family by squaring.

The actual first-stage run lives in the test suite behind the
large_scale marker (COMBGEN_LARGE_SCALE=1).
"""

import math

from combgen import attack
from combgen.multiples import verify_multiple
from combgen.presets import (LARGE_MULTIPLE_31_37, POLY_31, POLY_37,
                             generator_29_31_37, large_multiples_31_37)

# The plan ends with the first stage of every ordering: N grows with the
# first target's length, keystream shrinks as the cancelled length grows.
spec = generator_29_31_37()
plan = attack.plan(spec, (0, 1, 2))
print(plan.describe())

stage = plan.stages[0]
print(f"\nfirst stage: N = {stage.equations_required} = "
      f"2^{math.log2(stage.equations_required):.2f} relations")
print(f"planned keystream: {plan.keystream_required} bits = "
      f"{plan.keystream_required / 8 / (1 << 20):.2f} MiB")

# At this size the birthday search for weight-4 multiples of the
# degree-68 product is out of desk reach, so the instance ships with a
# precomputed seed multiple; squaring doubles every exponent and stays
# a multiple, covering any keystream length we can hold.
m = LARGE_MULTIPLE_31_37
print(f"\nseed multiple of both passive polynomials: "
      f"1 + X^{m.t1} + X^{m.t2} + X^{m.t3}")
print(f"verifies: {verify_multiple(m, [POLY_31, POLY_37])}")
chain = large_multiples_31_37(1 << 24)
print(f"squaring chain below 2^24: {len(chain)} multiples, "
      f"largest degree {chain[-1].t3}")
