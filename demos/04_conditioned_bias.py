"""
Where the detectable bias comes from
====================================

Each weight-4 multiple of the passive registers' product polynomial
turns four keystream positions into one relation.  The four passive
contributions cancel by construction; the four active-register inputs
sum to zero exactly when the candidate state is right, and then the
four outputs agree with probability P0 > 1/2.  Wrong candidates see an
unbiased coin.
"""

import math
from fractions import Fraction

import numpy as np

from combgen import attack
from combgen.boolfn import p_spectrum
from combgen.gf2 import keystream, random_state
from combgen.presets import toy_generator

spec = toy_generator()
rng = np.random.default_rng(7)
state = random_state(spec, rng)
print(f"secret state: 0x{state:x}")
ks = keystream(spec, state, 1 << 19)

plan = attack.plan(spec, (0, 1, 2))
stage = plan.stages[0]
print(f"stage 1 attacks register {stage.target} "
      f"({stage.m1} bits, {stage.n1} taps), needs about "
      f"{stage.equations_required} relations")

_, mults = attack.search_stage_multiples(spec, stage, len(ks))
eqs = attack.harvest_equations(ks, mults,
                               max_equations=stage.equations_required)
print(f"harvested {eqs.total} relations from {len(mults)} multiples")

# Sanity: with the true state, the passive inputs really do cancel on
# every relation (the active ones do not, they carry the signal).
frac = attack.zero_sum_fraction(spec, state, eqs)
print(f"fraction of relations whose full input sum is zero: {frac:.4f} "
      f"(expect ~2**-{stage.n1} = {2.0 ** -stage.n1:.2f})")

# Score all 2**13 candidates at once and look at the true one.
ranked = attack.score_stage(spec, stage.target, eqs, top_k=5)
print("\ntop candidates:")
print(attack.candidates_tsv(ranked))

true_part = spec.split_state(state)[stage.target]
best = ranked[0]
expected = float(2 * (p_spectrum(spec.function).p0 - Fraction(1, 2)))
sigma = 1.0 / math.sqrt(best.total)
print(f"\ntrue register value 0x{true_part:x} ranked "
      f"{'first' if best.candidate == true_part else 'NOT first'}")
print(f"measured bias {best.bias:.5f} vs predicted {expected:.5f} "
      f"({(best.bias - expected) / sigma:+.1f} sigma)")
