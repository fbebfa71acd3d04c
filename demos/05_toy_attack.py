"""
Full state recovery on the toy generator
========================================

Registers of 13, 11 and 9 bits, a 6-input filter, about 2**19 keystream
bits.  Stage 1 scores the 13-bit register with one Walsh transform; with
it known, registers 1 and 2 fall together to one GF(2) elimination over
the 211 monomials of degree at most 2 in their 20 bits (the collapse).
"""

import time

import numpy as np

from combgen import attack
from combgen.gf2 import keystream, random_state
from combgen.presets import toy_generator

spec = toy_generator()
rng = np.random.default_rng()
state = random_state(spec, rng)
ks = keystream(spec, state, 1 << 19)
print(f"secret 33-bit state: 0x{state:x}")
print(f"keystream: {len(ks)} bits\n")

plan = attack.plan(spec, (0, 1, 2))
print(plan.describe())

t0 = time.perf_counter()
result = attack.run_attack(spec, ks, plan, top_k=8)
elapsed = time.perf_counter() - t0

print(f"\nrecovered: 0x{result.state:x}   correct: {result.state == state}")
print(f"{elapsed:.2f}s, {result.backtracks} backtracks")
for rep in result.reports:
    stage = plan.stages[rep.stage]
    if rep.multiples:
        top = rep.candidates[0]
        print(f"  stage {rep.stage + 1} -> register {rep.target}: "
              f"{rep.relations_used} relations, best z={top.zscore:.1f}")
    else:
        print(f"  stage {rep.stage + 1} -> registers "
              f"{list(stage.registers)}: collapse of degree {stage.degree}, "
              f"rank {rep.rank} on {stage.window} bits, "
              f"{len(rep.candidates)} solution(s)")

# The recovered state must regenerate the observed keystream bit for bit
# (run_attack already enforces this before accepting a branch).
assert keystream(spec, result.state, len(ks)) == ks
print("keystream regenerated exactly")
