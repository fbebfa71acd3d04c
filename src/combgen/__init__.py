"""Combination-generator stream ciphers and their correlation attack.

The package has three layers.  `gf2` and `boolfn` are the algebra:
binary polynomials, LFSR simulation, Walsh and autocorrelation spectra,
and the exact probability spectrum of quadruple sums.  `multiples`
finds the low-weight feedback multiples the attack conditions on.
`attack` turns keystream into parity relations, scores partial-state
candidates with a Walsh transform, and walks the registers one at a
time until the full initial state is recovered.

Every fast path has a brute-force counterpart (`p_spectrum_bruteforce`,
`find_weight4_bruteforce`, `score_candidates_naive` for `score_stage`,
`final_direct_search` for `collapse_solve` on a last register, the
reference keystream loop) so results can be checked exactly at small
sizes.
"""

from .attack import (AttackPlan, AttackResult, CandidateScore, CollapseStage,
                     EquationGroup, EquationSet, ScoredStage, StageReport,
                     candidate_counts, candidate_counts_naive,
                     candidates_tsv, collapse_solve, filter_known,
                     final_direct_search, harvest_equations, plan,
                     run_attack, score_candidates_naive, score_stage,
                     search_stage_multiples, zero_sum_fraction)
from .boolfn import (AutocorrSpectrum, BooleanFunction, PSpectrum,
                     PSpectrumBounds, WalshSpectrum, annihilators,
                     autocorrelation, check_p_spectrum_bounds, fwht,
                     nonlinearity, p_spectrum,
                     p_spectrum_bruteforce, random_balanced_function,
                     resiliency_order, walsh_spectrum)
from .errors import (AttackExhaustedError, CombgenError, InvariantError,
                     ValidationError)
from .fileio import (load_generator_spec, load_keystream,
                     load_multiples_cache, save_generator_spec,
                     save_keystream, save_multiples_cache)
from .gf2 import (GeneratorSpec, Keystream, LfsrSpec, keystream,
                  keystream_reference, lfsr_sequence, poly_degree,
                  poly_from_exponents, poly_gcd, poly_is_primitive, poly_mul,
                  poly_mulmod, poly_rem, random_state, sequence_bits,
                  solve_linear, x_power_mod)
from .multiples import (MultipleSearchReport, Weight4Multiple, expected_count,
                        find_weight4, find_weight4_bruteforce,
                        product_modulus, verify_multiple)

__all__ = [
    "AttackExhaustedError",
    "AttackPlan",
    "AttackResult",
    "AutocorrSpectrum",
    "BooleanFunction",
    "CandidateScore",
    "CollapseStage",
    "CombgenError",
    "EquationGroup",
    "EquationSet",
    "GeneratorSpec",
    "InvariantError",
    "Keystream",
    "LfsrSpec",
    "MultipleSearchReport",
    "PSpectrum",
    "PSpectrumBounds",
    "ScoredStage",
    "StageReport",
    "ValidationError",
    "WalshSpectrum",
    "Weight4Multiple",
    "annihilators",
    "autocorrelation",
    "candidate_counts",
    "candidate_counts_naive",
    "candidates_tsv",
    "check_p_spectrum_bounds",
    "collapse_solve",
    "expected_count",
    "filter_known",
    "final_direct_search",
    "find_weight4",
    "find_weight4_bruteforce",
    "fwht",
    "harvest_equations",
    "keystream",
    "keystream_reference",
    "lfsr_sequence",
    "load_generator_spec",
    "load_keystream",
    "load_multiples_cache",
    "nonlinearity",
    "p_spectrum",
    "p_spectrum_bruteforce",
    "plan",
    "poly_degree",
    "poly_from_exponents",
    "poly_gcd",
    "poly_is_primitive",
    "poly_mul",
    "poly_mulmod",
    "poly_rem",
    "product_modulus",
    "random_balanced_function",
    "random_state",
    "resiliency_order",
    "run_attack",
    "save_generator_spec",
    "save_keystream",
    "save_multiples_cache",
    "score_candidates_naive",
    "score_stage",
    "search_stage_multiples",
    "sequence_bits",
    "solve_linear",
    "verify_multiple",
    "walsh_spectrum",
    "x_power_mod",
    "zero_sum_fraction",
]

__version__ = "0.1.0"
