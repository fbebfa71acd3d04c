"""Command-line front end.

Subcommands: gen (produce keystream), multiples (search weight-4
multiples), attack (plan or run the state recovery), analyze (spectral
report of the combining function), verify (regenerate and compare).

Results go to stdout; progress and timings go to stderr.  Exit codes:
0 success, 2 bad input, 3 the operation ran but failed (attack
exhausted, verification mismatch), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
import time

import numpy as np

from . import attack, fileio, multiples
from .boolfn import (BooleanFunction, check_p_spectrum_bounds, nonlinearity,
                     p_spectrum, p_spectrum_bruteforce,
                     random_balanced_function, resiliency_order,
                     walsh_spectrum)
from .errors import AttackExhaustedError, InvariantError, ValidationError
from .gf2 import RESIDUE_MAX_DEGREE, keystream, random_state
from .multiples import product_modulus

CACHE_DIR_ENV = "COMBGEN_CACHE_DIR"

# progress from the CLI and the library alike; main shows it on stderr
_log = logging.getLogger("combgen")


def _parse_hex(text, what):
    try:
        value = int(text, 16)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ValidationError(f"bad {what} {text!r}, expected non-negative hex")


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}") from None


def cmd_gen(args):
    spec = fileio.load_generator_spec(args.spec)
    if args.state is not None:
        state = _parse_hex(args.state, "state")
    else:
        rng = np.random.default_rng(args.seed)
        state = random_state(spec, rng)
    t0 = time.perf_counter()
    ks = keystream(spec, state, args.count)
    _log.info(f"generated {args.count} bits in "
              f"{time.perf_counter() - t0:.2f}s")
    fileio.save_keystream(args.out, ks)
    print(f"state: 0x{state:x}")
    print(f"bits: {len(ks)}")
    print(f"wrote {args.out}")
    return 0


def cmd_multiples(args):
    if args.modulus is not None:
        modulus = _parse_hex(args.modulus, "modulus")
    else:
        if args.spec is None or args.registers is None:
            raise ValidationError("need --modulus, or --spec with "
                                  "--registers")
        spec = fileio.load_generator_spec(args.spec)
        idx = _parse_int_list(args.registers)
        if not all(0 <= r < len(spec.lfsrs) for r in idx):
            raise ValidationError(f"register index out of range in {idx}")
        modulus = product_modulus([spec.lfsrs[r] for r in idx])
    t0 = time.perf_counter()
    report = multiples.find_weight4(modulus, args.degree_bound,
                                    limit=args.limit)
    _log.info(f"scan took {time.perf_counter() - t0:.2f}s")
    print(f"modulus: 0x{modulus:x}")
    print(f"degree bound: {args.degree_bound}")
    print(f"found: {report.count}   expected by density: "
          f"{float(report.expected):.2f}")
    for m in report.found[:20]:
        print(f"  {m.t1} {m.t2} {m.t3}")
    if report.count > 20:
        print(f"  ... {report.count - 20} more")
    if args.out:
        fileio.save_multiples_cache(args.out, report)
        print(f"wrote {args.out}")
    return 0


def cmd_attack(args):
    spec = fileio.load_generator_spec(args.spec)
    order = tuple(_parse_int_list(args.order)) if args.order else None
    ap = attack.plan(spec, order)
    print(ap.describe())
    if args.plan_only:
        return 0
    if args.keystream is None:
        raise ValidationError("need --keystream to run the attack "
                              "(or pass --plan-only)")
    ks = fileio.load_keystream(args.keystream)
    # one pool for every stage; run_attack keeps what fits each stage
    pool = [m for p in args.multiples or []
            for m in fileio.load_multiples_cache(p).found]
    t0 = time.perf_counter()
    result = attack.run_attack(
        spec, ks, ap, multiples=dict.fromkeys(range(len(ap.stages)), pool),
        top_k=args.top_k, split_bits=args.split_bits,
        cache_dir=os.environ.get(CACHE_DIR_ENV))
    _log.info(f"attack took {time.perf_counter() - t0:.2f}s, "
              f"{result.backtracks} backtracks")
    print(f"recovered state: 0x{result.state:x}")
    for r, part in enumerate(spec.split_state(result.state)):
        print(f"  register {r}: 0x{part:x}")
    for rep in result.reports:
        stage = ap.stages[rep.stage]
        if rep.multiples:
            print(f"stage {rep.stage + 1} (register {rep.target}): "
                  f"{rep.relations_used} relations from "
                  f"{len(rep.multiples)} multiples, {rep.seconds:.2f}s")
            print(attack.candidates_tsv(rep.candidates))
            for w in rep.warnings:
                print(f"  warning: {w}")
        else:
            rank = ("inconsistent" if rep.rank is None
                    else f"rank {rep.rank}")
            print(f"stage {rep.stage + 1} (registers "
                  f"{list(stage.registers)}): collapse of degree "
                  f"{stage.degree} over {stage.monomials} monomials, {rank} "
                  f"on a {stage.window}-bit window, {len(rep.candidates)} "
                  f"solution(s), {rep.seconds:.2f}s")
    print("keystream regenerated exactly: yes")
    return 0


def cmd_analyze(args):
    if args.spec:
        spec = fileio.load_generator_spec(args.spec)
        f = spec.function
        print(f"generator: {len(spec.lfsrs)} registers, "
              f"{spec.m}-bit state, lengths "
              f"{[lf.length for lf in spec.lfsrs]}")
        for r, lf in enumerate(spec.lfsrs):
            wired = [j for j, _ in spec.inputs_of_register(r)]
            print(f"  register {r}: feedback 0x{lf.feedback:x}, "
                  f"taps {list(lf.taps)}, feeds inputs {wired}")
    elif args.function:
        f = BooleanFunction.from_hex(args.function)
    else:
        raise ValidationError("need --spec or --function")
    print(f"combining function: n = {f.n}, weight {f.weight}"
          + (" (balanced)" if f.is_balanced else " (NOT balanced)"))
    print(f"resiliency order: {resiliency_order(f)}")
    print(f"nonlinearity: {nonlinearity(f)}")
    rep = check_p_spectrum_bounds(f)
    print(f"autocorrelation peak: {rep.delta}")
    p0 = float(rep.p0)
    print(f"quadruple-sum advantage 2*(P0 - 1/2): {2 * (p0 - 0.5)} "
          f"(P0 = {p0})")
    print(f"floor bound P0 >= 1/2 + 2^-(n+1): "
          f"{'holds' if rep.p0 >= rep.p0_bound else 'VIOLATED'} "
          f"(P0 = {p0:.6f}, bound = {float(rep.p0_bound):.6f})")
    print(f"gap bound vs autocorrelation: "
          f"{'holds' if rep.min_gap >= rep.gap_bound else 'VIOLATED'} "
          f"(min gap = {float(rep.min_gap):.6f}, "
          f"bound = {float(rep.gap_bound):.6f})")
    return 0


def _balanced_tables_3():
    for ones in itertools.combinations(range(8), 4):
        table = np.zeros(8, dtype=np.uint8)
        table[list(ones)] = 1
        yield BooleanFunction(3, table)


def cmd_verify(args):
    """Sweep the exact spectral machinery against its brute-force oracles.

    Deterministic given (--n, --trials, --seed); any mismatch is an
    implementation bug and exits with the invariant-breach code.
    """
    if args.exhaustive:
        if args.n != 3:
            raise ValidationError("--exhaustive enumerates all balanced "
                                  "functions and is only sized for n=3")
        funcs = list(_balanced_tables_3())
    else:
        if args.n > 6:
            raise ValidationError("brute-force legs are capped at n=6")
        if args.trials < 1:
            raise ValidationError(f"--trials must be at least 1, got "
                                  f"{args.trials}")
        rng = np.random.default_rng(args.seed)
        funcs = [random_balanced_function(args.n, rng)
                 for _ in range(args.trials)]
    for f in funcs:
        ps = p_spectrum(f)
        bf = p_spectrum_bruteforce(f)
        if ps.numerators != bf.numerators:
            raise InvariantError(f"p-spectrum mismatch for {f.to_hex()}")
        w = walsh_spectrum(f)
        if sum(v * v for v in w.values) != 1 << (2 * f.n):
            raise InvariantError(f"Parseval failure for {f.to_hex()}")
        rep = check_p_spectrum_bounds(f)
        if not rep.ok:
            raise InvariantError(f"probability bound violated for "
                                 f"{f.to_hex()}")
        print(f"ok {f.to_hex()} p0={ps.numerators[0]}/{ps.denominator}")
    print(f"checked {len(funcs)} balanced functions at n={args.n}: "
          f"spectrum oracle exact, Parseval exact, bounds hold")
    return 0


def cmd_check(args):
    spec = fileio.load_generator_spec(args.spec)
    ks = fileio.load_keystream(args.keystream)
    if not len(ks):
        raise ValidationError(f"{args.keystream} holds no keystream bits to "
                              f"check")
    state = _parse_hex(args.state, "state")
    regen = keystream(spec, state, len(ks))
    if regen == ks:
        print(f"state 0x{state:x} regenerates all {len(ks)} bits: MATCH")
        return 0
    diff = int(np.argmax(regen.bits != ks.bits))
    print(f"state 0x{state:x}: MISMATCH from bit {diff}")
    return 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="combgen",
        description="LFSR combination generators: simulate and break")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate keystream")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--state", help="full initial state, hex")
    p.add_argument("--seed", type=int, help="draw the state from this seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("multiples", help="search weight-4 multiples")
    p.add_argument("--spec")
    p.add_argument("--registers", help="comma-separated register indexes")
    p.add_argument("--modulus",
                   help=f"modulus polynomial, hex, of degree at most "
                        f"{RESIDUE_MAX_DEGREE}")
    p.add_argument("--degree-bound", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_multiples)

    p = sub.add_parser("attack", help="plan and run state recovery")
    p.add_argument("--spec", required=True)
    p.add_argument("--keystream")
    p.add_argument("--order", help="target order, e.g. 0,1,2")
    p.add_argument("--plan-only", action="store_true")
    p.add_argument("--top-k", type=int, default=attack.DEFAULT_BEAM)
    p.add_argument("--split-bits", type=int, default=0, metavar="BITS",
                   help="memory budget: count tables of 2^(m1 - BITS) "
                        "entries per row, m1 the longest scored register; "
                        "stages that fit score in one pass")
    p.add_argument("--multiples", action="append",
                   help="multiple-cache file (repeatable)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="report combining-function spectra")
    p.add_argument("--spec")
    p.add_argument("--function", help="truth table, hex")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify",
                       help="sweep spectra against brute-force oracles")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="all 70 balanced 3-variable functions")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="check a state against a keystream")
    p.add_argument("--spec", required=True)
    p.add_argument("--keystream", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    level = _log.level
    _log.addHandler(handler)
    _log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AttackExhaustedError as exc:
        print(f"attack failed: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    finally:
        _log.removeHandler(handler)
        _log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
