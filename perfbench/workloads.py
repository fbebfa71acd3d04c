"""The benchmark's workloads: how each one sets up keys and attacks one.

Every workload attacks 3-register generators under TOY_FILTER with
2**19 keystream bits per key.  They differ in which layers dominate:

toy-warm   run_attack on presets.toy_generator() (13/11/9 bits) with
           multiples searched in set-up and the residue cache warm from
           generating the keystreams.  The relation pipeline (filter,
           column build, accumulate) does almost all the work.
cli-cold   a freshly drawn random generator per key (register lengths
           from FANO_LENGTHS, random feedbacks and taps), attacked through
           `combgen attack --spec ... --keystream ...` in-process with
           the residue and primitivity caches cleared first, so each key
           pays what a fresh process pays (minus interpreter start-up):
           residue tables, per-key multiple search, file loading, CLI.
mid-split  a 24-bit first register ahead of the toy 13- and 11-bit
           registers, attacked with split_bits=2: four prefix passes
           over 2**22-entry tables, where the FWHT dominates.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from combgen import attack, cli, fileio, gf2, presets
from combgen.errors import AttackExhaustedError
from combgen.gf2 import GeneratorSpec, LfsrSpec

KEYSTREAM_BITS = 1 << 19
# Bits regenerated by the plain-loop reference generator when checking a
# recovered state; the fast path regenerates the whole keystream.
REFERENCE_BITS = 512
TOY_WIRING = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
MID_POLY_24 = 0x100001B   # X^24 + X^4 + X^3 + X + 1


class WrongOutput(Exception):
    """The program reported success without a usable state."""


@dataclass
class Key:
    spec: GeneratorSpec
    state: int
    packed: np.ndarray      # keystream bits, np.packbits
    spec_path: str = ""
    keystream_path: str = ""

    def bits(self):
        return np.unpackbits(self.packed, count=KEYSTREAM_BITS)


def mid_generator():
    """24/13/11-bit registers; the first gives 2**24 stage-1 candidates."""
    return GeneratorSpec(
        lfsrs=(
            LfsrSpec(24, MID_POLY_24, (2, 9)),
            LfsrSpec(13, presets.TOY_POLY_13, (2, 9)),
            LfsrSpec(11, presets.TOY_POLY_11, (1, 7)),
        ),
        function=presets.toy_filter(),
        wiring=TOY_WIRING,
    )


def random_primitive(rng, length):
    while True:
        poly = 1 << length | int(rng.integers(0, 1 << (length - 1))) << 1 | 1
        if gf2.poly_is_primitive(poly):
            return poly


# Register lengths for cli-cold keys, longest first: the seven lines of
# the Fano plane on the lengths 9..15, so each length appears in three
# triples and each pair of lengths in one.  Key cost grows with the
# lengths; cycling through all seven keeps a run's median from depending
# on which lengths its seed happened to draw.
FANO_LENGTHS = ((12, 10, 9), (13, 11, 10), (14, 12, 11), (15, 13, 12),
                (14, 13, 9), (15, 14, 10), (15, 11, 9))


def random_generator(rng, lengths):
    """Random primitive feedbacks and 2 random taps per register."""
    lfsrs = []
    for length in lengths:
        taps = sorted(int(t) for t in rng.choice(length, size=2,
                                                 replace=False))
        lfsrs.append(LfsrSpec(length, random_primitive(rng, length), taps))
    return GeneratorSpec(lfsrs=lfsrs, function=presets.toy_filter(),
                         wiring=TOY_WIRING)


def make_key(spec, rng):
    state = gf2.random_state(spec, rng)
    bits = gf2.keystream(spec, state, KEYSTREAM_BITS).bits
    return Key(spec, state, np.packbits(bits))


def recovered_correctly(key, state):
    """True state, and it regenerates the keystream the program was given:
    in full by the fast path, and a prefix by the plain-loop reference."""
    if state != key.state:
        return False
    bits = key.bits()
    if not np.array_equal(gf2.keystream(key.spec, state, bits.size).bits,
                          bits):
        return False
    ref = gf2.keystream_reference(key.spec, state, REFERENCE_BITS).bits
    return np.array_equal(ref, bits[:REFERENCE_BITS])


class LibraryWorkload:
    """run_attack on a fixed spec, multiples searched once per set-up."""

    keys_per_batch = 0
    split_bits = 0

    def spec(self):
        raise NotImplementedError

    def setup_batch(self, rng, workdir, batch):
        gf2.clear_residue_cache()
        spec = self.spec()
        stages = attack.plan(spec).stages
        self.multiples = {
            i: attack.search_stage_multiples(spec, st, KEYSTREAM_BITS)[1]
            for i, st in enumerate(stages) if not st.is_final}
        return [make_key(spec, rng) for _ in range(self.keys_per_batch)]

    @property
    def supplied_multiples(self):
        return sum(len(m) for m in self.multiples.values())

    def prepare(self, key):
        bits = key.bits()
        multiples = self.multiples
        split_bits = self.split_bits

        def call():
            try:
                result = attack.run_attack(key.spec, bits,
                                           multiples=multiples,
                                           split_bits=split_bits)
            except AttackExhaustedError:
                return None
            return result.state
        return call


class ToyWarm(LibraryWorkload):
    keys_per_batch = 32

    def spec(self):
        return presets.toy_generator()


class MidSplit(LibraryWorkload):
    keys_per_batch = 2
    split_bits = 2

    def spec(self):
        return mid_generator()


class CliCold:
    """`combgen attack` in-process on random specs, caches cleared."""

    supplied_multiples = 0

    def setup_batch(self, rng, workdir, batch):
        gf2.clear_residue_cache()
        keys = []
        first = int(rng.integers(len(FANO_LENGTHS)))
        for i in range(len(FANO_LENGTHS)):
            lengths = FANO_LENGTHS[(first + i) % len(FANO_LENGTHS)]
            key = make_key(random_generator(rng, lengths), rng)
            key.spec_path = os.path.join(workdir, f"spec-{batch}-{i}.json")
            key.keystream_path = os.path.join(workdir, f"ks-{batch}-{i}.ks")
            fileio.save_generator_spec(key.spec_path, key.spec)
            bits = key.bits()
            fileio.save_keystream(key.keystream_path, bits)
            keys.append(key)
        return keys

    def prepare(self, key):
        os.environ.pop(cli.CACHE_DIR_ENV, None)
        gf2.clear_residue_cache()
        gf2.poly_is_primitive.cache_clear()
        argv = ["attack", "--spec", key.spec_path,
                "--keystream", key.keystream_path]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                return None
            for line in out.getvalue().splitlines():
                if line.startswith("recovered state: "):
                    return int(line.split()[-1], 16)
            raise WrongOutput("exit code 0 without a 'recovered state:' line")
        return call


WORKLOADS = {"toy-warm": ToyWarm, "cli-cold": CliCold, "mid-split": MidSplit}

# Layers that profiling showed dominating each workload's key time; the
# traced run reports whether its own measurement agrees.
PREDICTED_DOMINANT = {
    "toy-warm": {"attack.filter_known", "attack.accumulate",
                 "attack.iter_column_chunks"},
    "cli-cold": {"gf2.residue_powers"},
    "mid-split": {"boolfn.fwht"},
}
