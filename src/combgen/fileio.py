"""On-disk formats: generator specs, keystreams, multiple caches.

Generator specs are JSON.  Keystreams are a small binary container:
magic "CGKS", a version byte (currently 1), the bit count as 8-byte
little-endian, then the bits packed LSB-first per byte.  Multiple caches
are line-oriented text with a header naming the modulus and the searched
degree bound, one "t1 t2 t3" triple per line in ascending degree.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
from operator import index

import numpy as np

from .boolfn import BooleanFunction
from .errors import ValidationError
from .gf2 import GeneratorSpec, Keystream, LfsrSpec
from .multiples import MultipleSearchReport, Weight4Multiple, degree_key

KEYSTREAM_MAGIC = b"CGKS"
KEYSTREAM_VERSION = 1


def _parse_poly(text):
    try:
        return int(text, 16) if isinstance(text, str) else index(text)
    except (TypeError, ValueError):
        raise ValidationError(f"bad polynomial value {text!r}") from None


def _integer(value, field, parse=index):
    """parse(value); a JSON boolean, which index takes as 0 or 1, raises."""
    if isinstance(value, bool):
        raise ValidationError(f"malformed generator spec: boolean {field}")
    return parse(value)


def generator_spec_to_dict(spec):
    return {
        "lfsrs": [
            {"length": lf.length, "feedback": f"0x{lf.feedback:x}",
             "taps": list(lf.taps)}
            for lf in spec.lfsrs
        ],
        "function": {"n": spec.function.n,
                     "truth_table": spec.function.to_hex()},
        "wiring": [list(pair) for pair in spec.wiring],
    }


def generator_spec_from_dict(data):
    """Build a spec from parsed JSON; a missing field, a wrong type
    (booleans included), a non-integer number (never truncated) or a
    wiring entry that is not a pair raises ValidationError."""
    try:
        lfsrs = tuple(
            LfsrSpec(length=_integer(entry["length"], "length"),
                     feedback=_integer(entry["feedback"], "feedback",
                                       _parse_poly),
                     taps=tuple(_integer(t, "taps") for t in entry["taps"]))
            for entry in data["lfsrs"])
        fn = data["function"]
        function = BooleanFunction.from_hex(fn["truth_table"],
                                            _integer(fn["n"], "n"))
        wiring = tuple((_integer(r, "wiring"), _integer(k, "wiring"))
                       for r, k in data["wiring"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed generator spec: {exc!r}") from None
    return GeneratorSpec(lfsrs=lfsrs, function=function, wiring=wiring)


def save_generator_spec(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generator_spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_generator_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad spec JSON: {exc}") from None
    return generator_spec_from_dict(data)


def save_keystream(path, ks):
    ks = Keystream.of(ks)
    header = KEYSTREAM_MAGIC + bytes([KEYSTREAM_VERSION])
    header += struct.pack("<Q", len(ks))
    payload = ks.words.view(np.uint8)[:(len(ks) + 7) // 8].tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_keystream(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13 or blob[:4] != KEYSTREAM_MAGIC:
        raise ValidationError(f"{path}: not a keystream file")
    if blob[4] != KEYSTREAM_VERSION:
        raise ValidationError(f"{path}: unsupported keystream version "
                              f"{blob[4]}")
    (nbits,) = struct.unpack("<Q", blob[5:13])
    payload = blob[13:]
    if len(payload) != (nbits + 7) // 8:
        raise ValidationError(f"{path}: payload is {len(payload)} bytes, "
                              f"expected {(nbits + 7) // 8}")
    # padding bits past the last are not trusted: Keystream.packed clears
    # them, so equal bits compare equal however the file was padded
    words = np.zeros((nbits + 63) // 64 * 8, dtype=np.uint8)
    words[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return Keystream.packed(words.view(np.uint64), nbits)


def save_multiples_cache(path, report):
    """Write the cache to a temporary file beside `path` (beside its
    target, for a symlink) and rename it over that file, so an
    interrupted write leaves any previous file whole.  A device or pipe,
    such as /dev/stdout, is written in place."""
    text = "".join([f"# modulus 0x{report.modulus:x} "
                    f"max-degree {report.degree_bound}\n",
                    *(f"{m.t1} {m.t2} {m.t3}\n" for m in report.found)])
    if os.path.exists(path) and not os.path.isfile(path):
        pathlib.Path(path).write_text(text, encoding="utf-8")
        return
    path = os.path.realpath(path)
    tmp = pathlib.Path(f"{path}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_multiples_cache(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not a multiples file (not UTF-8 "
                                  f"text)") from None
    if not lines or not lines[0].startswith("# modulus "):
        raise ValidationError(f"{path}: missing multiple-cache header")
    fields = lines[0].split()
    try:
        modulus = _parse_poly(fields[2])
        if fields[3] != "max-degree":
            raise ValueError
        bound = int(fields[4])
    except (IndexError, ValueError):
        raise ValidationError(f"{path}: bad header {lines[0]!r}") from None
    found = []
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            t1, t2, t3 = (int(v) for v in ln.split())
        except ValueError:
            raise ValidationError(f"{path}: bad line {ln!r}") from None
        found.append(Weight4Multiple(t1, t2, t3))
    return MultipleSearchReport(modulus, bound,
                                tuple(sorted(found, key=degree_key)))
