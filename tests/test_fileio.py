"""File formats: generator specs, packed keystream, multiple caches.

Everything must round-trip bit-exactly; a second write of a re-read
artifact produces identical bytes.
"""

import json
import os
import stat
import types

import numpy as np
import pytest

from combgen import fileio, presets
from combgen.errors import ValidationError
from combgen.gf2 import Keystream, keystream
from combgen.multiples import MultipleSearchReport, Weight4Multiple, \
    find_weight4, product_modulus


def test_spec_roundtrip_bytes(tmp_path, toy):
    path = tmp_path / "toy.json"
    fileio.save_generator_spec(path, toy)
    again = tmp_path / "again.json"
    fileio.save_generator_spec(again, fileio.load_generator_spec(path))
    assert path.read_bytes() == again.read_bytes()


def test_spec_roundtrip_equivalence(tmp_path, toy):
    path = tmp_path / "toy.json"
    fileio.save_generator_spec(path, toy)
    spec = fileio.load_generator_spec(path)
    assert spec.lfsrs == toy.lfsrs
    assert spec.wiring == toy.wiring
    assert spec.function == toy.function
    assert keystream(spec, 999, 64) == keystream(toy, 999, 64)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spec_roundtrip_every_small_arity(tmp_path, rng, n):
    # to_hex writes the 2-bit table of n = 1 as one hex digit, which only
    # the header's n tells apart from a 4-bit table
    from combgen.boolfn import BooleanFunction
    from combgen.gf2 import GeneratorSpec, LfsrSpec
    table = rng.permutation(np.arange(1 << n) & 1)
    spec = GeneratorSpec((LfsrSpec(5, 0b100101, taps=tuple(range(n))),),
                         BooleanFunction(n, table),
                         tuple((0, k) for k in range(n)))
    path = tmp_path / "spec.json"
    fileio.save_generator_spec(path, spec)
    assert fileio.load_generator_spec(path) == spec


def test_spec_rejects_a_one_input_header_on_a_wider_table(tmp_path):
    doc = fileio.generator_spec_to_dict(presets.toy_generator())
    doc["function"] = {"n": 1, "truth_table": "0x6"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="implies n=2, header says 1"):
        fileio.load_generator_spec(path)


def test_spec_rejects_inconsistent_arity(tmp_path, toy):
    doc = fileio.generator_spec_to_dict(toy)
    doc["function"]["n"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        fileio.load_generator_spec(path)


def test_spec_rejects_bad_wiring(tmp_path, toy):
    doc = fileio.generator_spec_to_dict(toy)
    doc["wiring"][0] = [0, 0]
    doc["wiring"][1] = [0, 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        fileio.load_generator_spec(path)


@pytest.mark.parametrize("edit", [
    lambda d: d["lfsrs"][0].update(length="thirteen"),
    lambda d: d["lfsrs"][0].update(length=13.7),
    lambda d: d["lfsrs"][0].update(taps=[0.9, 5.2]),
    lambda d: d["lfsrs"][0].update(feedback=8219.0),
    lambda d: d["function"].update(n="x"),
    lambda d: d["function"].update(n=4.0),
    lambda d: d["function"].update(truth_table=5),
    lambda d: d["wiring"].__setitem__(0, [0, 0, 1]),
    lambda d: d["wiring"].__setitem__(0, [0]),
], ids=["length-text", "length-float", "taps-float", "feedback-float",
        "n-text", "n-float", "truth-table-number", "wiring-triple",
        "wiring-single"])
def test_spec_rejects_malformed_fields(tmp_path, toy, edit):
    doc = fileio.generator_spec_to_dict(toy)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError,
                       match="malformed generator spec|bad polynomial"):
        fileio.load_generator_spec(path)


@pytest.mark.parametrize("field, edit", [
    ("length", lambda d: d["lfsrs"][0].update(length=True)),
    ("taps", lambda d: d["lfsrs"][2].update(taps=[True, 8])),
    ("feedback", lambda d: d["lfsrs"][0].update(feedback=False)),
    ("n", lambda d: d["function"].update(n=True)),
    ("wiring", lambda d: d["wiring"].__setitem__(1, [0, True])),
    ("wiring", lambda d: d["wiring"].__setitem__(0, [False, 0])),
], ids=["length", "taps", "feedback", "n", "wiring-tap", "wiring-register"])
def test_spec_rejects_booleans(tmp_path, toy, field, edit):
    # JSON true and false are not the integers 1 and 0
    doc = fileio.generator_spec_to_dict(toy)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"boolean {field}"):
        fileio.load_generator_spec(path)


def test_keystream_roundtrip(tmp_path, rng):
    bits = Keystream(rng.integers(0, 2, size=777).astype(np.uint8))
    path = tmp_path / "x.ks"
    fileio.save_keystream(path, bits)
    back = fileio.load_keystream(path)
    assert back == bits
    again = tmp_path / "y.ks"
    fileio.save_keystream(again, back)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("nbits", [1, 63, 77, 100])
def test_keystream_padding_bits_do_not_count(tmp_path, rng, nbits):
    # a file whose last byte has its padding bits set loads as the same
    # keystream: equal to the bits, and to the file with clean padding
    bits = Keystream(rng.integers(0, 2, size=nbits).astype(np.uint8))
    clean, dirty = tmp_path / "clean.ks", tmp_path / "dirty.ks"
    fileio.save_keystream(clean, bits)
    raw = bytearray(clean.read_bytes())
    if nbits % 8:
        raw[-1] |= 0xFF << nbits % 8 & 0xFF
    dirty.write_bytes(bytes(raw))
    back = fileio.load_keystream(dirty)
    assert back == bits and bits == back
    assert back == fileio.load_keystream(clean)
    assert np.array_equal(back.bits, bits.bits)


def test_keystream_empty_payload(tmp_path):
    path = tmp_path / "empty.ks"
    fileio.save_keystream(path, Keystream(np.zeros(0, dtype=np.uint8)))
    assert len(fileio.load_keystream(path)) == 0


def test_keystream_header_layout(tmp_path):
    path = tmp_path / "h.ks"
    fileio.save_keystream(path, Keystream(np.array([1, 0, 1], np.uint8)))
    raw = path.read_bytes()
    assert raw[:4] == b"CGKS"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:13], "little") == 3
    assert raw[13] == 0b101


def test_keystream_rejects_corruption(tmp_path):
    path = tmp_path / "c.ks"
    fileio.save_keystream(path, Keystream(np.ones(100, dtype=np.uint8)))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        fileio.load_keystream(path)
    fileio.save_keystream(path, Keystream(np.ones(100, dtype=np.uint8)))
    path.write_bytes(path.read_bytes()[:-2])  # truncated payload
    with pytest.raises(ValidationError):
        fileio.load_keystream(path)


def test_multiples_cache_roundtrip(tmp_path):
    report = find_weight4(presets.TOY_POLY_13, 300)
    path = tmp_path / "m.txt"
    fileio.save_multiples_cache(path, report)
    back = fileio.load_multiples_cache(path)
    assert back.modulus == report.modulus
    assert back.degree_bound == report.degree_bound
    assert back.found == report.found
    assert back.expected == report.expected
    again = tmp_path / "m2.txt"
    fileio.save_multiples_cache(again, back)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("fail", ["found", "rename"])
def test_multiples_cache_save_interrupted_keeps_old_file(tmp_path,
                                                         monkeypatch, fail):
    # a save that fails after the header, or at the rename, leaves the
    # previous cache byte-identical and no temporary file behind
    path = tmp_path / "m.txt"
    report = find_weight4(presets.TOY_POLY_13, 300)
    fileio.save_multiples_cache(path, report)
    before = path.read_bytes()

    def found():
        yield Weight4Multiple(21, 54, 60)
        raise KeyboardInterrupt

    def no_rename(src, dst):
        raise KeyboardInterrupt

    if fail == "found":
        report = types.SimpleNamespace(modulus=presets.TOY_POLY_13,
                                       degree_bound=300, found=found())
    else:
        monkeypatch.setattr(fileio.os, "replace", no_rename)
    with pytest.raises(KeyboardInterrupt):
        fileio.save_multiples_cache(path, report)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


def test_multiples_cache_written_through_links_and_pipes(tmp_path):
    # a symlink keeps pointing at its target, which gets the new cache;
    # a pipe is written in place, not replaced by a regular file
    report = find_weight4(presets.TOY_POLY_13, 300)
    want = tmp_path / "want.txt"
    fileio.save_multiples_cache(want, report)
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    fileio.save_multiples_cache(link, report)
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        fileio.save_multiples_cache(fifo, report)
        got = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == want.read_bytes()


def test_multiples_cache_empty(tmp_path):
    report = MultipleSearchReport(
        modulus=presets.TOY_POLY_13, degree_bound=3, found=())
    path = tmp_path / "empty.txt"
    fileio.save_multiples_cache(path, report)
    back = fileio.load_multiples_cache(path)
    assert back.found == () and back.expected < 1


def test_multiples_cache_ignores_comments_and_sorts(tmp_path):
    path = tmp_path / "hand.txt"
    path.write_text("# modulus 0x201b max-degree 300\n"
                    "\n"
                    "# a stray comment\n"
                    "18 38 39\n"
                    "9 15 59\n")
    back = fileio.load_multiples_cache(path)
    assert [m.t3 for m in back.found] == [39, 59]
    assert back.found[0] == Weight4Multiple(18, 38, 39)


def test_multiples_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("18 38 39\n")
    with pytest.raises(ValidationError):
        fileio.load_multiples_cache(path)


def test_multiples_cache_rejects_binary_file(tmp_path):
    # a keystream given where a multiples file belongs is not UTF-8 text
    path = tmp_path / "toy.ks"
    fileio.save_keystream(path, Keystream(np.ones(100, dtype=np.uint8)))
    with pytest.raises(ValidationError, match="not a multiples file"):
        fileio.load_multiples_cache(path)
    path.write_bytes(b"# modulus 0x201b max-degree 300\n\xff\xfe 38 39\n")
    with pytest.raises(ValidationError, match="not a multiples file"):
        fileio.load_multiples_cache(path)


def test_multiples_cache_large_modulus(tmp_path):
    modulus = product_modulus([presets.POLY_31, presets.POLY_37])
    report = MultipleSearchReport(
        modulus=modulus, degree_bound=7000,
        found=(presets.LARGE_MULTIPLE_31_37,))
    path = tmp_path / "big.txt"
    fileio.save_multiples_cache(path, report)
    assert fileio.load_multiples_cache(path).modulus == modulus


@pytest.mark.parametrize("load, content, match", [
    (fileio.load_generator_spec, '{"lfsrs": [', "bad spec JSON"),
    (fileio.load_keystream, b"CGKS\x02" + bytes(8),
     "unsupported keystream version 2"),
    (fileio.load_multiples_cache, "# modulus 0x201b min-degree 300\n",
     "bad header"),
    (fileio.load_multiples_cache, "# modulus 0x201b max-degree\n",
     "bad header"),
    (fileio.load_multiples_cache,
     "# modulus 0x201b max-degree 300\n18 38\n", "bad line '18 38'"),
], ids=["spec-json", "keystream-version", "multiples-header-word",
        "multiples-header-short", "multiples-pair"])
def test_loaders_refuse_malformed_files(tmp_path, load, content, match):
    path = tmp_path / "bad"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(ValidationError, match=match):
        load(path)
