"""Command-line surface, exercised through main(argv)."""

import json
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from combgen import attack, fileio, presets
from combgen.cli import main
from combgen.gf2 import keystream


@pytest.fixture
def toy_spec_file(tmp_path, toy):
    path = tmp_path / "toy.json"
    fileio.save_generator_spec(path, toy)
    return str(path)


@pytest.fixture
def toy_ks_file(tmp_path, toy, toy_spec_file):
    path = tmp_path / "toy.ks"
    fileio.save_keystream(path, keystream(toy, 0x15543210F, 1 << 19))
    return str(path)


def test_gen_writes_keystream_and_prints_state(tmp_path, toy_spec_file,
                                               toy, capsys):
    out = tmp_path / "g.ks"
    rc = main(["gen", "--spec", toy_spec_file, "--count", "5000",
               "--state", "1f00ff00f", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "state: 0x1f00ff00f" in text
    assert fileio.load_keystream(out) == keystream(toy, 0x1F00FF00F, 5000)


def test_gen_zero_bits_roundtrips(tmp_path, toy_spec_file):
    out = tmp_path / "empty.ks"
    rc = main(["gen", "--spec", toy_spec_file, "--count", "0",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert len(fileio.load_keystream(out)) == 0


def test_gen_rejects_bad_state(tmp_path, toy_spec_file):
    rc = main(["gen", "--spec", toy_spec_file, "--count", "10",
               "--state", "zz", "--out", str(tmp_path / "x.ks")])
    assert rc == 2


def test_gen_missing_spec_returns_2(tmp_path):
    rc = main(["gen", "--spec", str(tmp_path / "none.json"), "--count",
               "10", "--seed", "1", "--out", str(tmp_path / "x.ks")])
    assert rc == 2


def test_gen_on_a_63_bit_register_exits_2(tmp_path, toy, capsys):
    # X**63 + X + 1 is primitive: only the length limit rejects it
    doc = fileio.generator_spec_to_dict(toy)
    doc["lfsrs"][2].update(length=63, feedback="0x8000000000000003")
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps(doc))
    rc = main(["gen", "--spec", str(spec), "--count", "10", "--seed", "1",
               "--out", str(tmp_path / "x.ks")])
    assert rc == 2
    assert "62-bit limit" in capsys.readouterr().err
    assert not (tmp_path / "x.ks").exists()


@pytest.mark.parametrize("feedback", ["-0x211", -529])
def test_negative_feedback_exits_2(tmp_path, toy, feedback):
    # a negative feedback passes the degree check by its bit length, and
    # the primitivity test on it used to loop forever: a child process
    # with a timeout keeps a regression from hanging the suite
    doc = fileio.generator_spec_to_dict(toy)
    doc["lfsrs"][2]["feedback"] = feedback
    spec = tmp_path / "neg.json"
    spec.write_text(json.dumps(doc))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from combgen.cli import main; sys.exit(main())",
         "attack", "--spec", str(spec), "--plan-only"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert "must not be negative" in proc.stderr


def test_multiples_writes_verified_cache(tmp_path, toy_spec_file, capsys):
    out = tmp_path / "cache.txt"
    rc = main(["multiples", "--spec", toy_spec_file, "--registers", "1,2",
               "--degree-bound", "512", "--out", str(out)])
    assert rc == 0
    report = fileio.load_multiples_cache(out)
    assert report.count > 0
    from combgen.multiples import verify_multiple
    for m in report.found:
        assert verify_multiple(m, [presets.TOY_POLY_11, presets.TOY_POLY_9])


def test_multiples_tiny_bound_writes_empty_cache(tmp_path, toy_spec_file,
                                                 capsys):
    out = tmp_path / "empty.txt"
    rc = main(["multiples", "--spec", toy_spec_file, "--registers", "1,2",
               "--degree-bound", "3", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "found: 0" in text and "expected by density" in text
    assert fileio.load_multiples_cache(out).found == ()


def test_multiples_by_raw_modulus(capsys):
    rc = main(["multiples", "--modulus", "0x201b", "--degree-bound", "300"])
    assert rc == 0
    assert "modulus: 0x201b" in capsys.readouterr().out


@pytest.mark.parametrize("modulus, limit", [("zz", "5"), ("0x201b", "-1"),
                                           ("-0x201b", "5"),
                                           ("0x8000000000000003", "5")])
def test_multiples_bad_input_exits_2(modulus, limit, capsys):
    # --modulus=VALUE, so argparse reads a leading minus as a value
    rc = main(["multiples", f"--modulus={modulus}", "--degree-bound", "300",
               "--limit", limit])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_multiples_bad_register_index(toy_spec_file):
    rc = main(["multiples", "--spec", toy_spec_file, "--registers", "7",
               "--degree-bound", "64"])
    assert rc == 2


def test_multiples_negative_register_index(toy_spec_file, capsys):
    # -1 would wrap to the last register and search its multiples
    rc = main(["multiples", "--spec", toy_spec_file, "--registers", "-1",
               "--degree-bound", "64"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "register index out of range" in captured.err
    assert "modulus:" not in captured.out


def test_attack_plan_only_prints_parameters(toy_spec_file, capsys):
    rc = main(["attack", "--spec", toy_spec_file, "--plan-only"])
    assert rc == 0
    text = capsys.readouterr().out
    assert f"N = {13 * 2 ** 15}" in text
    assert "first-stage cost by ordering" in text
    assert "orderings differ in N as well as in keystream" in text


# `combgen attack --plan-only` on the toy, pinned byte for byte: one
# scored stage, then the collapse of registers 1 and 2
PLAN_ONLY_TOY = """\
attack plan, target order [0, 1, 2]
stage 1: register 0 (m1=13)  known=[]  cancelled=[1, 2] (m2=20, n2=4)
  samples S = 106496 = 2^16.70   equations N = 425984 = 2^18.70   (n1=2)
  worst-case spectrum-gap figures: S = 697933, N = 2791729
  keystream: one multiple -> 426169 bits = 2^18.70 (52 KB); many multiples \
-> 1810 bits = 2^10.82 (226 B); planned 1810 bits = 2^10.82 (226 B)
  search: time 2^18.70, memory 2^13.00 counters; tradeoff endpoint time \
2^30.70, memory 2^17.70
stage 2: registers [1, 2] (m=20)  known=[0]
  collapse: degree 2 over 211 monomials, 2.500 equations per keystream bit, \
window of 209 bits
total keystream required: 1810 bits = 2^10.82 (226 B)
first-stage cost by ordering:
  order      m1  n1  m2     N                keystream
  [0, 1, 2]  13   2  20  N = 425984 = 2^18.70  1810 bits = 2^10.82
  [0, 2, 1]  13   2  20  N = 425984 = 2^18.70  1810 bits = 2^10.82
  [1, 0, 2]  11   2  22  N = 360448 = 2^18.46  2455 bits = 2^11.26
  [1, 2, 0]  11   2  22  N = 360448 = 2^18.46  2455 bits = 2^11.26
  [2, 0, 1]   9   2  24  N = 294912 = 2^18.17  3302 bits = 2^11.69
  [2, 1, 0]   9   2  24  N = 294912 = 2^18.17  3302 bits = 2^11.69
note: equation counts N = m1 * 2^(2n+n1+1) scale with the first target's \
length m1, so orderings differ in N as well as in keystream
warning: an all-zero register state gives no usable statistic; candidate 0 \
ranks last, so such keys are recovered only with top_k = 2**m1
"""


def test_attack_plan_only_toy_is_pinned(toy_spec_file, capsys):
    assert main(["attack", "--spec", toy_spec_file, "--plan-only"]) == 0
    assert capsys.readouterr().out == PLAN_ONLY_TOY


def test_attack_plan_only_with_a_linear_structure(tmp_path, toy, capsys):
    # f'(x) = x0 + f(x with bit 0 cleared) has autocorrelation peak 2**n,
    # so the worst-case figures have no bound
    from combgen.boolfn import BooleanFunction
    from combgen.gf2 import GeneratorSpec
    x = np.arange(1 << toy.n)
    table = (x & 1) ^ toy.function.table[x & ~1]
    path = tmp_path / "linear.json"
    fileio.save_generator_spec(path, GeneratorSpec(
        toy.lfsrs, BooleanFunction(toy.n, table), toy.wiring))
    assert main(["attack", "--spec", str(path), "--plan-only"]) == 0
    assert ("worst-case spectrum-gap figures: unbounded"
            in capsys.readouterr().out)


def test_attack_plan_only_on_one_register(tmp_path, capsys):
    # one register is one collapse stage: no ordering to compare
    from combgen.boolfn import BooleanFunction
    from combgen.gf2 import GeneratorSpec, LfsrSpec
    path = tmp_path / "one.json"
    fileio.save_generator_spec(path, GeneratorSpec(
        (LfsrSpec(3, 0b1011, taps=(0, 1)),), BooleanFunction(2, [0, 0, 0, 1]),
        ((0, 0), (0, 1))))
    assert main(["attack", "--spec", str(path), "--plan-only"]) == 0
    text = capsys.readouterr().out
    assert ("collapse: degree 1 over 4 monomials, 0.500 equations per "
            "keystream bit, window of 56 bits") in text
    assert "first-stage cost by ordering" not in text


def test_attack_plan_only_prints_the_scaling_note_once(toy_spec_file,
                                                       capsys):
    assert main(["attack", "--spec", toy_spec_file, "--plan-only"]) == 0
    assert capsys.readouterr().out.count(attack.EQUATION_SCALING_NOTE) == 1


def test_one_input_spec_round_trips_through_gen_and_attack(tmp_path,
                                                           capsys):
    # f(x) = x on one tap: the keystream is the register's own output,
    # which a degree-1 collapse inverts
    from combgen.boolfn import BooleanFunction
    from combgen.gf2 import GeneratorSpec, LfsrSpec
    path = tmp_path / "one.json"
    fileio.save_generator_spec(path, GeneratorSpec(
        (LfsrSpec(5, 0b100101, taps=(2,)),), BooleanFunction(1, [0, 1]),
        ((0, 0),)))
    ks = tmp_path / "one.ks"
    assert main(["gen", "--spec", str(path), "--count", "64", "--state",
                 "13", "--out", str(ks)]) == 0
    assert main(["attack", "--spec", str(path), "--keystream", str(ks)]) == 0
    out = capsys.readouterr().out
    assert "recovered state: 0x13" in out
    assert "keystream regenerated exactly: yes" in out


def test_attack_runs_end_to_end(tmp_path, toy_spec_file, toy_ks_file,
                                capsys, monkeypatch):
    monkeypatch.setenv("COMBGEN_CACHE_DIR", str(tmp_path / "cache"))
    rc = main(["attack", "--spec", toy_spec_file, "--keystream",
               toy_ks_file])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "recovered state: 0x15543210f" in out
    assert "keystream regenerated exactly: yes" in out
    assert "candidate\tn0\tn1\tbias\tzscore" in out
    assert "stage 1 (register 0): searching multiples of" in err
    assert re.search(r"^stage 1 \(register 0\): \d+ multiples up to degree "
                     r"\d+ in \d+\.\d\ds$", err, re.M)
    # registers 1 and 2 fall to the collapse, which searches nothing
    assert "stage 2" not in err
    assert re.search(r"^stage 2 \(registers \[1, 2\]\): collapse of degree 2 "
                     r"over 211 monomials, rank 210 on a 209-bit window, 1 "
                     r"solution\(s\), \d+\.\d\ds$", out, re.M)
    # second run hits the on-disk cache and must agree
    rc = main(["attack", "--spec", toy_spec_file, "--keystream",
               toy_ks_file])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "recovered state: 0x15543210f" in out
    assert "stage 1 (register 0): multiples from cache" in err
    assert "searching multiples" not in err


def test_attack_with_supplied_multiples_file(tmp_path, toy_spec_file,
                                            toy_ks_file, capsys,
                                            monkeypatch, scored_stage_2):
    # without the collapse, stage 1's file also lands in stage 2's pool,
    # where its multiples cancel the target too; stage 2 searches its own
    monkeypatch.delenv("COMBGEN_CACHE_DIR", raising=False)
    s1 = str(tmp_path / "s1.txt")
    assert main(["multiples", "--spec", toy_spec_file, "--registers", "1,2",
                 "--degree-bound", "512", "--out", s1]) == 0
    capsys.readouterr()
    rc = main(["attack", "--spec", toy_spec_file, "--keystream",
               toy_ks_file, "--multiples", s1])
    assert rc == 0
    out, err = capsys.readouterr()
    assert "recovered state: 0x15543210f" in out
    assert "stage 1 (register 0)" not in err
    assert "stage 2 (register 1): searching multiples of 0x211" in err


def test_attack_with_a_binary_multiples_file_exits_2(toy_spec_file,
                                                    toy_ks_file, capsys):
    assert main(["attack", "--spec", toy_spec_file, "--keystream",
                 toy_ks_file, "--multiples", toy_ks_file]) == 2
    assert "not a multiples file" in capsys.readouterr().err


def test_attack_without_keystream_is_an_input_error(toy_spec_file):
    assert main(["attack", "--spec", toy_spec_file]) == 2


def test_attack_bad_split_bits_exits_2_before_work(toy_spec_file,
                                                  toy_ks_file, monkeypatch):
    from combgen import attack

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --split-bits")

    monkeypatch.setattr(attack, "search_stage_multiples", no_work)
    monkeypatch.setattr(attack, "harvest_equations", no_work)
    assert main(["attack", "--spec", toy_spec_file, "--keystream",
                 toy_ks_file, "--split-bits", "14"]) == 2


def test_attack_bad_top_k_exits_2_before_work(toy_spec_file, toy_ks_file,
                                              monkeypatch):
    from combgen import attack

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --top-k")

    monkeypatch.setattr(attack, "search_stage_multiples", no_work)
    monkeypatch.setattr(attack, "harvest_equations", no_work)
    assert main(["attack", "--spec", toy_spec_file, "--keystream",
                 toy_ks_file, "--top-k", "0"]) == 2


def test_attack_on_junk_returns_3(tmp_path, toy_spec_file):
    junk = tmp_path / "junk.ks"
    rng = np.random.default_rng(1)
    from combgen.gf2 import Keystream
    fileio.save_keystream(junk, Keystream(
        rng.integers(0, 2, size=1 << 16).astype(np.uint8)))
    rc = main(["attack", "--spec", toy_spec_file, "--keystream", str(junk),
               "--top-k", "2"])
    assert rc == 3


def test_analyze_toy_spec(toy_spec_file, capsys):
    rc = main(["analyze", "--spec", toy_spec_file])
    assert rc == 0
    text = capsys.readouterr().out
    assert "resiliency order: 1" in text
    assert "nonlinearity: 24" in text
    assert "quadruple-sum advantage" in text
    assert "holds" in text and "VIOLATED" not in text


def test_analyze_malformed_spec_exits_2(tmp_path, toy_spec_file, capsys):
    doc = json.loads(pathlib.Path(toy_spec_file).read_text())
    doc["lfsrs"][0].update(length=13.7, taps=[0.9, 5.2])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--spec", str(bad)]) == 2
    assert "malformed generator spec" in capsys.readouterr().err


def test_boolean_in_spec_exits_2(tmp_path, toy_spec_file, capsys):
    doc = json.loads(pathlib.Path(toy_spec_file).read_text())
    doc["lfsrs"][2]["taps"] = [True, 8]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["gen", "--spec", str(bad), "--count", "10", "--seed", "1",
                 "--out", str(tmp_path / "x.ks")]) == 2
    assert "boolean taps" in capsys.readouterr().err
    assert not (tmp_path / "x.ks").exists()


def test_analyze_linear_function(capsys):
    rc = main(["analyze", "--function", "0x96"])  # parity of 3 bits
    assert rc == 0
    text = capsys.readouterr().out
    assert "resiliency order: 2" in text
    assert "nonlinearity: 0" in text
    assert "(P0 = 1.0)" in text


def test_analyze_unbalanced_function_warns(capsys):
    with pytest.warns(UserWarning, match="unbalanced") as caught:
        rc = main(["analyze", "--function", "0x01"])
    assert len(caught) == 1
    assert rc == 0
    assert "NOT balanced" in capsys.readouterr().out


def test_analyze_nine_variable_filter(tmp_path, capsys):
    rc = main(["analyze", "--function",
               presets.RESILIENT_FILTER_9_HEX])
    assert rc == 0
    text = capsys.readouterr().out
    assert "resiliency order: 3" in text
    assert "bound = 0.500977" in text  # 1/2 + 2^-10 floor at n=9


def test_verify_sweep_is_deterministic(capsys):
    assert main(["verify", "--n", "4", "--trials", "6", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--n", "4", "--trials", "6", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "checked 6 balanced functions" in first


def test_verify_exhaustive_n3(capsys):
    assert main(["verify", "--n", "3", "--exhaustive"]) == 0
    assert "checked 70 balanced functions" in capsys.readouterr().out


def test_verify_exhaustive_rejects_other_arity():
    assert main(["verify", "--n", "4", "--exhaustive"]) == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(trials, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a function before checking --trials")

    monkeypatch.setattr("combgen.cli.random_balanced_function", no_draw)
    assert main(["verify", "--n", "4", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "checked" not in out


def test_verify_rejects_n_past_the_brute_force_cap(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a function before checking --n")

    monkeypatch.setattr("combgen.cli.random_balanced_function", no_draw)
    assert main(["verify", "--n", "7"]) == 2
    assert "capped at n=6" in capsys.readouterr().err


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    # a brute-force leg that disagrees is an implementation bug: exit 4
    from combgen.boolfn import p_spectrum

    def off_by_one(f):
        ps = p_spectrum(f)
        return SimpleNamespace(numerators=(ps.numerators[0] + 1,
                                           *ps.numerators[1:]))

    monkeypatch.setattr("combgen.cli.p_spectrum_bruteforce", off_by_one)
    assert main(["verify", "--n", "4", "--trials", "1"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("internal invariant violated: p-spectrum mismatch")
    assert "checked" not in out


@pytest.mark.parametrize("argv, message", [
    (["attack", "--spec", "{spec}", "--order", "0,x", "--plan-only"],
     "bad integer list '0,x'"),
    (["multiples", "--degree-bound", "64"], "need --modulus, or --spec"),
    (["multiples", "--spec", "{spec}", "--degree-bound", "64"],
     "need --modulus, or --spec"),
    (["analyze"], "need --spec or --function"),
], ids=["order", "multiples-nothing", "multiples-no-registers", "analyze"])
def test_missing_or_bad_arguments_exit_2(toy_spec_file, capsys, argv,
                                         message):
    assert main([a.format(spec=toy_spec_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and not out


def test_check_rejects_negative_state(toy_spec_file, toy_ks_file, capsys):
    assert main(["check", "--spec", toy_spec_file, "--keystream",
                 toy_ks_file, "--state=-0x15543210f"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_match_and_mismatch(toy_spec_file, toy_ks_file):
    good = main(["check", "--spec", toy_spec_file, "--keystream",
                 toy_ks_file, "--state", "15543210f"])
    bad = main(["check", "--spec", toy_spec_file, "--keystream",
                toy_ks_file, "--state", "15543210e"])
    assert good == 0 and bad == 3


def test_check_on_an_empty_keystream_exits_2(tmp_path, toy_spec_file,
                                             capsys):
    # 0 bits would otherwise "match" any state
    empty = tmp_path / "empty.ks"
    fileio.save_keystream(empty, keystream(presets.toy_generator(), 1, 0))
    assert main(["check", "--spec", toy_spec_file, "--keystream",
                 str(empty), "--state", "15543210f"]) == 2
    out, err = capsys.readouterr()
    assert "MATCH" not in out and "no keystream bits" in err
