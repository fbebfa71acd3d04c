"""combgen key-recovery benchmark.

    python3 perfbench/run.py --workload toy-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; combgen is imported from its `src/`.
One process attacks one workload in a single-threaded closed loop: the
next key starts only when the previous one has returned, until
`--seconds` have passed.  Keys, random specs and keystreams come from
`--seed` and are built in set-up, which runs SETUP_BATCHES times (each
batch from cold caches); `setup_s` is the median batch.  A key's time
runs from the call into run_attack (or cli.main) until it returns;
`key_s_p50` is their median and `keys_per_s` is keys over their sum, so
checking results and clearing caches between keys are not counted.
The shared host's speed drifts by up to a quarter within minutes, so
after every key and every set-up batch the run times a fixed reference
task (reference.py) and scales that key's or batch's time by
REF_NOMINAL_S over it: `key_s_p50`, `keys_per_s` and `setup_s` read as
seconds on a machine that runs the reference task in REF_NOMINAL_S.  The
unscaled figures and the reference times are in the `info` line.
Every reported state is checked against the true state and must
regenerate the keystream; a wrong state makes the run fail.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds per-layer metrics from spans wrapped around
combgen's functions (see spans.py).  The traced run attacks each key
twice, once traced and once not, alternating which goes first, and
reports the median of the paired time ratios, less one, as the tracing
overhead.
`--workload all` runs every workload in its own process and prints a
table of every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

DEFAULT_SEED = 971
DEFAULT_SECONDS = 30
SETUP_BATCHES = 5
# After each key the reference task runs for REF_SHARE of the key's time
# (at least once), after each set-up batch for REF_SETUP_S, and for
# REF_WARMUP_S before set-up.
REF_SHARE = 0.1
REF_SETUP_S = 0.3
REF_WARMUP_S = 0.5
WORKLOAD_NAMES = ("toy-warm", "cli-cold", "mid-split")


def import_program():
    """Import combgen from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "combgen", "__init__.py")):
        sys.exit(f"error: no combgen sources under {SRC}")
    sys.path.insert(0, SRC)
    import combgen

    if not os.path.abspath(combgen.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported combgen from {combgen.__file__}, "
                 f"not from {SRC}")


def machine_info():
    import ctypes

    import numpy as np

    libc = ctypes.CDLL(None)
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {f"l{i}_bytes": int(libc.sysconf(n))
              for i, n in ((1, 188), (2, 191), (3, 194))}
    return {
        "nproc": NPROC,
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        **caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _timed(call):
    """(seconds, state, outcome); outcome None means judge the state."""
    from workloads import WrongOutput

    t0 = time.perf_counter()
    try:
        state = call()
    except WrongOutput as exc:
        seconds = time.perf_counter() - t0
        print(f"wrong output: {exc}", file=sys.stderr)
        return seconds, None, "wrong"
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, None, "failed"
    return time.perf_counter() - t0, state, None


def attack_key(workload, key, tracer=None, label=None):
    """Attack one key; returns (seconds, outcome) with outcome one of
    "ok", "failed" (no state: exhausted, non-zero exit, exception) and
    "wrong" (a state other than the true one, or unusable output)."""
    from spans import HOOKS, installed
    from workloads import recovered_correctly

    call = workload.prepare(key)
    if tracer is None:
        seconds, state, outcome = _timed(call)
    else:
        tracer.key = label
        with installed(tracer, HOOKS):
            seconds, state, outcome = _timed(call)
    if outcome is not None:
        return seconds, outcome
    if state is None:
        return seconds, "failed"
    if not recovered_correctly(key, state):
        print(f"wrong state 0x{state:x}, true 0x{key.state:x}",
              file=sys.stderr)
        return seconds, "wrong"
    return seconds, "ok"


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import spans
    from reference import REF_NOMINAL_S, Reference
    from workloads import PREDICTED_DOMINANT, WORKLOADS

    workload = WORKLOADS[name]()
    reference = Reference()
    reference.run(REF_WARMUP_S)
    rng = np.random.default_rng(seed)
    tracer = spans.Tracer() if trace else None
    if trace:
        spans.check_hooks()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times, setup_refs, keys = [], [], []
        for batch in range(SETUP_BATCHES):
            t0 = time.perf_counter()
            if tracer is None:
                keys += workload.setup_batch(rng, workdir, batch)
            else:
                tracer.key = "setup"
                with spans.installed(tracer, spans.HOOKS):
                    keys += workload.setup_batch(rng, workdir, batch)
            setup_times.append(time.perf_counter() - t0)
            if tracer is None:
                setup_refs.append(reference.run(REF_SETUP_S))

        plain, traced, key_refs = [], [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            key = keys[i % len(keys)]
            if tracer is None:
                plain.append(attack_key(workload, key))
                key_refs.append(reference.run(REF_SHARE * plain[-1][0]))
            else:
                # pair each traced attack with an untraced one on the same
                # key, alternating which runs first
                for use_trace in ((False, True) if i % 2 == 0
                                  else (True, False)):
                    if use_trace:
                        traced.append(attack_key(workload, key, tracer, i))
                    else:
                        plain.append(attack_key(workload, key))
            i += 1
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass    # another run is still using it

    records = plain + traced
    attempted = len(records)
    failed = sum(outcome == "failed" for _, outcome in records)
    wrong = sum(outcome == "wrong" for _, outcome in records)
    key_s = [s for s, _ in plain]
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "keys": i, "distinct_keys": len(keys),
        "setup_batches_s": setup_times,
        "key_s_quartiles": quartiles(key_s),
        "machine": machine_info(),
    }
    if not trace:
        scaled_s = [s * REF_NOMINAL_S / r for s, r in zip(key_s, key_refs)]
        scaled_setup_s = [s * REF_NOMINAL_S / r
                          for s, r in zip(setup_times, setup_refs)]
        info["unscaled"] = {
            "keys_per_s": len(key_s) / sum(key_s),
            "key_s_p50": statistics.median(key_s),
            "setup_s": statistics.median(setup_times),
        }
        info["reference_s"] = {
            "nominal": REF_NOMINAL_S,
            "quartiles": quartiles(key_refs + setup_refs),
        }
        metrics = {
            "keys_per_s": {"value": len(scaled_s) / sum(scaled_s),
                           "unit": "1/s"},
            "key_s_p50": {"value": statistics.median(scaled_s), "unit": "s"},
            "recovered_frac": {
                "value": sum(o == "ok" for _, o in plain) / len(plain),
                "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled_setup_s),
                        "unit": "s"},
        }
        info["samples"] = {"keys_per_s": len(key_s), "key_s_p50": len(key_s),
                           "recovered_frac": len(plain), "peak_rss_mb": 1,
                           "setup_s": len(setup_times)}
    else:
        traced_keys = list(range(i))
        metrics = spans.layer_metrics(tracer, traced_keys, SETUP_BATCHES,
                                      workload.supplied_multiples)
        traced_p50 = statistics.median(s for s, _ in traced)
        plain_p50 = statistics.median(key_s)
        dominant = spans.dominant_layers(metrics)
        match = dominant[0] in PREDICTED_DOMINANT[name]
        metrics.update({
            "trace.key_s_p50": {"value": traced_p50, "unit": "s"},
            "trace.untraced_key_s_p50": {"value": plain_p50, "unit": "s"},
            # each iteration appended one traced and one untraced time
            # for the same key, so the ratios are paired
            "trace.overhead": {
                "value": statistics.median(
                    t / p for (t, _), (p, _) in zip(traced, plain)) - 1,
                "unit": "ratio"},
            "trace.keys": {"value": len(traced), "unit": "count"},
            "trace.dominant_match": {"value": int(match), "unit": "count"},
        })
        info["dominant_layers"] = dominant
        info["predicted_dominant"] = sorted(PREDICTED_DOMINANT[name])
        worst = max(metrics[f"attack.{s}.other_share"]["value"]
                    for s in spans.STAGE_NAMES)
        info["max_stage_other_share"] = worst
        print(f"{name}: dominant layer {dominant[0]} "
              f"({'matches' if match else 'DOES NOT MATCH'} predicted "
              f"{info['predicted_dominant']}); largest untraced share of a "
              f"stage {worst:.3f}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


def run_all(args):
    """Each workload in its own process, so ru_maxrss is its own."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            if len(lines) < 2:
                continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        results[name] = {"info": info, "result": result}
        samples = info.get("samples", {})
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            n = samples.get(metric)
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']:<10}"
                  + (f" n={n}" if n is not None else ""))
        if info.get("dominant_layers"):
            print(f"  dominant layers: {', '.join(info['dominant_layers'])}"
                  f"; predicted {', '.join(info['predicted_dominant'])}")
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
