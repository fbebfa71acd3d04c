"""Per-layer spans recorded from outside combgen.

The spans wrap combgen's functions by name for the length of a traced
call and put the originals back afterwards; the package itself is not
changed.  Because combgen imports functions by name into other modules
(`attack` imports `fwht`, `residue_powers`, `keystream`, `sequence_bits`,
`find_weight4` and `verify_multiple`), each wrapper replaces the name in
the defining module and in every listed caller.  A name that is missing,
or that a caller binds to a different object, stops the run: a refactor
must not silently turn a layer's numbers into zeros.

Generators are timed per yielded item, so a span never stays open while
the consumer works on the item.  Self time is a span's duration minus the
durations of its direct children; in split mode the accumulate, column
and FWHT spans run inside the rank span (the rank step pulls the prefix
passes through a generator), and self time accounts for that nesting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "key", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, key, start, parent):
        self.name = name
        self.key = key
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.counts = {}

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s


class Tracer:
    """Spans kept in memory; `key` labels the spans of one attacked key."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.key = None
        # (key, perf_counter when the StageReport was built, report)
        self.stage_ends = []
        # key -> AttackResult (also taken from AttackExhaustedError)
        self.results = {}

    def open(self, name):
        span = Span(name, self.key, time.perf_counter(),
                    self.stack[-1] if self.stack else None)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.seconds
        self.spans.append(span)


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    kind "call" times each call; `post(span, before, args, result)` adds
    counts, with `before = pre(args)` taken just before the call.  kind
    "gen" times each `next()` of the returned generator and calls
    `item(span, value)` per yielded value.  kind "mark" records when the
    named constructor ran (used for StageReport) and opens no span.
    `call(tracer, span, orig, args, kwargs)` replaces the plain call.
    """

    module: str
    attr: str
    span: str
    callers: tuple = ()
    kind: str = "call"
    pre: object = None
    post: object = None
    item: object = None
    call: object = None


def _make_call_wrapper(tracer, hook, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        before = hook.pre(args) if hook.pre else None
        span = tracer.open(hook.span)
        try:
            if hook.call:
                result = hook.call(tracer, span, orig, args, kwargs)
            else:
                result = orig(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook.post:
            hook.post(span, before, args, result)
        return result
    return wrapper


def _make_gen_wrapper(tracer, hook, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        inner = orig(*args, **kwargs)
        first = True
        while True:
            span = tracer.open(hook.span)
            if first:
                span.counts["passes"] = 1
                first = False
            try:
                value = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            if hook.item:
                hook.item(span, value)
            yield value
            # drop the reference so the producer can free the item (a
            # prefix pass's count arrays) before it builds the next one
            del value
    return wrapper


def _make_mark_wrapper(tracer, hook, orig):
    def wrapper(*args, **kwargs):
        made = orig(*args, **kwargs)
        tracer.stage_ends.append((tracer.key, time.perf_counter(), made))
        return made
    return wrapper


_MAKERS = {"call": _make_call_wrapper, "gen": _make_gen_wrapper,
           "mark": _make_mark_wrapper}


@contextmanager
def installed(tracer, hooks):
    """Wrap every hooked name; restore the originals on exit."""
    saved = []
    try:
        for hook in hooks:
            owner = importlib.import_module(hook.module)
            orig = getattr(owner, hook.attr, None)
            if orig is None:
                raise RuntimeError(
                    f"{hook.module}.{hook.attr} is missing; the trace would "
                    f"report nothing for {hook.span}")
            if (hook.kind == "gen") != inspect.isgeneratorfunction(orig):
                raise RuntimeError(
                    f"{hook.module}.{hook.attr} changed between a generator "
                    f"and a plain function; update its hook")
            users = [owner] + [importlib.import_module(m)
                               for m in hook.callers]
            for user in users[1:]:
                if getattr(user, hook.attr, None) is not orig:
                    raise RuntimeError(
                        f"{user.__name__}.{hook.attr} is not "
                        f"{hook.module}.{hook.attr}; update the hook's callers")
            wrapper = _MAKERS[hook.kind](tracer, hook, orig)
            for user in users:
                saved.append((user, hook.attr, orig))
                setattr(user, hook.attr, wrapper)
        yield tracer
    finally:
        for user, attr, orig in reversed(saved):
            setattr(user, attr, orig)


# --------------------------------------------------------------------------
# combgen's layers


def _add(span, **counts):
    for k, v in counts.items():
        span.counts[k] = span.counts.get(k, 0) + v


def _residue_size(poly):
    from combgen import gf2

    cached = gf2._residue_cache.get(poly)
    return 0 if cached is None else cached.size


def _residue_post(span, before, args, result):
    grown = _residue_size(args[0]) - before
    _add(span, calls=1, entries_grown=grown, hits=int(grown == 0))


def _rank_call(tracer, span, orig, args, kwargs):
    def counted(blocks):
        for block in blocks:
            _add(span, candidates=int(block[1].size))
            yield block
            del block

    return orig(counted(args[0]), *args[1:], **kwargs)


def _run_attack_call(tracer, span, orig, args, kwargs):
    from combgen.errors import AttackExhaustedError

    try:
        result = orig(*args, **kwargs)
    except AttackExhaustedError as exc:
        tracer.results[tracer.key] = exc.result
        raise
    tracer.results[tracer.key] = result
    return result


def _fwht_post(span, before, args, result):
    table = args[0]
    entries = len(table)
    levels = entries.bit_length() - 1
    nbytes = getattr(table, "nbytes", 0)
    # every butterfly level reads and writes the whole table once
    _add(span, entries=entries, butterflies=levels * entries,
         bytes_computed=2 * levels * nbytes)


def _final_post(span, before, args, result):
    spec, _, known = args[:3]
    open_reg = [r for r in range(len(spec.lfsrs)) if r not in known][0]
    _add(span, states=1 << spec.lfsrs[open_reg].length, survivors=len(result))


def _accumulate_post(span, before, args, result):
    tables, _, classes, n1 = args[:4]
    _add(span, updates=int(classes.size) * ((1 << n1) - 1))
    span.counts["table_bytes"] = max(span.counts.get("table_bytes", 0),
                                     tables[0].nbytes + tables[1].nbytes)


HOOKS = (
    Hook("combgen.gf2", "residue_powers", "gf2.residue_powers",
         callers=("combgen.attack",), pre=lambda a: _residue_size(a[0]),
         post=_residue_post),
    Hook("combgen.gf2", "sequence_bits", "gf2.sequence_bits",
         callers=("combgen.attack",)),
    Hook("combgen.gf2", "keystream", "gf2.keystream",
         callers=("combgen.attack", "combgen.cli"),
         post=lambda s, b, a, r: _add(s, bits=int(a[2]))),
    Hook("combgen.multiples", "find_weight4", "multiples.find_weight4",
         callers=("combgen.attack",),
         post=lambda s, b, a, r: _add(s, bound=int(a[1]), found=r.count)),
    Hook("combgen.multiples", "verify_multiple", "multiples.verify_multiple",
         callers=("combgen.attack",)),
    Hook("combgen.fileio", "load_keystream", "fileio.load_keystream",
         pre=lambda a: os.path.getsize(a[0]),
         post=lambda s, b, a, r: _add(s, bytes_read=b)),
    Hook("combgen.fileio", "load_generator_spec", "fileio.load_generator_spec",
         pre=lambda a: os.path.getsize(a[0]),
         post=lambda s, b, a, r: _add(s, bytes_read=b)),
    Hook("combgen.cli", "cmd_attack", "cli.cmd_attack"),
    Hook("combgen.attack", "run_attack", "attack.run_attack",
         call=_run_attack_call),
    Hook("combgen.attack", "StageReport", "attack.stage", kind="mark"),
    Hook("combgen.attack", "harvest_equations", "attack.harvest_equations",
         post=lambda s, b, a, r: _add(s, relations=r.total)),
    Hook("combgen.attack", "filter_known", "attack.filter_known",
         post=lambda s, b, a, r: _add(s, relations_in=a[1].total,
                                      relations_out=r.total)),
    Hook("combgen.attack", "iter_column_chunks", "attack.iter_column_chunks",
         kind="gen", item=lambda s, v: _add(s, relations=int(v[1].size))),
    Hook("combgen.attack", "_accumulate_chunk", "attack.accumulate",
         post=_accumulate_post),
    Hook("combgen.attack", "_tradeoff_blocks", "attack.tradeoff_pass",
         kind="gen"),
    Hook("combgen.attack", "candidate_counts", "attack.candidate_counts"),
    Hook("combgen.attack", "_rank_blocks", "attack.rank", call=_rank_call),
    Hook("combgen.attack", "final_direct_search", "attack.final_direct_search",
         post=_final_post),
    Hook("combgen.boolfn", "fwht", "boolfn.fwht", callers=("combgen.attack",),
         post=_fwht_post),
)


def check_hooks():
    """Fail now, not mid-run, if a wrapped name has gone."""
    with installed(Tracer(), HOOKS):
        pass
    from combgen import gf2

    if not isinstance(getattr(gf2, "_residue_cache", None), dict):
        raise RuntimeError("combgen.gf2._residue_cache is gone; "
                           "gf2.residue_powers growth cannot be counted")


# --------------------------------------------------------------------------
# per-layer metrics

STAGE_NAMES = ("stage1", "stage2", "final")

# Spans whose self seconds per key are reported as "<span>.self_s".
SELF_TIMES = (
    "gf2.residue_powers", "gf2.sequence_bits", "gf2.keystream",
    "multiples.find_weight4", "multiples.verify_multiple",
    "fileio.load_keystream", "fileio.load_generator_spec", "cli.cmd_attack",
    "attack.run_attack", "attack.harvest_equations", "attack.filter_known",
    "attack.iter_column_chunks", "attack.accumulate", "attack.tradeoff_pass",
    "boolfn.fwht", "attack.candidate_counts", "attack.rank",
    "attack.final_direct_search",
)

# Counts per key, reported as "<span>.<count>": (span, count).
COUNTS = (
    ("gf2.residue_powers", "calls"),
    ("gf2.residue_powers", "entries_grown"),
    ("gf2.keystream", "bits"),
    ("multiples.find_weight4", "bound"),
    ("multiples.find_weight4", "found"),
    ("attack.harvest_equations", "relations"),
    ("attack.iter_column_chunks", "relations"),
    ("attack.iter_column_chunks", "passes"),
    ("attack.accumulate", "updates"),
    ("boolfn.fwht", "entries"),
    ("boolfn.fwht", "butterflies"),
    ("attack.rank", "candidates"),
    ("attack.final_direct_search", "states"),
    ("attack.final_direct_search", "survivors"),
)

# Layers whose set-up share explains setup_s (self seconds per batch).
SETUP_SELF_TIMES = ("gf2.residue_powers", "gf2.keystream",
                    "multiples.find_weight4")


def _ratio(num, den):
    return num / den if den else 0.0


def _sums(spans):
    self_s, counts = {}, {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        bucket = counts.setdefault(s.name, {})
        for k, v in s.counts.items():
            if k == "table_bytes":
                bucket[k] = max(bucket.get(k, 0), v)
            else:
                bucket[k] = bucket.get(k, 0) + v
    return self_s, counts


def _stage_coverage(tracer, keys):
    """Per stage index: (StageReport seconds, seconds no span covered).

    A stage's window ends when its StageReport is built and is
    `seconds` long; the spans directly under run_attack that end inside
    it are the measured part.  (Stages run one after another, so a span
    ending inside the window began in it; testing the start instead
    would lose the first span to clock jitter of a microsecond.)
    """
    children = {}
    for s in tracer.spans:
        if s.parent is not None and s.parent.name == "attack.run_attack":
            children.setdefault(s.key, []).append(s)
    out = {}
    for key, end, rep in tracer.stage_ends:
        if key not in keys:
            continue
        lo = end - rep.seconds
        covered = sum(c.seconds for c in children.get(key, ())
                      if lo < c.end <= end)
        total, other = out.get(rep.stage, (0.0, 0.0))
        out[rep.stage] = (total + rep.seconds,
                          other + max(rep.seconds - covered, 0.0))
    return out


def layer_metrics(tracer, keys, batches, supplied_multiples):
    """Per-layer metrics for the traced keys and the set-up batches.

    `supplied_multiples` is how many multiples the workload hands to
    each key from its set-up; multiples found during a key add to it.
    """
    keys = set(keys)
    nkeys = len(keys)
    loop = [s for s in tracer.spans if s.key in keys]
    self_s, counts = _sums(loop)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span in SELF_TIMES:
        put(f"{span}.self_s", self_s.get(span, 0.0) / nkeys, "s/key")
    for span, k in COUNTS:
        put(f"{span}.{k}", counts.get(span, {}).get(k, 0) / nkeys, "count/key")

    res = counts.get("gf2.residue_powers", {})
    put("gf2.residue_powers.hit_ratio",
        _ratio(res.get("hits", 0), res.get("calls", 0)), "ratio")
    filt = counts.get("attack.filter_known", {})
    put("attack.filter_known.kept_ratio",
        _ratio(filt.get("relations_out", 0), filt.get("relations_in", 0)),
        "ratio")
    put("attack.table_bytes",
        float(counts.get("attack.accumulate", {}).get("table_bytes", 0)),
        "bytes")
    put("boolfn.fwht.bytes_computed",
        counts.get("boolfn.fwht", {}).get("bytes_computed", 0) / nkeys,
        "bytes/key")
    put("fileio.bytes_read",
        sum(counts.get(n, {}).get("bytes_read", 0)
            for n in ("fileio.load_keystream", "fileio.load_generator_spec"))
        / nkeys, "bytes/key")

    results = [r for k, r in tracer.results.items() if k in keys and r]
    used = sum(len(rep.multiples) for r in results for rep in r.reports)
    offered = (counts.get("multiples.find_weight4", {}).get("found", 0)
               + supplied_multiples * nkeys)
    put("multiples.used_ratio", _ratio(used, offered), "ratio")
    put("attack.backtracks",
        sum(r.backtracks for r in results) / nkeys, "count/key")

    stage_s = {}
    for r in results:
        for rep in r.reports:
            stage_s[rep.stage] = stage_s.get(rep.stage, 0.0) + rep.seconds
    if set(stage_s) - set(range(len(STAGE_NAMES))):
        raise RuntimeError(f"unexpected stage indexes {sorted(stage_s)}")
    coverage = _stage_coverage(tracer, keys)
    for i, stage in enumerate(STAGE_NAMES):
        put(f"attack.{stage}.s", stage_s.get(i, 0.0) / nkeys, "s/key")
        total, other = coverage.get(i, (0.0, 0.0))
        put(f"attack.{stage}.other_share", _ratio(other, total), "ratio")
    put("attack.other.self_s",
        sum(other for _, other in coverage.values()) / nkeys, "s/key")

    setup = [s for s in tracer.spans if s.key == "setup"]
    setup_self, _ = _sums(setup)
    for span in SETUP_SELF_TIMES:
        put(f"setup.{span}.self_s", setup_self.get(span, 0.0) / batches,
            "s/batch")
    return out


def dominant_layers(metrics, top=4):
    """Layers by self time per key, largest first."""
    times = [(m["value"], name[:-len(".self_s")])
             for name, m in metrics.items()
             if name.endswith(".self_s") and not name.startswith(("setup.",
                                                                  "attack.other"))]
    times.sort(reverse=True)
    return [name for _, name in times[:top]]
