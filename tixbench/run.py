#!/usr/bin/env python3
"""tixd end-to-end benchmark (README.md).

    python3 tixbench/run.py --workload topk_corpus --seed 1 --seconds 30 --trace 0

Builds tixd and the probe from source, prepares the seeded corpus,
spawns real tixd processes over a fresh copy of it, drives one workload,
verifies the answers and prints every metric by name with its unit. The
last line of stdout is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Exits 1 on a wrong answer
(after printing it) and on any set-up failure (without a result).
"""

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import fleet
import gen
import proto
import stats

WORKLOADS = {
    # name: closed-loop connections, sharded fleet, query generator kind,
    # the fixed percentile tail_ms reports (the highest one every run of
    # the workload at 30 s supports with >= 10 samples beyond it). Two
    # connections, not nproc: the driver and tixd's own threads share the
    # same CPUs, and with four connections the runs measured the scheduler.
    "topk_corpus": {"connections": 2, "sharded": False, "kind": "topk", "tail_p": 99.0},
    "pick_scoped": {"connections": 2, "sharded": False, "kind": "pick", "tail_p": 95.0},
    "ingest_live": {"connections": 3, "sharded": False, "kind": "live", "tail_p": 99.0},
    "topk_sharded": {"connections": 2, "sharded": True, "kind": "topk", "tail_p": 99.0},
}
INGEST_TAIL_P = 95.0    # ingest_live's ~750 ingests per 25 s support p95
SETUP_REPS = 9          # set-ups per run; setup_s is their median
WARMUP_SECONDS = 3.0
WINDOWS = 5             # slices of the measured phase for qps and p50_ms
INGEST_RATE = 30.0      # ingest-stream ops per second (open loop)
LIVE_POOL = 400         # distinct queries ingest_live repeats
VERIFY_SAMPLE = 32      # responses checked against the reference
SAMPLE_CAP = 200        # responses kept to draw that sample from
TRACE_EVERY = 4         # traced half: one op in four is also EXPLAINed
PROBE_QUERIES = 16      # queries the in-process layer timings replay
CONTENTION_QUERIES = 12  # traced queries re-run alone for exec.contention_x

END_TO_END_UNITS = {"qps": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s",
                    "rss_mb": "MiB", "disk_bytes_per_input_byte": "B/B"}
PER_LAYER_UNITS = {
    "server.overhead_ms": "ms", "server.response_kb": "KiB",
    "server.result_cache_hit_rate": "ratio", "server.result_cache_gen_evictions": "count",
    "server.queries_rejected": "count",
    "query.parse_us": "us", "query.engine_ms": "ms", "query.render_ms": "ms",
    "exec.structural_match_ms": "ms", "exec.term_join_ms": "ms", "exec.scope_ms": "ms",
    "exec.pick_ms": "ms", "exec.threshold_ms": "ms", "exec.occurrences_per_query": "count",
    "exec.topk_prune_ratio": "ratio", "exec.term_join_us_per_occurrence": "us",
    "exec.contention_x": "x",
    "index.lookups_per_query": "count", "index.blocks_scanned_per_query": "count",
    "index.blocks_decoded_per_query": "count", "index.block_cache_hit_rate": "ratio",
    "index.scan_ms_per_mposting": "ms", "index.open_ms": "ms", "index.segments": "count",
    "index.compactions": "count",
    "storage.record_fetches_per_query": "count", "storage.text_kb_per_query": "KiB",
    "storage.fetch_ns_1t": "ns", "storage.fetch_contention_x": "x", "storage.open_ms": "ms",
    "storage.write_amp": "ratio",
    "coordinator.overhead_ms": "ms", "coordinator.leg_skew_x": "x",
    "coordinator.floor_exchanges_per_query": "count",
    "coordinator.occurrences_per_query": "count",
    "ingest.p50_ms": "ms", "ingest.tail_ms": "ms",
    "driver.ingest_late_ms_max": "ms", "driver.error_rate": "ratio",
    "trace.coverage": "ratio", "trace.overhead_x": "x",
}


# ---- answers --------------------------------------------------------------

def reference_answers(probe, db_dir, texts):
    """Verify-mode in-process answers: {text: ("OK", payload) | ("ERR", code)}."""
    texts = list(dict.fromkeys(texts))
    done = subprocess.run([probe, "answer", f"--db={db_dir}"],
                          input="\n".join(texts).encode() + b"\n",
                          capture_output=True, timeout=120)
    if done.returncode != 0:
        raise fleet.BenchError("probe answer failed: " + done.stderr.decode()[-500:])
    out, pos, answers = done.stdout, 0, {}
    for text in texts:
        newline = out.index(b"\n", pos)
        head = out[pos:newline].split()
        size = int(head[-1])
        payload = out[newline + 1:newline + 1 + size]
        pos = newline + 2 + size
        answers[text] = ("OK", payload) if head[0] == b"OK" else ("ERR", int(head[1]))
    return answers


_HEADER = re.compile(rb"^(\d+ results) \(anchors (\d+), scored (\d+)\)\n")


def comparable(payload, mask):
    """`payload` with the header statistics `mask` names blanked.

    "scored": a coordinator sums its shards' pruning survivors, the one
    statistic docs/SHARDING.md exempts from byte identity. "anchors":
    ingest_live adds documents that match //* but no query term, so only
    corpus-wide anchor counts move.
    """
    match = _HEADER.match(payload)
    if not match or not mask:
        return payload
    anchors = b"*" if "anchors" in mask else match.group(2)
    scored = b"*" if "scored" in mask else match.group(3)
    return (match.group(1) + b" (anchors " + anchors + b", scored " + scored + b")\n"
            + payload[match.end():])


def answer_mask(workload, text):
    if workload == "topk_sharded":
        return ("scored",)
    if workload == "ingest_live" and 'document("*")' in text:
        return ("anchors",)
    return ()


def matches(workload, text, got, expected):
    """Whether a tixd outcome (payload bytes or an error code) is right."""
    if expected[0] == "ERR":
        return isinstance(got, int) and got == expected[1]
    if isinstance(got, int):
        return False
    mask = answer_mask(workload, text)
    return comparable(got, mask) == comparable(expected[1], mask)


# ---- drivers ----------------------------------------------------------------

def connect(port):
    return proto.Client(port, timeout=120)


class Recorder:
    """What one measured phase collects, shared by its threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.halves = [stats.Outcomes(), stats.Outcomes()]
        self.responses = {}      # text -> payload or error code (sampled)
        self.sizes = []
        self.events = []         # (completion time, latency ms | None if failed)
        self.explains = []       # (rtt_ms, tree)
        self.loaded = []         # (text, root ms) EXPLAINed on the first target
        self.pairs = []          # (coordinator_ms, [leg_ms...])

    def all_outcomes(self):
        merged = stats.Outcomes()
        for half in self.halves:
            merged.merge(half)
        return merged


def closed_loop(port, shard_ports, sequence, half_at, stop_at, rec, sample, traced):
    """Runs `sequence` until stop_at, one request at a time."""
    client = connect(port)
    legs = [connect(p) for p in shard_ports] if traced else []
    try:
        for i, text in enumerate(sequence):
            now = time.monotonic()
            if now >= stop_at:
                break
            half = 0 if now < half_at else 1
            outcomes = rec.halves[half]
            trace_this = traced and half == 1 and i % TRACE_EVERY == TRACE_EVERY - 1
            # Alternate the order so neither side always runs cache-warm.
            explain_first = trace_this and (i // TRACE_EVERY) % 2 == 0
            explained = _explain(client, legs, text) if explain_first else None
            t0 = time.monotonic()
            try:
                payload = client.query(text)
            except proto.ServerError as error:
                with rec.lock:
                    (outcomes.refuse if error.code == proto.RESOURCE_EXHAUSTED
                     else outcomes.fail)()
                    rec.events.append((time.monotonic(), None))
                    if i in sample and len(rec.responses) < SAMPLE_CAP:
                        rec.responses.setdefault(text, error.code)
                continue
            except OSError:
                with rec.lock:
                    outcomes.fail()
                    rec.events.append((time.monotonic(), None))
                client.close()
                client = connect(port)
                continue
            done = time.monotonic()
            ms = (done - t0) * 1e3
            if trace_this and not explain_first:
                explained = _explain(client, legs, text)
            with rec.lock:
                outcomes.ok(ms)
                rec.events.append((done, ms))
                rec.sizes.append(len(payload))
                if i in sample and len(rec.responses) < SAMPLE_CAP:
                    rec.responses.setdefault(text, payload)
                if explained:
                    rec.explains += [(leg_ms, tree) for leg_ms, tree in explained
                                     if tree is not None]
                    if explained[0][1] is not None:
                        rec.loaded.append((text, explained[0][1]["ms"]))
                    if legs:
                        rec.pairs.append((ms, [leg_ms for leg_ms, _ in explained]))
    finally:
        client.close()
        for leg in legs:
            leg.close()


def _explain(client, legs, text):
    """[(rtt_ms, tree)] of EXPLAINing `text` on the server itself, or on
    each shard directly (a coordinator has no EXPLAIN); None on error."""
    out = []
    for target in legs or [client]:
        t0 = time.monotonic()
        try:
            payload = target.explain(text)
        except (proto.ServerError, OSError):
            return None
        out.append(((time.monotonic() - t0) * 1e3,
                    stats.parse_explain(payload.decode("utf-8", "replace"))))
    return out


def ingest_stream(port, seed, start, stop_at, rec, live):
    """Open loop: op j is due at start + j / INGEST_RATE and is timed from
    then, so a stall also delays (and bills) every op queued behind it."""
    client = connect(port)
    plan = gen.ingest_plan(seed, int((stop_at - start) * INGEST_RATE) + 1)
    try:
        for j, (op, i) in enumerate(plan):
            due = start + j / INGEST_RATE
            if due >= stop_at:
                break
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            live["late_ms"] = max(live["late_ms"], (time.monotonic() - due) * 1e3)
            name, xml, _ = gen.live_document(seed, i)
            try:
                if op == "ingest":
                    client.ingest(name, xml)
                    live["acked"][i] = len(xml)
                else:
                    client.delete(name)
                    live["deleted"].add(i)
            except proto.ServerError as error:
                with rec.lock:
                    (live["outcomes"].refuse if error.code == proto.RESOURCE_EXHAUSTED
                     else live["outcomes"].fail)()
                continue
            except OSError:
                with rec.lock:
                    live["outcomes"].fail()
                client.close()
                client = connect(port)
                continue
            if op == "ingest":
                with rec.lock:
                    live["outcomes"].ok((time.monotonic() - due) * 1e3)
    finally:
        client.close()


def run_phase(port, shard_ports, sequences, seconds, rec, samples, traced,
              ingest=None, at_half=None):
    """Drives every connection (and the ingest stream) for `seconds`. A
    traced phase EXPLAINs only in its second half and calls `at_half`
    at the switch."""
    start = rec.start = time.monotonic()
    stop_at = start + seconds
    half_at = start + seconds / 2 if traced else stop_at
    threads = [threading.Thread(target=closed_loop,
                                args=(port, shard_ports, seq, half_at, stop_at, rec,
                                      samples[c], traced))
               for c, seq in enumerate(sequences)]
    if ingest is not None:
        threads.append(threading.Thread(target=ingest_stream,
                                        args=(port, ingest["seed"], start, stop_at, rec,
                                              ingest)))
    for thread in threads:
        thread.start()
    if at_half is not None:
        time.sleep(max(0.0, half_at - time.monotonic()))
        at_half()
    for thread in threads:
        thread.join()
    return time.monotonic() - start


# ---- one run ----------------------------------------------------------------

def sample_positions(seed, connection, length):
    """Seeded positions of a sequence whose responses are kept; the
    verified sample is drawn from them after the run."""
    rng = random.Random(f"sample-{seed}-{connection}")
    return {i for i in range(length) if i < 4 or rng.random() < 0.1}


def verify_sample(seed, responses):
    """VERIFY_SAMPLE of the kept responses, chosen by the seed."""
    texts = sorted(responses)
    chosen = random.Random(f"verify-{seed}").sample(texts, min(VERIFY_SAMPLE, len(texts)))
    return {text: responses[text] for text in chosen}


def make_sequences(kind, sharded, seed, connections, length, terms, hot):
    """(warm-up sequences, measured sequences); no text is in both."""
    taken = {gen.SETUP_QUERY}
    if kind == "topk":
        # Only occurrence scorers shard exactly (docs/SHARDING.md): tfidf
        # behind a coordinator sees shard-local idf by design.
        scorers = ("foo",) if sharded else ("foo", "tfidf")
        make = lambda rng: gen.topk_maker(rng, terms, scorers)  # noqa: E731
    elif kind == "pick":
        make = lambda rng: gen.pick_maker(rng, terms, hot)  # noqa: E731
    else:
        make = lambda rng: gen.live_maker(rng, terms, hot)  # noqa: E731
    warm = gen.distinct_sequences(make, seed, "warm", connections, 200, taken)
    if kind != "live":
        return warm, gen.distinct_sequences(make, seed, "measure", connections, length,
                                            taken)
    pool = gen.distinct_sequences(make, seed, "pool", 1, LIVE_POOL, taken)[0]
    measured = [gen.zipf_sequence(random.Random(f"zipf-{seed}-{c}"), pool, length)
                for c in range(connections)]
    return warm, measured


def stats_of(port):
    with connect(port) as client:
        return json.loads(client.stats())


def delta(after, before, section, key):
    return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)


def fingerprint(args, corpus, kernel, flags):
    cpu, isa = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not isa:
                    have = set(line.split(":", 1)[1].split())
                    isa = [x for x in ("sse4_2", "avx", "avx2", "bmi2", "avx512f",
                                       "avx512bw", "avx512vbmi", "neon") if x in have]
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "isa": isa,
        "machine": platform.machine(), "decode_kernel": kernel,
        "build_type": fleet.build_type(), "git": git_sha(),
        "sources": fleet.source_digest(),
        "corpus": {k: corpus[k] for k in ("articles", "seed", "shards", "documents",
                                          "xml_bytes")},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tixd_flags": flags,
    }


def git_sha():
    """HEAD's sha when the checkout is a git repository, else None (the
    fingerprint's source digest still identifies the build)."""
    try:
        sha = subprocess.run(["git", "-C", fleet.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, timeout=10)
    except OSError:
        return None
    return sha.stdout.decode().strip() if sha.returncode == 0 else None


def run(args):
    spec = WORKLOADS[args.workload]
    tixd, probe = fleet.build()
    corpus = fleet.prepare_corpus(probe)
    terms = gen.Terms.load(os.path.join(fleet.corpus_dir(), "terms.tsv"))
    hot = gen.hot_set(args.seed)
    connections = spec["connections"]
    length = int(args.seconds * 400) + 100
    warm, measured = make_sequences(spec["kind"], spec["sharded"], args.seed,
                                    connections, length, terms, hot)
    samples = [sample_positions(args.seed, c, length) for c in range(connections)]
    reference_dir = fleet.single_dir()
    setup_expected = reference_answers(probe, reference_dir, [gen.SETUP_QUERY])
    setup_expected = setup_expected[gen.SETUP_QUERY]

    run_root = os.path.join(fleet.WORK, "runs")
    os.makedirs(run_root, exist_ok=True)
    run_dir = os.path.join(run_root, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    current = None
    try:
        # Set-up: spawn -> first correct answer, each on a fresh copy. Half
        # the set-ups run before the measured phase (the last one serves
        # it) and half after, so setup_s spans the run's whole window.
        setup_times, wrong_setups = [], 0

        def set_up(rep):
            nonlocal wrong_setups
            rep_dir = os.path.join(run_dir, f"setup{rep}")
            os.makedirs(rep_dir)
            started = fleet.Fleet(tixd, rep_dir, spec["sharded"])
            try:
                with connect(started.port) as client:
                    answer = client.query(gen.SETUP_QUERY)
            except BaseException:
                started.close()
                raise
            setup_times.append(time.monotonic() - started.start)
            if not matches(args.workload, gen.SETUP_QUERY, answer, setup_expected):
                wrong_setups += 1
            return started

        def set_up_and_discard(rep):
            started = set_up(rep)
            started.close()
            shutil.rmtree(os.path.join(run_dir, f"setup{rep}"))

        for rep in range(SETUP_REPS // 2):
            set_up_and_discard(rep)
        current = set_up(SETUP_REPS // 2)
        shard_ports = [p.port for p in current.shards] if spec["sharded"] else []

        # Warm-up: distinct texts, so the result cache carries nothing over.
        run_phase(current.port, [], warm, WARMUP_SECONDS, Recorder(),
                  [set() for _ in warm], False)

        rec = Recorder()
        live = None
        if spec["kind"] == "live":
            live = {"seed": args.seed, "acked": {}, "deleted": set(), "late_ms": 0.0,
                    "outcomes": stats.Outcomes()}
        before = [stats_of(p.port) for p in current.all_procs()]
        io_before = [fleet.read_proc(p.pid) for p in current.all_procs()]
        traced = bool(args.trace)
        mid = []
        # Per-query counts come from the untraced first half only.
        elapsed = run_phase(
            current.port, shard_ports, measured, args.seconds, rec, samples, traced,
            live, at_half=(lambda: mid.extend(stats_of(p.port)
                                              for p in current.all_procs()))
            if traced else None)
        after = [stats_of(p.port) for p in current.all_procs()]
        procs = [fleet.read_proc(p.pid) for p in current.all_procs()]
        contention = _contention(current, rec) if traced else 0.0

        compact_ms = None
        if live is not None:
            t0 = time.monotonic()
            with connect(current.port) as client:
                client.compact()
            compact_ms = (time.monotonic() - t0) * 1e3
            _verify_live(current.port, args.seed, live)

        flags = current.flags()
        kernel = after[-1].get("decode_kernel", "unknown")
        dirs = list(current.dirs)
        current.close()
        current = None
        disk = sum(fleet.dir_bytes(d) for d in dirs)
        for rep in range(SETUP_REPS // 2 + 1, SETUP_REPS):
            set_up_and_discard(rep)

        # Verify the sampled responses against the in-process reference.
        checked = verify_sample(args.seed, rec.responses)
        expected = reference_answers(probe, reference_dir, list(checked))
        outcomes = rec.all_outcomes()
        for text, got in checked.items():
            if not matches(args.workload, text, got, expected[text]):
                outcomes.mark_wrong()
                print(f"# WRONG answer for: {text}", file=sys.stderr)
        outcomes.wrong += wrong_setups
        ingest_outcomes = live["outcomes"] if live else stats.Outcomes()

        input_bytes = corpus["xml_bytes"]
        if live:
            input_bytes += sum(size for i, size in live["acked"].items()
                               if i not in live["deleted"])
        # Throughput and median latency are medians over WINDOWS slices of
        # the measured phase, so a short slow spell on the host moves
        # neither; the tail needs every sample and uses the whole phase.
        window_qps, window_p50 = stats.windowed(rec.events, rec.start, args.seconds,
                                                WINDOWS)
        e2e = {
            "qps": window_qps,
            "setup_s": stats.median(setup_times),
            "rss_mb": sum(p["vmhwm"] for p in procs) / 2**20,
            "disk_bytes_per_input_byte": disk / input_bytes,
        }
        if not outcomes.latencies_ms:
            raise fleet.BenchError("no query completed")
        summary = outcomes.summary(spec["tail_p"])
        if not summary["supported"]:
            raise fleet.BenchError(
                f"{summary['count']} queries leave fewer than {stats.MIN_BEYOND} beyond "
                f"p{summary['tail_p']:g}, the percentile tail_ms reports; run longer")
        # A percentile that lands on a failed op (no latency) reads as the
        # whole measured phase: slower than anything that completed.
        e2e["p50_ms"] = min(window_p50, elapsed * 1e3)
        e2e["tail_ms"] = min(summary["tail_ms"], elapsed * 1e3)
        total = stats.Outcomes()
        total.merge(outcomes)
        total.merge(ingest_outcomes)

        print("# fingerprint " + json.dumps(fingerprint(args, corpus, kernel, flags)))
        print(f"# {args.workload}: {connections} closed-loop connection(s)"
              + (f" + open-loop ingest at {INGEST_RATE:g} ops/s" if live else "")
              + f", {elapsed:.2f} s measured")
        print(f"qps = {e2e['qps']:.4f} 1/s (median of {WINDOWS} windows; whole phase "
              f"{len(outcomes.latencies_ms) / elapsed:.4f}, "
              f"{len(outcomes.latencies_ms)} queries)")
        print(f"p50_ms = {e2e['p50_ms']:.4f} ms (median of {WINDOWS} windows; whole "
              f"phase {summary['p50_ms']:.4f}, n={summary['count']})")
        print(f"tail_ms = {e2e['tail_ms']:.4f} ms (p{summary['tail_p']:g} of "
              f"n={summary['count']})")
        print(f"setup_s = {e2e['setup_s']:.6f} s (median of {SETUP_REPS}: "
              + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
        print(f"rss_mb = {e2e['rss_mb']:.3f} MiB (VmHWM summed over "
              f"{len(procs)} tixd)")
        print(f"disk_bytes_per_input_byte = {e2e['disk_bytes_per_input_byte']:.6f} B/B "
              f"({disk} / {input_bytes})")
        print(f"error_rate = {total.error_rate:.6f} (failed {total.failed}, refused "
              f"{total.refused}, wrong {total.wrong} of {total.attempted} attempted; "
              f"{len(checked)} responses verified)")
        if live:
            ingest_summary = ingest_outcomes.summary(INGEST_TAIL_P)
            print(f"ingest_p50_ms = {ingest_summary['p50_ms']:.4f} ms "
                  f"(n={ingest_summary['count']})")
            print(f"ingest_tail_ms = {ingest_summary['tail_ms']:.4f} ms "
                  f"(p{INGEST_TAIL_P:g} of n={ingest_summary['count']}"
                  + ("" if ingest_summary["supported"] else ", fewer than "
                     f"{stats.MIN_BEYOND} beyond it") + ")")
            print(f"compact_ms = {compact_ms:.3f} ms; ingest generator late by at most "
                  f"{live['late_ms']:.3f} ms")

        if traced:
            # The first distinct queries of all connections, interleaved.
            probe_texts = list(dict.fromkeys(
                q for row in zip(*measured) for q in row))[:PROBE_QUERIES]
            layer_db = fleet.shard_dirs()[0] if spec["sharded"] else reference_dir
            probe_out = _probe_trace(probe, layer_db, probe_texts, args.seed)
            metrics = _per_layer(rec, before, mid, after, io_before, procs,
                                 probe_out, contention, live, ingest_outcomes, total,
                                 spec)
            units = PER_LAYER_UNITS
            for name, value in metrics.items():
                print(f"{name} = {value:.6g} {units[name]}")
        else:
            metrics = e2e
            units = END_TO_END_UNITS
        result = {
            "correct": total.wrong == 0,
            "attempted": total.attempted,
            "failed": total.errors,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }
        try:
            print(json.dumps(result, allow_nan=False))
        except ValueError as error:
            raise fleet.BenchError(f"a metric is not finite: {error}") from error
        return 0 if result["correct"] else 1
    finally:
        if current is not None:
            current.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def _contention(current, rec):
    """Engine time under the workload's concurrency ÷ alone: the EXPLAIN
    root time of CONTENTION_QUERIES queries traced during the run, over
    the same queries EXPLAINed again one at a time on the idle server
    (on shard 0 directly for a fleet)."""
    target = current.shards[0] if current.coordinator else current.procs[0]
    loaded = rec.loaded[:CONTENTION_QUERIES]
    alone = []
    with connect(target.port) as client:
        for text, _ in loaded:
            tree = stats.parse_explain(client.explain(text).decode("utf-8", "replace"))
            alone.append(tree["ms"] if tree else 0.0)
    return stats.ratio(stats.median([ms for _, ms in loaded]), stats.median(alone))


def _verify_live(port, seed, live):
    """After the final COMPACT every acknowledged ingest resolves by name
    (with its own content) and every deleted document is NotFound."""
    outcomes = live["outcomes"]
    with connect(port) as client:
        for i in sorted(live["acked"]):
            name, _, marker = gen.live_document(seed, i)
            text = f'FOR $a IN document("{name}")//article RETURN $a'
            try:
                payload = client.query(text)
                ok = i not in live["deleted"] and marker.encode() in payload
            except proto.ServerError as error:
                ok = i in live["deleted"] and error.code == proto.NOT_FOUND
            if not ok:
                outcomes.mark_wrong()
                print(f"# WRONG ingest state for {name}", file=sys.stderr)


def _probe_trace(probe, db_dir, texts, seed):
    done = subprocess.run([probe, "trace", f"--db={db_dir}", f"--seed={seed}"],
                          input="\n".join(texts).encode() + b"\n",
                          capture_output=True, timeout=170)
    if done.returncode != 0:
        raise fleet.BenchError("probe trace failed: " + done.stderr.decode()[-500:])
    return json.loads(done.stdout)


def _per_layer(rec, before, mid, after, io_before, procs, probe_out, contention,
               live, ingest_outcomes, total, spec):
    """Per-layer metrics; 0 where the workload does not exercise a layer."""
    front_before, front_mid = before[0], mid[0]
    queries = delta(front_mid, front_before, "server", "queries")
    # Work counters live on the data-holding tixds (all but a coordinator).
    data = slice(1, None) if spec["sharded"] else slice(0, None)

    def work(key, section="work"):
        return sum(delta(m, b, section, key) for m, b in zip(mid[data], before[data]))

    occurrences = work("term_join_occurrences")
    pruned = work("topk_postings_pruned")
    block_hits, block_misses = work("hits", "block_cache"), work("misses", "block_cache")
    cache_hits = work("hits", "result_cache") if not spec["sharded"] else 0
    cache_misses = work("misses", "result_cache") if not spec["sharded"] else 0
    explains = rec.explains
    term_join_ms = sum(stats.operator_ms(t, "TermJoin") for _, t in explains)
    term_join_occ = sum(stats.operator_counter(t, "TermJoin", "term_join_occurrences")
                        for _, t in explains)
    halves = [h.summary(spec["tail_p"]) for h in rec.halves]
    ingest_summary = ingest_outcomes.summary(INGEST_TAIL_P)
    has_ingest = ingest_summary["count"] > 0
    ingested_bytes = sum(live["acked"].values()) if live else 0
    wchar = sum(p["wchar"] - b["wchar"] for p, b in zip(procs, io_before))
    m = {
        "server.overhead_ms": stats.median([ms - t["ms"] for ms, t in explains]),
        "server.response_kb": stats.mean(rec.sizes) / 1024,
        "server.result_cache_hit_rate": stats.ratio(cache_hits, cache_hits + cache_misses),
        "server.result_cache_gen_evictions": delta(after[0], before[0], "result_cache",
                                                   "gen_evictions"),
        "server.queries_rejected": delta(after[0], before[0], "server",
                                         "queries_rejected"),
        "query.parse_us": probe_out["query.parse_us"],
        "query.engine_ms": probe_out["query.engine_ms"],
        "query.render_ms": probe_out["query.render_ms"],
        "exec.structural_match_ms": stats.mean(stats.operator_ms(t, "StructuralMatch")
                                               for _, t in explains),
        "exec.term_join_ms": stats.mean(stats.operator_ms(t, "TermJoin")
                                        for _, t in explains),
        "exec.scope_ms": stats.mean(stats.operator_ms(t, "Scope") for _, t in explains),
        "exec.pick_ms": stats.mean(stats.operator_ms(t, "Pick") for _, t in explains),
        "exec.threshold_ms": stats.mean(stats.operator_ms(t, "Threshold")
                                        for _, t in explains),
        "exec.occurrences_per_query": stats.ratio(occurrences, queries),
        "exec.topk_prune_ratio": stats.ratio(pruned, pruned + occurrences),
        "exec.term_join_us_per_occurrence": stats.ratio(term_join_ms * 1e3, term_join_occ),
        "exec.contention_x": contention,
        "index.lookups_per_query": stats.ratio(work("index_lookups"), queries),
        "index.blocks_scanned_per_query": stats.ratio(work("index_blocks_scanned"), queries),
        "index.blocks_decoded_per_query": stats.ratio(work("index_blocks_decoded"), queries),
        "index.block_cache_hit_rate": stats.ratio(block_hits, block_hits + block_misses),
        "index.scan_ms_per_mposting": probe_out["index.scan_ms_per_mposting"],
        "index.open_ms": probe_out["index.open_ms"],
        "index.segments": sum(a.get("index", {}).get("segments", 0) for a in after[data]),
        "index.compactions": sum(delta(a, b, "index", "compactions")
                                 for a, b in zip(after[data], before[data])),
        "storage.record_fetches_per_query": stats.ratio(work("record_fetches"), queries),
        "storage.text_kb_per_query": stats.ratio(work("text_bytes_read") / 1024, queries),
        "storage.fetch_ns_1t": probe_out["storage.fetch_ns_1t"],
        "storage.fetch_contention_x": probe_out["storage.fetch_contention_x"],
        "storage.open_ms": probe_out["storage.open_ms"],
        "storage.write_amp": stats.ratio(wchar, ingested_bytes),
        "coordinator.overhead_ms": stats.median([f - max(l) for f, l in rec.pairs]),
        "coordinator.leg_skew_x": stats.median([max(l) / min(l) for _, l in rec.pairs]),
        "coordinator.floor_exchanges_per_query": stats.ratio(
            delta(front_mid, front_before, "fleet", "floor_exchanges"), queries)
        if spec["sharded"] else 0.0,
        "coordinator.occurrences_per_query": stats.ratio(occurrences, queries)
        if spec["sharded"] else 0.0,
        "ingest.p50_ms": ingest_summary["p50_ms"] if has_ingest else 0.0,
        "ingest.tail_ms": ingest_summary["tail_ms"] if has_ingest else 0.0,
        "driver.ingest_late_ms_max": live["late_ms"] if live else 0.0,
        "driver.error_rate": total.error_rate,
        "trace.coverage": stats.median([stats.coverage(t, ms) for ms, t in explains]),
        "trace.overhead_x": stats.ratio(halves[1]["p50_ms"], halves[0]["p50_ms"]),
    }
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its tixds and removes its copies.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (fleet.BenchError, OSError, subprocess.SubprocessError,
            proto.ServerError) as error:
        print(f"tixbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
