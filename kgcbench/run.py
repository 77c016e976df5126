#!/usr/bin/env python3
"""kgcbench: the repository benchmark.

    python3 kgcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 kgcbench/run.py --selftest

Builds the program and the benchmark's C++ binary from source under
.bench_build/ (cmake, RelWithDebInfo like the program's own build), runs one
workload, checks every output, prints every metric by name with its unit and
sample count, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from a traced run that also
repeats the workload untraced to measure the tracing overhead.

The workloads' settings are constants of the C++ binary (src/config.h);
its provenance subcommand prints them and this script reads them from
there. The fingerprints recorded for the default seed are in
fingerprints.json. README.md explains both.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "kgcbench")
BINARY = os.path.join(BUILD_DIR, "kgcbench")
SERVER = os.path.join(BUILD_DIR, "tools", "kgc_serve")

# Settings that would change what is measured. The benchmark measures the
# shipped defaults, so it refuses to start when any is set.
REFUSED_ENV = ("KGC_FAULTS", "KGC_KERNEL", "KGC_METRICS", "KGC_TRACE")
REFUSED_PREFIX = "KGC_SERVE_"

PR_SET_PDEATHSIG = 1  # from <sys/prctl.h>

WORKLOADS = ("paper_warm", "serve_steady", "serve_rotating")
LAYERS = ("datagen", "redundancy", "kg", "models", "rules", "core", "eval",
          "snapshot", "serve", "load")

# Program spans (obs rollups) that split a benchmark span covering more than
# one module, and the layer each belongs to.
PROGRAM_SPAN_LAYER = {
    "redundancy_detect": "redundancy",
    "redundancy_bitmap": "redundancy",
    "find_cartesian_relations": "redundancy",
    "rank_triples": "eval",
    "train_model": "models",
    "mine_rules": "rules",
}


class BenchError(Exception):
    """A step of the benchmark failed; the run prints no result."""


# ---------------------------------------------------------------------------
# Environment, build and processes.

def refused_settings(environ):
    return sorted(k for k in environ
                  if k in REFUSED_ENV or k.startswith(REFUSED_PREFIX))


def program_present():
    return all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src", "tools/kgc_serve.cc"))


def build():
    """Configures (once) and builds the kgcbench binary and kgc_serve."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "kgcbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed: " + " ".join(step))


def die_with_parent():
    """Child set-up: the child gets SIGTERM if this process dies, so no
    server or kgcbench process outlives an interrupted run."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def run_binary(args, cwd, timeout=170):
    """Runs a kgcbench subcommand; returns its last stdout line as JSON."""
    log = open(os.path.join(cwd, "kgcbench.log"), "a")
    try:
        proc = subprocess.run([BINARY] + args, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=log, timeout=timeout, text=True,
                              preexec_fn=die_with_parent)
    finally:
        log.close()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(os.path.join(cwd, "kgcbench.log")) as f:
            sys.stderr.write("".join(f.readlines()[-20:]))
        raise BenchError("kgcbench %s exited %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


class Server:
    """kgc_serve on a registry directory, started until its READY line."""

    def __init__(self, cwd, registry, socket, metrics_path=None):
        env = dict(os.environ)
        if metrics_path:
            env["KGC_METRICS"] = metrics_path
        self.out_path = os.path.join(cwd, "serve.out")
        self.out = open(self.out_path, "w")
        self.proc = subprocess.Popen(
            [SERVER, "--snapshot-dir=" + registry, "--socket=" + socket],
            cwd=cwd, stdout=self.out, stderr=subprocess.STDOUT, env=env,
            preexec_fn=die_with_parent)
        deadline = time.monotonic() + 60
        while True:
            with open(self.out_path) as f:
                if "READY" in f.read():
                    return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("kgc_serve did not become ready")
            time.sleep(0.002)

    def proc_status(self, key):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
        return 0.0

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.out.close()


# ---------------------------------------------------------------------------
# The paper workload.

def check_fingerprints(kind, seed, recorded, passes, failures):
    """Every pass must agree with the first; at the default seed every
    fingerprint must equal the recorded one. Returns {item: ok} per
    (model, dataset) pair or table."""
    expected = recorded.get(kind, {}) if seed == recorded["seed"] else {}
    ok = {}
    first = passes[0]
    first_tables = {t["name"]: t["crc"] for t in first["tables"]}
    for p in passes:
        for section in ("models", "outputs"):
            for name, crc in p[section].items():
                good = crc == first[section].get(name) and \
                    crc == expected.get(section, {}).get(name, crc)
                ok[name] = ok.get(name, True) and good
                if not good:
                    failures.append("%s %s: crc %s" % (section, name, crc))
        for t in p["tables"]:
            good = t["crc"] == first_tables.get(t["name"]) and \
                t["crc"] == expected.get("tables", {}).get(t["name"], t["crc"])
            ok[t["name"]] = ok.get(t["name"], True) and good
            if not good:
                failures.append("table %s: crc %s" % (t["name"], t["crc"]))
        for f in p["failures"]:
            failures.append(f)
            ok[f.split(":")[0]] = False
    return ok


def paper_metrics(passes, setup_s, peak_rss_mb):
    """End-to-end metrics of untraced paper passes. The user's request is a
    pass (every table of the workload), so p50_ms is the median pass."""
    walls = [p["wall_s"] for p in passes]
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "p50_ms": (1000 * statistics.median(walls), len(walls)),
    }


def span_sum(spans, prefix):
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == prefix or s["name"].startswith(prefix + "."))


def layer_table(spans):
    """Per-layer count, total and self time from benchmark spans. A span's
    self time excludes its benchmark child spans; program span time inside it
    that belongs to another layer (PROGRAM_SPAN_LAYER) moves to that layer,
    capped at the span's own self time because parallel program spans sum
    thread time."""
    rows = {layer: {"count": 0, "total_s": 0.0, "self_s": 0.0}
            for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        row = rows.setdefault(layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        row["count"] += 1
        parent = spans[s["parent"]] if s["parent"] >= 0 else None
        if parent is None or parent["name"].split(".")[0] != layer:
            row["total_s"] += dur
        own = max(0.0, dur - child_time[i])
        for name, seconds in sorted(s.get("program", {}).items()):
            target = PROGRAM_SPAN_LAYER.get(name)
            if target is None or target == layer or own <= 0:
                continue
            moved = min(seconds, own)
            own -= moved
            rows[target]["self_s"] += moved
        row["self_s"] += own
    return rows


def root_coverage(spans, wall):
    return sum(s["end"] - s["start"] for s in spans if s["parent"] < 0) / wall


def paper_layer_metrics(p, program_spans):
    """Per-layer metrics of one traced paper pass."""
    spans = p["spans"]
    c = p["counters"]

    def ratio(a, b):
        return c.get(a, 0) / (c.get(a, 0) + c.get(b, 0)) \
            if c.get(a, 0) + c.get(b, 0) else 0.0

    train_s = span_sum(spans, "models.train")
    rank_s = span_sum(spans, "eval.rank") + span_sum(spans, "core.warm_ranks") \
        + span_sum(spans, "rules.rank")
    m = {
        "models.examples": c.get("kgc.trainer.examples", 0),
        "models.examples_per_s":
            c.get("kgc.trainer.examples", 0) / train_s if train_s else 0.0,
        "models.load_s": span_sum(spans, "models.load"),
        "core.model_cache_hit_ratio":
            ratio("kgc.cache.model_hits", "kgc.cache.model_misses"),
        "core.make_suite_s": span_sum(spans, "core.make_suite"),
        "redundancy.detect_s":
            program_spans.get("redundancy_detect", {}).get("total_s", 0.0),
        "redundancy.pairs_compared": c.get("kgc.redundancy.pairs_compared", 0),
        "core.warm_ranks_s": span_sum(spans, "core.warm_ranks"),
        "eval.rank_s": rank_s,
        "eval.triples_ranked_per_s":
            c.get("kgc.ranker.triples_ranked", 0) / rank_s if rank_s else 0.0,
        "eval.score_evals": c.get("kgc.ranker.score_evals", 0),
        "eval.query_cache_hit_ratio": ratio("kgc.ranker.query_cache_hits",
                                            "kgc.ranker.query_cache_misses"),
        "kg.probe_hit_ratio": ratio("kgc.store.probe_batch_hits",
                                    "kgc.store.probe_batch_misses"),
        "rules.amie_mine_s": span_sum(spans, "rules.amie_mine"),
        "rules.amie_yield":
            c.get("kgc.amie.rules_kept", 0) / c["kgc.amie.candidates"]
            if c.get("kgc.amie.candidates") else 0.0,
        "rules.rank_s": span_sum(spans, "rules.rank"),
        "eval.compare_s": span_sum(spans, "eval.compare"),
        "obs.span_coverage_pct": 100.0 * root_coverage(spans, p["wall_s"]),
    }
    for model in ("TransE", "DistMult", "ComplEx", "ConvE", "RotatE", "TuckER"):
        m["models.train_s." + model] = span_sum(spans, "models.train." + model)
    return m


# ---------------------------------------------------------------------------
# Workloads. Each fills in a Result.

class Result:
    def __init__(self):
        self.metrics = {}      # name -> (value, sample count)
        self.reported = {}     # ungated figures: name -> (value, samples)
        self.layer = {}        # per-layer metric name -> value
        self.table = None      # per-layer rows (traced runs)
        self.attempted = 0
        self.failed = 0
        self.failures = []     # output-check failures: correct is false
        self.invalid = []      # validity problems: correct is false
        self.notes = []
        self.provenance = {}
        self.fingerprints = {}  # kind -> first pass, printed for recording


def run_paper_warm(args, work, ctx, result):
    """Set-up: the Figure 1 path on an empty cache (paper-fill, one pass).
    Timed: table iteration on the filled cache, repeated for --seconds."""
    fill = run_binary(["paper-fill", "--seed=%d" % args.seed,
                       "--trace=%d" % args.trace], work)
    out = run_binary(["paper-warm", "--seed=%d" % args.seed,
                      "--seconds=%r" % args.seconds,
                      "--trace=%d" % args.trace], work)
    passes = out["passes"]
    ok = check_fingerprints("paper_warm_setup", args.seed, ctx.recorded,
                            fill["passes"], result.failures)
    ok_warm = check_fingerprints("paper_warm", args.seed, ctx.recorded, passes,
                                 result.failures)
    items = [(t["name"], ok) for p in fill["passes"] for t in p["tables"]]
    items += [(t["name"], ok_warm) for p in passes for t in p["tables"]]
    result.attempted = len(items)
    result.failed = sum(1 for name, good in items if not good.get(name, True))
    untraced = [p for p in passes if not p["traced"]]
    result.metrics = paper_metrics(untraced, fill["setup_s"], out["peak_rss_mb"])
    cold = fill["passes"][0]
    fmrr = {t["name"]: t["fmrr"] for t in cold["tables"]}
    result.notes.append("set-up: one Figure 1 pass on an empty cache, "
                        "%.2f s" % fill["setup_s"][0])
    result.notes.append("Figure 1 FMRR (leaky / cleaned): " + ", ".join(
        "%s %.4f / %.4f" % (name.split("@")[0], value,
                            fmrr[name.replace("FB15k-syn", "FB15k-237-syn")])
        for name, value in fmrr.items() if name.endswith("@FB15k-syn")))
    result.fingerprints = {"paper_warm_setup": cold, "paper_warm": passes[0]}
    if args.trace:
        finish_paper_trace(cold, passes, result)


# Per-layer metrics of the training layer, taken from the traced set-up.
TRAINING_METRICS = ("models.examples", "models.examples_per_s")


def finish_paper_trace(cold, passes, result):
    """Per-layer figures of a traced run: training from the traced set-up
    pass, everything else from the traced timed pass."""
    p = [q for q in passes if q["traced"]][0]
    untraced_wall = [q["wall_s"] for q in passes if not q["traced"]][0]
    result.layer = paper_layer_metrics(p, p["program_spans"])
    train = paper_layer_metrics(cold, cold["program_spans"])
    result.layer.update({k: v for k, v in train.items()
                         if k in TRAINING_METRICS or
                         k.startswith("models.train_s.")})
    result.layer["obs.trace_overhead_pct"] = \
        100.0 * (p["wall_s"] - untraced_wall) / untraced_wall
    result.table = layer_table(cold["spans"])
    for layer, row in layer_table(p["spans"]).items():
        for k in row:
            result.table[layer][k] += row[k]
    coverage = min(train["obs.span_coverage_pct"],
                   result.layer["obs.span_coverage_pct"])
    result.layer["obs.span_coverage_pct"] = coverage
    result.notes.append("benchmark root spans cover %.2f%% of the set-up "
                        "pass and %.2f%% of the timed pass (tolerance: at "
                        "least %.0f%%)" % (train["obs.span_coverage_pct"],
                                           100 * root_coverage(p["spans"],
                                                               p["wall_s"]),
                                           100 - SPAN_GAP_TOLERANCE_PCT))
    if coverage < 100 - SPAN_GAP_TOLERANCE_PCT:
        result.invalid.append("spans cover only %.2f%% of wall_s" % coverage)


SPAN_GAP_TOLERANCE_PCT = 2.0


def serve_setup(args, ctx, work, index, trace, metrics_path=None):
    """One serving set-up in <work>/setup<index>: stream, bootstrap, start
    kgc_serve until READY. Returns (seconds, directory, server, setup json)."""
    d = os.path.join(work, "setup%d" % index)
    os.makedirs(d)
    start = time.monotonic()
    out = run_binary(["serve-setup", "--seed=%d" % args.seed,
                      "--trace=%d" % trace], d)
    server = Server(d, out["registry"], out["socket"], metrics_path)
    return time.monotonic() - start, d, server, out


def serve_load(args, ctx, d, rotating, trace):
    """The timed part takes --seconds: serve_rotating spends it all at the
    nominal rate; serve_steady splits it between the nominal rate and the
    capacity search. The traced half of a traced run skips the search, so
    the server's own histograms describe nominal traffic only."""
    search_s = 0.0 if rotating or trace else \
        args.seconds * ctx.config["search_share"]
    load = run_binary(["serve-load", "--seed=%d" % args.seed,
                       "--seconds=%r" % args.seconds,
                       "--mode=%s" % ("rotating" if rotating else "steady"),
                       "--search-s=%r" % search_s, "--trace=%d" % trace], d)
    # Infinite figures (a phase with failures) arrive as null.
    for p in load["phases"]:
        for k, v in p.items():
            if v is None:
                p[k] = math.inf
    return load


def serve_metrics(load, setups, rss, cfg, rotating, result):
    """End-to-end metrics, checks and validity of one serving run; returns
    the nominal phase's statistics, as the binary judged them."""
    nominal = next(p for p in load["phases"] if p["name"] == "nominal")
    if nominal["p99_beyond"] < 10:
        result.invalid.append("nominal phase has %d samples: p99 needs ten "
                              "beyond it" % nominal["count"])
    # Every reply of every phase is verified; a mismatch is an output error.
    mismatched = sum(g["mismatches"] for g in load["generations"])
    if mismatched:
        result.failures.append("%d replies failed the oracle" % mismatched)
    for g in load["generations"]:
        if not g["loaded"]:
            result.failures.append("generation %d answered %d replies but "
                                   "cannot be loaded" % (g["generation"],
                                                         g["replies"]))
    if nominal["late_p50_ms"] > cfg["late_p50_limit_ms"] or \
            nominal["late_p99_ms"] > cfg["late_p99_limit_ms"]:
        result.invalid.append(
            "generator fell behind its schedule (lateness p50 %.3f ms, p99 "
            "%.3f ms)" % (nominal["late_p50_ms"], nominal["late_p99_ms"]))
    result.attempted = nominal["count"]
    result.failed = nominal["failed"]

    max_rate, max_qps, max_n = 0.0, 0.0, 0
    if rotating:
        for e in load["ingests"]:
            if e["outcome"] != "published":
                result.invalid.append("batch %d was not published: %s"
                                      % (e["batch"], e["outcome"]))
        # A generation published while traffic still flowed must be served.
        first_reply = {g["generation"]: g["first_reply"]
                       for g in load["generations"]}
        missing = [e["generation"] for e in load["ingests"]
                   if e["outcome"] == "published"
                   and e["generation"] not in first_reply
                   and e["end"] < nominal["end"] - 0.5]
        if missing:
            result.invalid.append("published generations never served: %s"
                                  % missing)
        for e in load["ingests"]:
            result.notes.append(
                "batch %d: ingest %.3f-%.3f s, %s generation %d, first reply "
                "at %s s" % (e["batch"], e["start"], e["end"], e["outcome"],
                             e["generation"],
                             "%.3f" % first_reply[e["generation"]]
                             if e["generation"] in first_reply else "-"))
    for p in load["phases"]:
        if p["name"] != "rung":
            continue
        result.notes.append(
            "rung %6.0f req/s: n=%d ok=%d p50=%.2f ms p99=%.2f ms %s"
            % (p["rate"], p["count"], p["ok"], p["p50_ms"], p["p99_ms"],
               "meets the limit" if p["meets_limit"] else "misses"))
        if p["meets_limit"] and p["rate"] > max_rate:
            max_rate, max_qps, max_n = p["rate"], p["goodput"], p["count"]
    result.metrics = {
        "setup_s": (statistics.median(setups) + load["schedule_s"],
                    len(setups)),
        "wall_s": (nominal["wall_s"], nominal["count"]),
        "peak_rss_mb": (rss, 1),
        "p50_ms": (nominal["p50_ms"], nominal["count"]),
    }
    # Too unsteady on a shared virtual machine to gate (see README.md):
    # reported with every run, and as per-layer metrics of traced runs.
    result.reported = {
        "load.p99_ms": (nominal["p99_ms"], nominal["count"]),
        "load.max_qps": (max_qps, max_n),
        "load.failed_frac": (nominal["failed"] / nominal["count"]
                             if nominal["count"] else math.inf,
                             nominal["count"]),
    }
    result.notes.append("nominal %.0f req/s: %d requests, %d failed, "
                        "generator lateness p99 %.3f ms"
                        % (nominal["rate"], nominal["count"],
                           nominal["failed"], nominal["late_p99_ms"]))
    return nominal


def run_serve(args, work, ctx, result, rotating):
    cfg = ctx.config
    servers = []
    try:
        if args.trace:
            # Same inputs twice: untraced, then traced (spans in kgcbench,
            # run report from kgc_serve at drain).
            secs, d0, s0, _ = serve_setup(args, ctx, work, 0, 0)
            servers.append(s0)
            plain = serve_load(args, ctx, d0, rotating, 0)
            s0.stop()
            report = os.path.join(work, "setup1", "serve_report.jsonl")
            secs, d, server, setup_out = serve_setup(args, ctx, work, 1, 1,
                                                     report)
            servers.append(server)
            cpu0 = server.cpu_seconds()
            load = serve_load(args, ctx, d, rotating, 1)
            cpu = server.cpu_seconds() - cpu0
            rss = server.proc_status("VmHWM") / 1024.0
            server.stop()
            with open(report) as f:
                server_report = json.loads(f.read().strip().splitlines()[-1])
            setups = [secs]
        else:
            setups = []
            for i in range(cfg["serve_setups"]):
                secs, d, server, _ = serve_setup(args, ctx, work, i, 0)
                servers.append(server)
                setups.append(secs)
                if i + 1 < cfg["serve_setups"]:
                    server.stop()
            load = serve_load(args, ctx, d, rotating, 0)
            rss = server.proc_status("VmHWM") / 1024.0
            server.stop()
    finally:
        for s in servers:
            s.stop()

    nominal = serve_metrics(load, setups, rss, cfg, rotating, result)
    if args.trace:
        # End-to-end figures come from the untraced half of a traced run.
        plain_result = Result()
        plain_nominal = serve_metrics(plain, setups, rss, cfg, rotating,
                                      plain_result)
        result.layer = serve_layer_metrics(load, server_report, nominal,
                                           plain_nominal, cpu, cfg)
        result.layer.update({k: v for k, (v, _) in
                             plain_result.reported.items()})
        result.failures += plain_result.failures
        result.invalid += plain_result.invalid
        published = sum(1 for e in load["ingests"]
                        if e["outcome"] == "published")
        if result.layer["snapshot.reader_swaps"] != published:
            result.invalid.append("kgc_serve swapped readers %d times for %d "
                                  "published generations"
                                  % (result.layer["snapshot.reader_swaps"],
                                     published))
        result.table = serve_layer_table(load, setup_out, server_report)


def serve_layer_metrics(load, report, nominal, plain_nominal, cpu, cfg):
    counters = report["counters"]
    durations = report["durations"]
    spans = load.get("spans", [])
    req = durations.get("kgc.serve.request_seconds", {})
    batch = durations.get("kgc.serve.batch_seconds", {})
    hist = report["histograms"].get("kgc.serve.batch_size", {})
    queries = counters.get("kgc.topk.queries_batched", 0)
    entities = cfg["scale_entities"]
    gens = [g for g in load["generations"] if g["loaded"]]
    ok_replies = load["ok_replies"]
    return {
        "serve.request_ms.p50": 1000 * req.get("p50", 0.0),
        "serve.request_ms.p99": 1000 * req.get("p99", 0.0),
        "serve.batch_ms.p50": 1000 * batch.get("p50", 0.0),
        "serve.batch_ms.p99": 1000 * batch.get("p99", 0.0),
        "serve.batch_size.mean":
            hist.get("sum", 0) / hist["count"] if hist.get("count") else 0.0,
        "serve.cpu_ms_per_reply": 1000 * cpu / ok_replies if ok_replies else 0.0,
        "eval.topk.scored_fraction":
            counters.get("kgc.topk.entities_scored", 0) / (queries * entities)
            if queries else 0.0,
        "eval.topk.tiles_pruned": counters.get("kgc.topk.tiles_pruned", 0),
        "load.transport_ms.p50": nominal["p50_ms"] - 1000 * req.get("p50", 0.0),
        "snapshot.ingest_s": span_sum(spans, "snapshot.ingest"),
        "snapshot.load_generation_s":
            statistics.median(g["load_s"] for g in gens) if gens else 0.0,
        "eval.classify_fit_s":
            statistics.median(g["fit_s"] for g in gens) if gens else 0.0,
        "snapshot.reader_swaps": counters.get("kgc.snapshot.reader_swaps", 0),
        "snapshot.repin_retries": counters.get("kgc.snapshot.repin_retries", 0),
        "load.late_ms.p99": nominal["late_p99_ms"],
        "obs.trace_overhead_pct":
            100.0 * (nominal["p50_ms"] - plain_nominal["p50_ms"]) /
            plain_nominal["p50_ms"],
    }


def serve_layer_table(load, setup_out, report):
    """Benchmark spans of the set-up and load processes, plus the server's
    own figures: requests and their server time (serve), top-K sweeps
    (eval) and generation swaps (snapshot), and client requests (load) whose
    self time is what the server did not account for."""
    rows = layer_table(setup_out.get("spans", []))
    for layer, row in layer_table(load.get("spans", [])).items():
        for k in row:
            rows[layer][k] += row[k]
    req = report["durations"].get("kgc.serve.request_seconds", {})
    topk = report["spans"].get("topk.run", {})
    swaps = report["durations"].get("kgc.snapshot.reader_swap_seconds", {})
    rows["load"]["count"] += load["ok_replies"]
    rows["load"]["total_s"] += load["client_s"]
    rows["load"]["self_s"] += load["client_s"] - req.get("sum", 0.0)
    rows["serve"]["count"] += req.get("count", 0)
    rows["serve"]["total_s"] += req.get("sum", 0.0)
    rows["serve"]["self_s"] += req.get("sum", 0.0) - topk.get("total_seconds", 0.0)
    rows["eval"]["count"] += topk.get("count", 0)
    rows["eval"]["total_s"] += topk.get("total_seconds", 0.0)
    rows["eval"]["self_s"] += topk.get("total_seconds", 0.0)
    rows["snapshot"]["count"] += swaps.get("count", 0)
    rows["snapshot"]["total_s"] += swaps.get("sum", 0.0)
    rows["snapshot"]["self_s"] += swaps.get("sum", 0.0)
    return rows


RUNNERS = {
    "paper_warm": run_paper_warm,
    "serve_steady": lambda a, w, c, r: run_serve(a, w, c, r, False),
    "serve_rotating": lambda a, w, c, r: run_serve(a, w, c, r, True),
}


class Context:
    """What every workload reads: the binary's settings and provenance
    (`provenance` subcommand) and the recorded fingerprints."""

    def __init__(self, args, work):
        self.info = run_binary(["provenance", "--seed=%d" % args.seed], work)
        self.config = self.info["config"]
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            self.recorded = json.load(f)


# ---------------------------------------------------------------------------
# Provenance and output.

def source_digest():
    """SHA-256 over the program's sources and the benchmark (the checkout is
    not always a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    # Only the checkout's own repository counts, not one it sits inside.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, ctx):
    """The binary's provenance (build, kernels, threads, KGC_SERVE_* values,
    every setting, derived seeds) plus what only this script knows."""
    info = dict(ctx.info)
    del info["kind"]
    info.update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "KGC_THREADS": os.environ.get("KGC_THREADS", "unset"),
        "seconds": args.seconds,
    })
    return info


def emit(args, bench, result):
    correct = not result.failures and not result.invalid
    names = [m["name"] for m in (bench["per_layer"] if args.trace
                                 else bench["end_to_end"])]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] +
             bench["per_layer"]}
    metrics = {}
    print("kgcbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                            args.trace))
    print("%-34s %16s %-8s %s" % ("metric", "value", "unit", "samples"))
    for name in names:
        if args.trace:
            value, n = float(result.layer.get(name, 0.0)), 1
        else:
            value, n = result.metrics[name]
        if not math.isfinite(value):
            result.invalid.append("%s is not finite" % name)
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": units[name]}
        print("%-34s %16.6f %-8s n=%d" % (name, value, units[name], n))
    for name, (value, n) in sorted(result.reported.items()):
        print("%-34s %16.6f %-8s n=%d (reported, not gated)"
              % (name, value, units.get(name, ""), n))
    print("failed %d of %d attempted (failed_frac %.6f)"
          % (result.failed, result.attempted,
             result.failed / result.attempted if result.attempted else 0.0))
    if result.table:
        print("%-12s %8s %12s %12s" % ("layer", "count", "total_s", "self_s"))
        for layer, row in result.table.items():
            print("%-12s %8d %12.4f %12.4f" % (layer, row["count"],
                                               row["total_s"], row["self_s"]))
    for note in result.notes:
        print("note: " + note)
    for f in result.failures:
        print("CHECK FAILED: " + f)
    for f in result.invalid:
        print("INVALID: " + f)
    if result.fingerprints:
        print("fingerprints: " + json.dumps({
            kind: {"models": p["models"], "outputs": p["outputs"],
                   "tables": {t["name"]: t["crc"] for t in p["tables"]}}
            for kind, p in result.fingerprints.items()}, sort_keys=True))
    print("provenance: " + json.dumps(result.provenance, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    refused = refused_settings(os.environ)
    if refused:
        sys.stderr.write("kgcbench: refusing to run with %s set: the "
                         "benchmark measures the shipped defaults\n"
                         % ", ".join(refused))
        return 2
    if not program_present():
        sys.stderr.write("kgcbench: the program's sources are not next to "
                         "the benchmark (expected %s/src)\n" % ROOT)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seed is None:
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            args.seed = json.load(f)["seed"]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    try:
        build()
        os.makedirs(work)
        ctx = Context(args, work)
        result = Result()
        RUNNERS[args.workload](args, work, ctx, result)
        result.provenance = provenance(args, ctx)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        sys.stderr.write("kgcbench: %s: %s\n" % (type(e).__name__, e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(args, bench, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
