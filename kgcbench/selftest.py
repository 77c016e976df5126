"""Self-tests of the benchmark (python3 kgcbench/run.py --selftest).

Checks the validity rules and the output contract in Python, then runs
the binary's own self-test (percentiles, and planted faults in the reply
oracle and the rank cross-check) in a scratch directory under .bench_build.
"""

import contextlib
import io
import json
import math
import os
import shutil

import run


def check(ok, what, failures):
    print("selftest %s: %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def test_validity(failures):
    # A phase with 999 requests cannot support its p99: the run is invalid.
    result = run.Result()
    run.serve_metrics(fake_load(999), [1.0], 10.0, fake_config(), True, result)
    check(any("p99 needs ten" in x for x in result.invalid),
          "a nominal phase too short for p99 makes the run invalid", failures)
    check(result.reported["load.p99_ms"][1] == 999 and
          result.metrics["p50_ms"][1] == 999,
          "percentiles state their sample counts", failures)
    result = run.Result()
    run.serve_metrics(fake_load(2000, late_p99_ms=250.0), [1.0], 10.0,
                      fake_config(), False, result)
    check(any("fell behind" in x for x in result.invalid),
          "a generator behind its schedule makes the run invalid", failures)
    result = run.Result()
    run.serve_metrics(fake_load(2000, mismatches=1), [1.0], 10.0,
                      fake_config(), False, result)
    check(any("oracle" in x for x in result.failures),
          "a reply failing the oracle makes the run incorrect", failures)


def fake_config():
    return {"late_p50_limit_ms": 1.0, "late_p99_limit_ms": 100.0,
            "scale_entities": 10000}


def fake_load(n, rungs=(), late_p99_ms=0.5, mismatches=0):
    """serve-load's output for a warm-up, a nominal phase of n requests
    and the given search rungs (rate, meets_limit), as the binary judged
    them."""
    def phase(name, rate, count, meets):
        beyond = count - max(1, math.ceil(0.99 * count))
        return {"name": name, "rate": rate, "start": 0.0,
                "end": count / rate, "count": count, "ok": count,
                "failed": 0, "p50_ms": 2.0, "p99_ms": 4.0,
                "p99_beyond": beyond, "late_p50_ms": 0.01,
                "late_p99_ms": late_p99_ms, "wall_s": count / rate,
                "goodput": rate, "backlog": not meets, "meets_limit": meets}

    phases = [phase("warmup", 100.0, 10, False),
              phase("nominal", 100.0, n, n >= 1000)]
    phases += [phase("rung", rate, int(rate), meets) for rate, meets in rungs]
    m = sum(p["count"] for p in phases)
    return {"phases": phases, "ok_replies": m, "client_s": m * 0.002,
            "ingests": [], "schedule_s": 0.001,
            "generations": [{"generation": 0, "loaded": True, "load_s": 0.05,
                             "fit_s": 0.03, "replies": m,
                             "mismatches": mismatches, "first_reply": 0.0}]}


def fake_paper_pass(traced):
    spans = [
        {"name": "core.make_suite", "start": 0.0, "end": 1.0, "parent": -1,
         "thread": 0, "program": {"redundancy_detect": 0.4}},
        {"name": "models.train.ConvE", "start": 1.0, "end": 3.0, "parent": -1,
         "thread": 0, "program": {"train_model": 2.0}},
        {"name": "eval.rank.ConvE", "start": 3.0, "end": 3.5, "parent": -1,
         "thread": 0, "program": {"rank_triples": 0.5}},
        {"name": "eval.metrics", "start": 3.5, "end": 3.6, "parent": -1,
         "thread": 0, "program": {}},
    ]
    return {"traced": traced, "wall_s": 3.6,
            "tables": [{"name": "ConvE@d", "done_s": 3.5, "queries": 2000,
                        "crc": "00000001", "fmrr": 0.1}],
            "models": {"ConvE@d": "00000002"}, "outputs": {},
            "counters": {"kgc.trainer.examples": 1000,
                         "kgc.cache.model_misses": 1},
            "failures": [], "spans": spans if traced else [],
            "program_spans": {"redundancy_detect": {"count": 1,
                                                    "total_s": 0.4}}}


def emitted(args, bench, result):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(args, bench, result)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_emission(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] +
             bench["per_layer"]}

    class Args:
        workload, seed = "selftest", 1

    # End-to-end metrics of both workload families.
    paper = run.Result()
    paper.metrics = run.paper_metrics([fake_paper_pass(False)], [0.01, 0.02],
                                      50.0)
    serve = run.Result()
    run.serve_metrics(fake_load(2000, [(1000.0, True), (2000.0, False)]),
                      [2.0, 2.1, 2.2], 30.0, fake_config(), False, serve)
    check(serve.reported["load.max_qps"] == (1000.0, 1000),
          "capacity is the fastest rung the binary passed", failures)
    Args.trace = 0
    for label, result in (("paper", paper), ("serve", serve)):
        line = emitted(Args, bench, result)
        metrics = line["metrics"]
        check(set(metrics) == {m["name"] for m in bench["end_to_end"]} and
              all(metrics[k]["unit"] == units[k] for k in metrics),
              "%s run emits every end-to-end metric with its unit" % label,
              failures)
        check(all(v["value"] > 0 for v in metrics.values()),
              "%s run emits no zero end-to-end metric" % label, failures)
        check(set(line) == {"correct", "attempted", "failed", "metrics"},
              "%s result line has exactly the contract's keys" % label,
              failures)

    # Per-layer metrics: the paper and serving computations together name
    # every per-layer metric, and a traced run emits all of them.
    p = fake_paper_pass(True)
    paper_traced = run.Result()
    run.finish_paper_trace(p, [fake_paper_pass(False), p], paper_traced)
    check(paper_traced.layer["models.train_s.ConvE"] == 2.0 and
          not paper_traced.invalid,
          "a traced paper run takes training from its set-up pass", failures)
    layer = dict(paper_traced.layer)
    load = fake_load(2000)
    nominal = load["phases"][1]
    report = {"counters": {"kgc.topk.queries_batched": 10,
                           "kgc.topk.entities_scored": 50000},
              "durations": {"kgc.serve.request_seconds":
                            {"p50": 0.001, "p99": 0.002, "count": 1,
                             "sum": 0.001}},
              "histograms": {"kgc.serve.batch_size": {"count": 2, "sum": 3}},
              "spans": {}}
    layer.update(run.serve_layer_metrics(load, report, nominal, nominal, 1.0,
                                         fake_config()))
    layer.update({k: v for k, (v, _) in serve.reported.items()})
    names = {m["name"] for m in bench["per_layer"]}
    check(names <= set(layer), "the workloads compute every per-layer metric "
          "(missing: %s)" % sorted(names - set(layer)), failures)
    Args.trace = 1
    traced = run.Result()
    traced.layer = layer
    metrics = emitted(Args, bench, traced)["metrics"]
    check(set(metrics) == names and
          all(metrics[k]["unit"] == units[k] for k in metrics),
          "a traced run emits every per-layer metric with its unit", failures)

    # The layer table splits a span by the program's own rollups.
    table = run.layer_table(p["spans"])
    check(math.isclose(table["redundancy"]["self_s"], 0.4) and
          math.isclose(table["core"]["self_s"], 0.6) and
          math.isclose(table["eval"]["self_s"], 0.6),
          "layer self times split make_suite by redundancy_detect", failures)


def test_binary(failures):
    work = os.path.join(run.BUILD_ROOT, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        out = run.run_binary(["selftest"], work)
        check(out["failures"] == 0, "binary self-test (percentiles, oracle "
              "bit flip, unknown generation, swapped rank entry)", failures)
    except run.BenchError as e:
        check(False, "binary self-test: %s" % e, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    failures = []
    test_validity(failures)
    test_emission(failures)
    run.build()
    test_binary(failures)
    print("selftest: %d failed" % len(failures))
    return 1 if failures else 0
