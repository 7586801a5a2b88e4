#!/usr/bin/env python3
"""The csdd benchmark (perfbench/README.md describes workloads and metrics).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds csdd and the harness from this checkout into .bench_build/
(Release), runs the workload, checks every answer against the harness's
reference answers and prints a report. The last line of stdout is one
JSON object, {"correct", "attempted", "failed", "metrics"}: the gated
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits nonzero, without that line, when the benchmark cannot run, and
with it but nonzero when an answer was wrong or a traced-run check
failed.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")
WORKLOADS = ["point_recursive", "deep_closure", "functional_chains",
             "hot_rw_durable"]
TECHNIQUES = ["magic-sets", "chain-split-magic", "buffered-chain-split",
              "partial-evaluation", "top-down"]
# Traced spans whose whole duration is a per-layer time.
SPAN_METRICS = {
    "parse": "ast.query_parse_us",
    "magic_rewrite": "core.magic_rewrite_us",
    "chain_forward_phase": "core.buffered_forward_us",
    "chain_backward_phase": "core.buffered_backward_us",
    "apply_rest_goals": "core.apply_rest_goals_us",
    "fixpoint": "engine.fixpoint_us",
}
# The end-to-end metrics of the JSON result line, which BENCHMARK.json
# gates: those every gated workload reports. qps is printed and kept in
# the result file (on one connection it is the reciprocal of the mean
# latency); the write latencies and WAL amplification apply to
# hot_rw_durable only.
GATED = ("latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
# Counts that must repeat exactly between the two traced passes.
COUNTS = ["iterations", "derived", "considered", "call_states",
          "delayed_solves"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(required + " is missing: run from a checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "csdd",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_harness(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    raw_path = os.path.join(OUT, tag + ".raw.json")
    spans_path = os.path.join(OUT, tag + ".spans.jsonl")
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--csdd", os.path.join(BUILD, "tools", "csdd"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work,
           "--fixtures", os.path.join(BUILD, "perfbench-fixtures"),
           "--out", raw_path]
    if trace:
        cmd += ["--spans", spans_path]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=170).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within 170 s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"the harness failed on {workload} (exit {code})")
    with open(raw_path) as f:
        return json.load(f), spans_path, tag


# --- Scraped series -------------------------------------------------------

SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def parse_metrics(text):
    series = {}
    for line in text.splitlines():
        match = SAMPLE.match(line)
        if match and not line.startswith("#"):
            series[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return series


def family(series, name):
    return sum(v for k, v in series.items() if k == name or k.startswith(name + "{"))


def histogram_median(before, after, name):
    """Median of the observations a histogram gained between two scrapes,
    interpolated inside its power-of-two bucket; returns (median, count)."""
    def cumulative(series):
        out = {}
        for key, value in series.items():
            match = re.match(re.escape(name) + r'_bucket\{le="([^"]+)"\}$', key)
            if match:
                le = match.group(1)
                out[float("inf") if le == "+Inf" else float(le)] = value
        return out

    a, b = cumulative(before), cumulative(after)

    def at(series, bound):  # zero-count buckets are not rendered
        return max([v for le, v in series.items() if le <= bound], default=0.0)

    bounds = sorted(set(a) | set(b))
    deltas = [(le, at(b, le) - at(a, le)) for le in bounds]
    total = deltas[-1][1] if deltas else 0.0
    if total <= 0:
        return 0.0, 0
    rank = total / 2
    previous = 0.0
    for le, count in deltas:
        if count >= rank:
            lower = le / 2 if le >= 2 else 0.0
            if le == float("inf"):
                return lower, int(total)
            return lower + (le - lower) * (rank - previous) / (count - previous), int(total)
        previous = count
    return 0.0, int(total)


def delta(after, before, *path):
    for key in path:
        after, before = after[key], before[key]
    return after - before


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- Metrics --------------------------------------------------------------

def end_to_end(raw):
    """name -> (value, unit, samples, note), for the metrics that apply:
    write metrics where the timed sequence writes."""
    reads, writes = raw["read_ms"], raw["write_ms"]
    completed = raw["timed"]["attempted"]
    metrics = {"qps": (completed / raw["elapsed_s"], "1/s", completed,
                       f"{completed} requests in {raw['elapsed_s']:.3f} s")}
    metrics["latency_p50_ms"] = (reads["p50"], "ms", reads["count"], "reads")
    metrics["latency_p90_ms"] = (reads["p90"], "ms", reads["count"], "reads")
    if writes["count"]:
        scrapes = raw["scrapes"]
        wal_bytes = delta(scrapes["mid"]["wal"], scrapes["pre"]["wal"], "wal", "bytes")
        user_bytes = raw["update_bytes"]
        metrics["write_latency_p50_ms"] = (writes["p50"], "ms", writes["count"], "writes")
        metrics["write_latency_p90_ms"] = (writes["p90"], "ms", writes["count"], "writes")
        metrics["wal_bytes_per_user_byte"] = (
            ratio(wal_bytes, user_bytes), "ratio", user_bytes,
            f"{wal_bytes} WAL bytes / {user_bytes} update bytes")
    metrics["setup_s"] = (statistics.median(raw["setup_s"]), "s", len(raw["setup_s"]),
                          "median of " + ", ".join(f"{s:.3f}" for s in raw["setup_s"]))
    metrics["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024, "MB", 1, "server VmHWM")
    return metrics


def read_spans(path):
    passes = collections.defaultdict(list)
    setups = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if "setup_us" in record:
                setups[record["pass"]] = record["setup_us"]
            else:
                passes[record["pass"]].append(record)
    return passes, setups


def traced_layers(records):
    """Per-request sums of span self/whole times and span-attribute counts
    over the read requests of one traced pass."""
    times = collections.defaultdict(float)
    counts = collections.defaultdict(int)
    techniques = collections.Counter()
    reads = 0
    for record in records:
        if record["kind"] != "read":
            continue
        reads += 1
        techniques[record["technique"]] += 1
        events = record["trace"]["traceEvents"]
        children = collections.defaultdict(float)
        for event in events:
            if event["args"]["parent_id"] >= 0:
                children[event["args"]["parent_id"]] += event["dur"]
        evaluate = 0.0
        for event in events:
            name, args = event["name"], event["args"]
            if args["span_id"] == 0:
                times["query"] += event["dur"]
            if name == "evaluate":
                evaluate += event["dur"]
                times["core.evaluate_self_us"] += event["dur"] - children[args["span_id"]]
            if name in SPAN_METRICS:
                times[SPAN_METRICS[name]] += event["dur"]
            if name == "fixpoint":
                counts["iterations"] += args.get("iterations", 0)
                counts["derived"] += args.get("derived", 0)
            elif name == "fixpoint_iteration":
                counts["considered"] += args.get("tuples_considered", 0)
            elif name == "buffered_eval":
                counts["call_states"] += args.get("call_states", 0)
            elif name == "chain_backward_phase":
                counts["delayed_solves"] += args.get("delayed_solves", 0)
        root = next(e for e in events if e["args"]["span_id"] == 0)
        times["service.query_self_us"] += root["dur"] - evaluate
    return reads, times, counts, techniques


def write_chrome_trace(records, setup, path):
    """The traced pass as one Chrome trace_event file: harness spans around
    each setup call and each request, the service's span tree inside."""
    events = []
    at = 0.0
    for name, us in setup.items():
        events.append({"name": name, "cat": "harness", "ph": "X", "pid": 1,
                       "tid": 1, "ts": at, "dur": us})
        at += us + 1
    for record in records:
        call = "QueryService::Query" if record["kind"] == "read" else "QueryService::Update"
        events.append({"name": call, "cat": "harness", "ph": "X", "pid": 1, "tid": 1,
                       "ts": at, "dur": record["us"], "args": {"label": record["label"]}})
        for event in record.get("trace", {}).get("traceEvents", []):
            events.append(dict(event, ts=at + event["ts"]))
        at += record["us"] + 1
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def per_layer(raw, spans_path, tag):
    """name -> (value, unit, base)."""
    scrapes = raw["scrapes"]
    pre, mid = scrapes["pre"], scrapes["mid"]
    series_pre, series_mid = parse_metrics(pre["metrics"]), parse_metrics(mid["metrics"])
    wal0, wal1 = pre["wal"], mid["wal"]

    hits = delta(mid["cache"], pre["cache"], "result_cache", "hits")
    lookups = hits + delta(mid["cache"], pre["cache"], "result_cache", "misses")
    plan_hits = delta(mid["cache"], pre["cache"], "plan_cache", "hits")
    plan_lookups = plan_hits + delta(mid["cache"], pre["cache"], "plan_cache", "misses")
    invalidations = delta(mid["cache"], pre["cache"], "result_cache", "invalidations")
    updates = delta(mid["cache"], pre["cache"], "updates")
    queries = delta(mid["cache"], pre["cache"], "queries")
    evals = (delta(mid["cache"], pre["cache"], "evals", "shared") +
             delta(mid["cache"], pre["cache"], "evals", "exclusive"))
    overlay = delta(mid["cache"], pre["cache"], "overlay", "bytes")
    rejected = delta(mid["net"], pre["net"], "requests", "rejected_overload")
    responses = delta(mid["net"], pre["net"], "requests", "responses")
    bytes_out = delta(mid["net"], pre["net"], "bytes", "out")
    server_p50, server_n = histogram_median(series_pre, series_mid, "csdd_query_latency_us")
    client_p50 = raw["read_ms"]["p50"] * 1000
    sld = family(series_mid, "csdd_sld_steps_total") - family(series_pre, "csdd_sld_steps_total")
    wal_records = delta(wal1, wal0, "wal", "records")
    wal_bytes = delta(wal1, wal0, "wal", "bytes")

    # Passes alternate untraced (0, 2) and traced (1, 3).
    passes, setups = read_spans(spans_path)
    replay = raw["replay"]["passes"]
    reads, times, counts, techniques = traced_layers(passes[1])
    _, _, counts2, techniques2 = traced_layers(passes[3])
    write_chrome_trace(passes[1], setups.get(1, {}), os.path.join(OUT, tag + ".trace.json"))
    untraced = (replay[0]["total_us"] + replay[2]["total_us"]) / 2
    traced = (replay[1]["total_us"] + replay[3]["total_us"]) / 2

    def setup_s(name):
        values = [s[name] / 1e6 for s in setups.values() if name in s]
        return (statistics.median(values) if values else 0.0, "s",
                f"median of {len(values)} in-process setups")

    def mean_us(name):
        return (ratio(times[name], reads), "us", f"mean over {reads} traced reads")

    def per_query(name):
        return (ratio(counts[name], reads), "count",
                f"{counts[name]} over {reads} traced reads")

    query_us = ratio(times["query"], reads)
    metrics = {
        "net.client_minus_server_us": (client_p50 - server_p50, "us",
            f"client p50 {client_p50:.1f} us (n={raw['read_ms']['count']}) - "
            f"server p50 {server_p50:.1f} us (n={server_n})"),
        "net.bytes_out_per_request": (ratio(bytes_out, responses), "bytes",
            f"{bytes_out} bytes / {responses} responses"),
        "net.queue_high_watermark": (mid["net"]["queue"]["high_watermark"], "count",
            f"queue capacity {mid['net']['queue']['capacity']}"),
        "net.rejected_overload": (rejected, "count", "must stay 0"),
        "service.result_hit_rate": (ratio(hits, lookups), "ratio",
            f"{hits} hits / {lookups} lookups"),
        "service.plan_hit_rate": (ratio(plan_hits, plan_lookups), "ratio",
            f"{plan_hits} hits / {plan_lookups} lookups"),
        "service.invalidations_per_write": (ratio(invalidations, updates), "ratio",
            f"{invalidations} invalidations / {updates} updates"),
        "service.query_self_us": mean_us("service.query_self_us"),
        "service.overlay_bytes_per_query": (ratio(overlay, evals), "bytes",
            f"{overlay} bytes / {evals} uncached evaluations"),
        "ast.query_parse_us": mean_us("ast.query_parse_us"),
        "ast.program_parse_s": setup_s("ParseProgram"),
        "rel.fact_load_s": setup_s("LoadProgramFacts"),
        "rel.rows_stored": (family(series_mid, "csdd_storage_rows"), "count",
                            "csdd_storage_rows after the timed phase"),
        "term.pool_terms_per_request": (
            ratio(replay[1]["pool_growth"], replay[1]["requests"]), "count",
            f"{replay[1]['pool_growth']} terms / {replay[1]['requests']} requests"),
        "core.evaluate_self_us": mean_us("core.evaluate_self_us"),
        "core.magic_rewrite_us": mean_us("core.magic_rewrite_us"),
        "core.buffered_forward_us": mean_us("core.buffered_forward_us"),
        "core.buffered_backward_us": mean_us("core.buffered_backward_us"),
        "core.call_states_per_query": per_query("call_states"),
        "core.delayed_solves_per_query": per_query("delayed_solves"),
        "core.apply_rest_goals_us": mean_us("core.apply_rest_goals_us"),
    }
    for technique in TECHNIQUES:
        metrics["core.technique." + technique] = (
            techniques[technique], "count", f"of {reads} traced reads")
    metrics.update({
        "engine.fixpoint_us": mean_us("engine.fixpoint_us"),
        "engine.iterations_per_query": per_query("iterations"),
        "engine.derived_per_query": per_query("derived"),
        "engine.considered_per_query": per_query("considered"),
        "engine.derived_per_considered": (
            ratio(counts["derived"], counts["considered"]), "ratio",
            f"{counts['derived']} derived / {counts['considered']} considered"),
        "engine.ns_per_considered": (
            ratio(times["engine.fixpoint_us"] * 1000, counts["considered"]), "ns",
            f"{times['engine.fixpoint_us']:.0f} us / {counts['considered']} considered"),
        "engine.sld_steps_per_query": (ratio(sld, queries), "count",
            f"{sld:.0f} steps / {queries} queries"),
        "storage.wal_append_us": (raw["replay"]["wal_append_us"]["p50"], "us",
            f"median of {raw['replay']['wal_append_us']['count']} appends"),
        "storage.wal_bytes_per_record": (ratio(wal_bytes, wal_records), "bytes",
            f"{wal_bytes} bytes / {wal_records} records"),
        "storage.wal_syncs": (delta(wal1, wal0, "wal", "syncs"), "count",
            "during the timed phase"),
        "storage.recovery_s": setup_s("RecoverDatabase"),
        "obs.trace_overhead_pct": (ratio(traced - untraced, untraced) * 100, "%",
            f"traced {traced:.0f} us vs untraced {untraced:.0f} us per pass"),
    })
    same = ([counts[k] for k in COUNTS] == [counts2[k] for k in COUNTS] and
            techniques == techniques2 and
            replay[1]["pool_growth"] == replay[3]["pool_growth"])
    checks = [("counts repeat across the two traced passes", same),
              ("no request was refused as overloaded", rejected == 0)]
    if raw["workload"] == "hot_rw_durable":
        checks.append(("the result cache is hit", hits > 0))
    else:
        checks.append(("the result cache is never hit", hits == 0))
    shares = {name: ratio(times[name], times["query"]) for name in
              ("core.evaluate_self_us", "engine.fixpoint_us", "service.query_self_us")}
    notes = [f"mean traced query {query_us:.1f} us; shares: " +
             ", ".join(f"{k} {v:.0%}" for k, v in shares.items())]
    return metrics, checks, notes


def source_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return "git " + result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace):
    raw, spans_path, tag = run_harness(workload, seed, seconds, trace)
    ops = [raw["timed"], raw["warmup"]]
    if trace:
        ops += [p["ops"] for p in raw["replay"]["passes"]]
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    context = {
        "seed": seed, "nproc": raw["cpus"], "compiler": raw["compiler"],
        "build_type": build_type(), "source": source_id(),
        "loop": "closed, 1 connection",
        "pinned_cpu": raw["pinned_cpu"] if raw["pinned_cpu"] >= 0 else "none",
        "timed_ops": raw["timed_ops"],
    }
    print(f"# perfbench {workload}: seed {seed}, --seconds {seconds}, trace {trace}")
    print("# context: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    print(f"# ops: {attempted} attempted, {failed} failed "
          f"(timed {raw['timed']}, warm-up {raw['warmup']})")
    correct = not raw["mismatched"]
    if trace:
        metrics, checks, notes = per_layer(raw, spans_path, tag)
        for name, (value, unit, base) in metrics.items():
            print(f"{name:36s} {value:14.6g} {unit:6s} {base}")
        for note in notes:
            print("# " + note)
        for check, ok in checks:
            print(f"# check: {check}: {'yes' if ok else 'NO'}")
            correct = correct and ok
        values = {name: (value, unit) for name, (value, unit, _) in metrics.items()}
    else:
        metrics = end_to_end(raw)
        for name, (value, unit, samples, note) in metrics.items():
            print(f"{name:26s} {value:14.6g} {unit:6s} n={samples:<8} {note}")
        values = {name: (value, unit) for name, (value, unit, _, _) in metrics.items()}
    result = {"context": context, "correct": correct,
              "raw": os.path.join(OUT, tag + ".raw.json"),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    with open(os.path.join(OUT, tag + ".result.json"), "w") as f:
        json.dump(result, f, indent=1)
    if not trace:
        values = {k: v for k, v in values.items() if k in GATED}
    return correct, attempted, failed, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, a, f, values = run(workload, args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        for name, value in values.items():
            metrics[name if len(workloads) == 1 else f"{workload}/{name}"] = value
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
