"""ccgraph's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload k8s-live|k8s-replay|uservice-serve
                             --seed N --seconds S --trace 0|1

Run from the root of a ccgraph checkout. The first run builds ccgraph and
the traced harness into .bench_build/ and every seed's inputs are cached in
.bench_cache/ (neither counts toward any metric).

--trace 0 launches the real `ccgraph` binary, with tracing, metrics export
and the ops port off, repeatedly for S seconds and reports the end-to-end
metrics as medians over those repetitions. --trace 1 runs the traced harness
once (spans land in .bench_out/) plus one untraced repetition, and reports
the per-layer metrics. Either way every report is checked against a
single-threaded scalar `ccgraph anomaly` reference; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count windows. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import launch
import prep
import stats

PACE_MS = 100.0
LAUNCH_TIMEOUT_S = 150.0
OUT = prep.ROOT / ".bench_out"
WINDOW_LINE = re.compile(rb"^\[h(\d+):(\d+), h(\d+):(\d+)\)")
REPLAY_TAIL = re.compile(rb"^\d+ windows replayed, \d+ alerts$")


class Workload:
    """What one workload runs; subclasses fill in the commands."""

    name = ""
    replay = False  # the closing count line differs from the reference

    def __init__(self, inputs, binaries, tmp):
        self.inputs = inputs
        self.ccgraph, self.harness = binaries
        self.tmp = tmp
        self.threads = prep.parallelism()
        self.shards = 1

    def config(self):
        return {"threads": self.threads, "shards": self.shards,
                "window_minutes": prep.WINDOW, "training_windows": prep.TRAIN}

    def input_digests(self):
        return {}

    def launch(self, argv, label):
        """Runs argv as the workload's system under test."""
        return launch.run([str(a) for a in argv], self.inputs.env,
                          self.tmp / f"{label}.stderr", LAUNCH_TIMEOUT_S), None

    def e2e_argv(self):
        raise NotImplementedError

    def traced_argv(self):
        raise NotImplementedError


class K8sLive(Workload):
    name = "k8s-live"

    def __init__(self, *a):
        super().__init__(*a)
        self.csv = self.inputs.k8s_csv()
        self.reference = self.inputs.k8s_reference()
        self.offsets = self.inputs.k8s_minute_offsets()
        self.records = self.inputs.records(self.csv)
        self.fifo = self.tmp / "flows.fifo"

    def config(self):
        return {**super().config(), "pace_ms_per_minute": PACE_MS}

    def input_digests(self):
        return {"k8s.csv": self.inputs.digest(self.csv),
                "k8s.ref": self.inputs.digest(self.reference)}

    def launch(self, argv, label):
        """Feeds the FIFO from the open-loop generator while argv reads it."""
        os.mkfifo(self.fifo)
        result_path = self.tmp / "generator.json"
        gen = subprocess.Popen(
            [sys.executable, str(prep.HERE / "generator.py"), "--csv", str(self.csv),
             "--offsets", str(self.offsets), "--fifo", str(self.fifo),
             "--pace-ms", str(PACE_MS), "--out", str(result_path)],
            stdout=subprocess.PIPE, env=self.inputs.env)
        try:
            if gen.stdout.readline().strip() != b"ready":
                raise SystemExit("perfbench: generator failed to start")
            run, _ = super().launch(argv, label)
            try:
                gen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        finally:
            if gen.poll() is None:
                gen.kill()
            gen.wait()
            gen.stdout.close()
            os.unlink(self.fifo)
        schedule = json.loads(result_path.read_text()) if result_path.exists() else None
        if result_path.exists():
            result_path.unlink()
        return run, schedule

    def e2e_argv(self):
        return [self.ccgraph, "anomaly", "--in", self.fifo, "--window", prep.WINDOW,
                "--train", prep.TRAIN, "--threads", self.threads]

    def traced_argv(self):
        return [self.harness, "live", "--in", self.fifo, "--window", prep.WINDOW,
                "--train", prep.TRAIN, "--threads", self.threads]


class K8sReplay(Workload):
    name = "k8s-replay"
    replay = True

    def __init__(self, *a):
        super().__init__(*a)
        self.threads = 1
        csv = self.inputs.k8s_csv()
        with ThreadPoolExecutor(2) as pool:
            reference = pool.submit(self.inputs.k8s_reference)
            store = pool.submit(self.inputs.k8s_store)
            self.reference, self.store = reference.result(), store.result()
        self.records = self.inputs.records(csv)

    def input_digests(self):
        return {"k8s.store": self.inputs.digest(self.store),
                "k8s.ref": self.inputs.digest(self.reference)}

    def e2e_argv(self):
        return [self.ccgraph, "store", "replay", "--store", self.store, "--threads", 1,
                "--train", prep.TRAIN]

    def traced_argv(self):
        return [self.harness, "replay", "--store", self.store, "--threads", 1,
                "--train", prep.TRAIN]


class UserviceServe(Workload):
    name = "uservice-serve"

    def __init__(self, *a):
        super().__init__(*a)
        self.shards = self.threads
        self.csv = self.inputs.uservice_csv()
        self.reference = self.inputs.uservice_reference()
        self.records = self.inputs.records(self.csv)
        self.store = self.tmp / "serve.store"

    def input_digests(self):
        return {"uservice.csv": self.inputs.digest(self.csv),
                "uservice.ref": self.inputs.digest(self.reference)}

    def launch(self, argv, label):
        shutil.rmtree(self.store, ignore_errors=True)
        try:
            return super().launch(argv, label)
        finally:
            shutil.rmtree(self.store, ignore_errors=True)

    def e2e_argv(self):
        return [self.ccgraph, "serve", "--in", self.csv, "--shards", self.shards,
                "--threads", self.threads, "--window", prep.WINDOW, "--train", prep.TRAIN,
                "--store", self.store]

    def traced_argv(self):
        return [self.harness, "serve", "--in", self.csv, "--shards", self.shards,
                "--threads", self.threads, "--window", prep.WINDOW, "--train", prep.TRAIN,
                "--store", self.store]


WORKLOADS = {w.name: w for w in (K8sLive, K8sReplay, UserviceServe)}


def window_blocks(lines):
    """Report lines grouped per window: {window label: the window's line
    plus the indented alert lines under it}."""
    blocks = {}
    label = None
    for line in lines:
        m = WINDOW_LINE.match(line)
        if m:
            label = m.group(0)
            blocks[label] = line
        elif label is not None and line.startswith(b"  "):
            blocks[label] += b"\n" + line
        else:
            label = None
    return blocks


def check(workload, output, rc):
    """The output-correctness gate for one run.

    Returns (windows attempted, windows failed, whole output correct). A
    window fails when its report line (or an alert line under it) is
    missing or differs from the reference; a run that exits with a code
    other than 0 or 3 fails all of its windows.
    """
    ref = workload.reference.read_bytes()
    ref_lines = ref.rstrip(b"\n").split(b"\n")
    out_lines = output.rstrip(b"\n").split(b"\n")
    ref_blocks = window_blocks(ref_lines)
    out_blocks = window_blocks(out_lines)
    attempted = len(ref_blocks)
    if rc not in (0, 3):
        return attempted, attempted, False
    failed = sum(1 for label, block in ref_blocks.items() if out_blocks.get(label) != block)
    if workload.replay:
        whole = (out_lines[:-1] == ref_lines[:-1] and len(out_lines) == len(ref_lines)
                 and REPLAY_TAIL.match(out_lines[-1]) is not None)
    else:
        whole = output == ref
    return attempted, failed, whole and failed == 0


def window_latencies_ms(run, schedule):
    """Per window, from the moment its last minute was due until its report
    line arrived. Inputs that exist in full at launch are due at launch."""
    out = []
    seen = set()
    for t, line in run.lines:
        m = WINDOW_LINE.match(line)
        if not m or m.group(0) in seen:
            continue
        seen.add(m.group(0))
        due = run.launch
        if schedule is not None:
            last_minute = int(m.group(3)) * 60 + int(m.group(4)) - 1
            if last_minute >= len(schedule["due"]):
                continue
            due = schedule["due"][last_minute]
        out.append((t - due) * 1e3)
    return out


def e2e_rep(workload, label):
    run, schedule = workload.launch(workload.e2e_argv(), label)
    attempted, failed, correct = check(workload, run.output, run.rc)
    first_line = next((t for t, line in run.lines if WINDOW_LINE.match(line)), run.exit)
    latencies = window_latencies_ms(run, schedule)
    metrics = {
        "records_per_s": workload.records / run.wall_s,
        "records_per_cpu_s": workload.records / run.cpu_s,
        "window_p50_ms": statistics.median(latencies) if latencies else None,
        "window_tail_ms": stats.tail_value(latencies) if latencies else None,
        "setup_s": first_line - run.launch,
        "peak_rss_mb": run.peak_rss_mb,
    }
    rep = {
        "rc": run.rc, "timed_out": run.timed_out, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
        "windows": attempted, "failed_windows": failed, "correct": correct,
        "latency_samples": len(latencies),
        "tail_percentile": stats.tail_percentile(len(latencies)),
        "metrics": metrics,
    }
    if schedule is not None:
        late = stats.lateness_ms(schedule["due"], schedule["done"])
        rep["generator"] = {"late_ms_p50": statistics.median(late) if late else None,
                            "late_ms_max": max(late) if late else None,
                            "minutes_written": len(schedule["done"])}
    if not correct:
        stderr_tail = (workload.tmp / f"{label}.stderr").read_text(errors="replace")[-2000:]
        prep.log(f"{workload.name} {label}: OUTPUT GATE FAILED: rc={run.rc}, "
                 f"{failed}/{attempted} windows wrong; stderr tail:\n{stderr_tail}")
    return rep


END_TO_END_UNITS = {
    "records_per_s": "rec/s",
    "records_per_cpu_s": "rec/CPU-s",
    "window_p50_ms": "ms",
    "window_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_e2e(workload, seconds):
    """Repeats the workload while another repetition, as long as the ones
    so far, still fits in `seconds` (at least once)."""
    reps = []
    started = time.monotonic()
    while True:
        reps.append(e2e_rep(workload, f"e2e{len(reps)}"))
        elapsed = time.monotonic() - started
        if not reps[-1]["correct"] or elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = [r["metrics"][name] for r in reps if r["metrics"][name] is not None]
        metrics[name] = {"value": statistics.median(values) if values else None, "unit": unit}
    return reps, metrics


PER_LAYER_UNITS = {
    "common.parse_s": "s", "common.rows": "count", "common.bytes": "B",
    "common.malformed_rows": "count", "common.parse_mrows_per_s": "Mrow/s",
    "graph.ingest_s": "s", "graph.finalize_s": "s", "graph.csr_s": "s",
    "graph.windows": "count", "graph.nodes_p50": "count", "graph.edges_p50": "count",
    "graph.collapsed_nodes": "count",
    "segmentation.similarity_s": "s", "segmentation.pairs_scored": "count",
    "segmentation.louvain_s": "s", "segmentation.tracker_s": "s",
    "summarize.fit_s": "s", "summarize.score_s": "s", "summarize.edges_s": "s",
    "summarize.patterns_s": "s",
    "parallel.jobs": "count", "parallel.jobs_per_fit": "count",
    "analytics.window_s": "s",
    "store.append_s": "s", "store.bytes_written": "B", "store.open_s": "s",
    "store.read_s": "s",
    "dist.worker_parse_s": "s", "dist.parse_amplification": "ratio", "dist.ship_s": "s",
    "dist.merge_s": "s", "dist.wire_bytes": "B", "dist.shard_skew": "ratio",
    "net.retries": "count", "net.errors": "count",
    "obs.trace_overhead": "ratio",
    "generator.late_ms": "ms",
}


def layer_metrics(workload, spans, counts, traced_wall, untraced_wall, schedule):
    """Per-layer metrics from the traced run's spans and counts.

    A layer's time is the summed self time of its spans; layers that do not
    run on a workload read 0.
    """
    own = stats.self_times(spans)

    def self_s(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    rows = sum(c["rows"] for c in counts)
    parse_s = self_s("common.parse")
    main = counts[0]
    worker_parse = [sum(own[c["id"]] for c in spans
                        if c["parent"] == w["id"] and c["name"] == "common.parse")
                    for w in spans if w["name"] == "dist.worker"]
    shard_records = [r for c in counts for r in c["shard_records"]]
    fits = [s for s in spans if s["name"] == "summarize.fit"]
    late = stats.lateness_ms(schedule["due"], schedule["done"]) if schedule else []
    values = {
        "common.parse_s": parse_s,
        "common.rows": rows,
        "common.bytes": sum(c["bytes"] for c in counts),
        "common.malformed_rows": sum(c["malformed_rows"] for c in counts),
        "common.parse_mrows_per_s": rows / parse_s / 1e6 if parse_s > 0 else 0.0,
        "graph.ingest_s": self_s("graph.ingest"),
        "graph.finalize_s": self_s("graph.finalize"),
        "graph.csr_s": self_s("graph.csr"),
        "graph.windows": main["windows"],
        "graph.nodes_p50": statistics.median(main["nodes"]) if main["nodes"] else 0,
        "graph.edges_p50": statistics.median(main["edges"]) if main["edges"] else 0,
        "graph.collapsed_nodes": main["collapsed_nodes"],
        "segmentation.similarity_s": self_s("segmentation.similarity"),
        "segmentation.pairs_scored": main["pairs_scored"],
        "segmentation.louvain_s": self_s("segmentation.louvain"),
        "segmentation.tracker_s": self_s("segmentation.tracker"),
        "summarize.fit_s": self_s("summarize.fit"),
        "summarize.score_s": self_s("summarize.score"),
        "summarize.edges_s": self_s("summarize.edges"),
        "summarize.patterns_s": self_s("summarize.patterns"),
        "parallel.jobs": main["parallel_jobs"],
        "parallel.jobs_per_fit": sum(s["jobs"] for s in fits) / len(fits) if fits else 0,
        "analytics.window_s": self_s("analytics.window"),
        "store.append_s": self_s("store.append"),
        "store.bytes_written": main["store_bytes_written"],
        "store.open_s": self_s("store.open"),
        "store.read_s": self_s("store.read"),
        "dist.worker_parse_s": max(worker_parse) if worker_parse else 0.0,
        "dist.parse_amplification":
            sum(c["rows"] for c in counts[1:]) / workload.records if len(counts) > 1 else 0.0,
        "dist.ship_s": self_s("dist.ship"),
        "dist.merge_s": self_s("dist.merge"),
        "dist.wire_bytes": sum(c["wire_bytes"] for c in counts),
        "dist.shard_skew":
            max(shard_records) * len(shard_records) / sum(shard_records) if shard_records else 0.0,
        "net.retries": sum(c["net_retries"] for c in counts),
        "net.errors": sum(c["net_errors"] for c in counts),
        "obs.trace_overhead": traced_wall / untraced_wall,
        "generator.late_ms": max(late) if late else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run_traced(workload, seed):
    """One untraced repetition, then the traced harness on the same input."""
    untraced = e2e_rep(workload, "untraced")
    base = OUT / f"{workload.name}-seed{seed}"
    paths = {k: Path(f"{base}.{k}") for k in ("spans", "stats", "report")}
    for old in OUT.glob(f"{base.name}.*"):
        old.unlink()
    argv = workload.traced_argv() + [a for k, p in paths.items() for a in (f"--{k}", p)]
    run, schedule = workload.launch(argv, "traced")
    report = paths["report"].read_bytes() if paths["report"].exists() else b""
    attempted, failed, correct = check(workload, report, run.rc)
    if not correct:
        prep.log(f"{workload.name} traced run: OUTPUT GATE FAILED: rc={run.rc}, "
                 f"{failed}/{attempted} windows wrong")
        return [untraced], None, attempted, failed, False
    spans, counts = [], []
    for suffix in [""] + [f".shard{i}" for i in range(workload.shards)]:
        span_file = Path(f"{paths['spans']}{suffix}")
        if span_file.exists():
            spans += [json.loads(line) for line in span_file.read_text().splitlines()]
            counts.append(json.loads(Path(f"{paths['stats']}{suffix}").read_text()))
    metrics = layer_metrics(workload, spans, counts, run.wall_s, untraced["wall_s"], schedule)
    return ([untraced], metrics, attempted + untraced["windows"],
            failed + untraced["failed_windows"], untraced["correct"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    prep.check_checkout()
    binaries = prep.build()
    env = launch.clean_env()
    inputs = prep.Inputs(binaries[0], args.seed, env)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](inputs, binaries, tmp)
        if args.trace:
            reps, metrics, attempted, failed, correct = run_traced(workload, args.seed)
        else:
            reps, metrics = run_e2e(workload, args.seconds)
            attempted = sum(r["windows"] for r in reps)
            failed = sum(r["failed_windows"] for r in reps)
            correct = all(r["correct"] for r in reps)
        correct = correct and metrics is not None
        result_stamp = prep.stamp(binaries[0], args.workload, args.seed, {
            **workload.config(), "run_seconds": args.seconds, "trace": args.trace,
            "inputs": workload.input_digests(), "records": workload.records})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    diagnostics = {"stamp": result_stamp,
                   "error_ratio": failed / attempted if attempted else 1.0,
                   "repetitions": reps}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**diagnostics, "metrics": metrics}, indent=1))
    print(json.dumps(diagnostics))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics or {}}))
    if not correct:
        prep.log("output-correctness gate failed; see the diagnostics above")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
