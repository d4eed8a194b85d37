"""Benchmark of whole ehrbench commands, end to end and by layer.

    python3 perfbench/run.py --workload predict-best --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each workload generates its inputs from ``--seed``, runs one
warm-up command, then, for ``--seconds``, runs the command in a fresh
process over and over, each time followed by a fresh process that times
``import ehrbench`` plus the command's input loading (``setup_s``). Every
run's outputs are checked, and after the loop they are compared with
independent oracles (``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced runs and reports the per-layer metrics:
each layer's self time from the spans of the traced runs, the counts taken
at the same boundaries, and the tracing overhead. Human-readable lines go
first; the last line of stdout is one JSON object. The exit code is 1 when
a check fails and 2 when the program cannot be found.

Scratch files live in ``.perfbench/`` at the repository root; the run
record (environment, seeds, sizes, every sample) and the spans are kept in
``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_RUNS = 3          # untraced (and traced) command runs, whatever --seconds
COMMAND_TIMEOUT_S = 150
# glibc serves every allocation from the heap and never trims it. With its
# defaults, the n*k*d distance tensors of icd-sweep were mapped and faulted in
# afresh on each k-means iteration, and that kernel time was the noisiest part
# of the command; the dynamic mmap threshold also made peak RSS take one of two
# values depending on the heap layout.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

# BENCHMARK.json says why each workload exists; it declares only predict-best
# and icd-sweep. On a shared host the speed of pure-Python code drifts by tens
# of percent over tens of seconds, and only longer runs average that out, so
# the run budget goes to two workloads at 55 s. predict-http and
# sentences-grid run by hand or with --workload all; at 25 s the 10-seed
# spread of sentences-grid's wall time reached 0.31. The sizes keep one
# command between two and three seconds on two cores. The predict workloads send every
# prompt to the loopback fake server (2 clients in a closed loop); with the
# noise stub in its place, predict was all pure Python and its 10-seed
# spread of wall_s reached 0.23-0.31.
BEST_PROMPT = {"include_units": True, "include_ranges": True,
               "n_icl_examples": 2}
BASE_PROMPT = {"include_units": False, "include_ranges": False,
               "n_icl_examples": 0}
WORKLOADS = {
    "predict-best": {
        "full": {"patients": 1000, "resamples": 1000, "delay_ms": 2.0,
                 "prompt": BEST_PROMPT},
        "tiny": {"patients": 60, "resamples": 20, "delay_ms": 1.0,
                 "prompt": BEST_PROMPT},
    },
    "predict-http": {
        "full": {"patients": 1700, "resamples": 10, "delay_ms": 2.0,
                 "prompt": BASE_PROMPT},
        "tiny": {"patients": 60, "resamples": 10, "delay_ms": 1.0,
                 "prompt": BASE_PROMPT},
    },
    "icd-sweep": {
        # k-means iterations vary with the seed; 41 Ks average them out
        "full": {"codes": 350, "ks": ",".join(map(str, range(10, 51)))},
        "tiny": {"codes": 40, "ks": "2,3"},
    },
    "sentences-grid": {
        "full": {"pairs": 700},
        "tiny": {"pairs": 30},
    },
}

END_TO_END = {"items_per_s": "1/s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "ehr.load_s": "s", "ehr.split_s": "s", "ehr.records": "count",
    "prompts.render_s": "s", "prompts.icl_synth_s": "s",
    "prompts.icl_synth_calls": "count", "prompts.icl_useful_ratio": "ratio",
    "prompts.icl_spec_s": "s", "prompts.prompt_chars": "chars",
    "gateway.batch_s": "s", "gateway.requests": "count",
    "gateway.request_ms_p50": "ms", "gateway.request_ms_p99": "ms",
    "gateway.errors": "count", "gateway.decode_s": "s",
    "gateway.decoded_ratio": "ratio",
    "server.requests": "count", "server.connections": "count",
    "server.connections_per_request": "ratio",
    "server.attempts_per_request": "ratio",
    "gateway.embed_s": "s", "gateway.embed_texts": "count",
    "metrics.bootstrap_s": "s", "metrics.auroc_s": "s",
    "metrics.auprc_s": "s", "metrics.resamples": "count",
    "metrics.metric_calls": "count", "metrics.resample_useful_ratio": "ratio",
    "metrics.grid_s": "s", "metrics.kendall_s": "s",
    "metrics.spearman_s": "s", "metrics.pearson_s": "s",
    "icd.parse_s": "s", "icd.tree_s": "s", "icd.sweep_s": "s",
    "icd.kmeans_s": "s", "icd.kmeans_iters": "count",
    "icd.kmeans_dist_bytes": "bytes", "icd.distance_s": "s",
    "icd.distance_pairs": "count",
    "cli.self_s": "s", "proc.startup_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# -- workloads ---------------------------------------------------------------

class Predict:
    """``predict`` on a synthetic cohort; items are test samples."""

    def __init__(self, workdir, seed, size, base_url):
        import inputs

        catalog, cohort = inputs.write_cohort(workdir, size["patients"], seed)
        self.cohort = cohort
        endpoint = {"base_url": base_url, "model_name": "fake-chat",
                    "max_in_flight": 2}
        self.boot = {"n": size["resamples"], "seed": seed}
        self.out_dir = os.path.join(workdir, "out")
        config = {
            "label": "bench",
            "data": {"cohort": cohort, "catalog": catalog,
                     "task": "mortality"},
            "split": {"train_frac": 0.6, "val_frac": 0.1, "test_frac": 0.3,
                      "seed": seed},
            "prompt": size["prompt"],
            "endpoint": endpoint,
            "bootstrap": self.boot,
            "output_dir": self.out_dir,
        }
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        self.argv = ["predict", "--config", config_path]
        self.setup = ("predict", [config_path])
        self.first = None

    def after_run(self):
        """(attempted, failed) items of the run just made; checks repeats."""
        import checks

        with open(os.path.join(self.out_dir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(self.out_dir, "transcript.jsonl")) as fh:
            transcript = fh.read()
        outputs = (checks.strip_timing(report), transcript)
        if self.first is None:
            self.first = outputs
            self.report, self.transcript = report, transcript.splitlines()
        checks.require(outputs == self.first,
                       "report or transcript differs between runs")
        return report["missing_rate"]["n_test"], report["n_errors"]

    def final_check(self):
        import checks

        checks.check_predict_report(self.report, self.transcript, self.cohort,
                                    self.boot)


class EvalCommand:
    """An eval command whose report must repeat byte for byte."""

    first = None

    def after_run(self):
        """(attempted, failed) items of the run just made; checks repeats."""
        import checks

        with open(os.path.join(self.out_dir, "report.json")) as fh:
            text = fh.read()
        if self.first is None:
            self.first = text
        checks.require(text == self.first, "report differs between runs")
        return self.items, 0


class Icd(EvalCommand):
    """``eval-icd``; items are codes x Ks."""

    MODEL = "hash-embed-256"

    def __init__(self, workdir, seed, size):
        import inputs

        self.order_file = inputs.write_order_file(
            os.path.join(workdir, "order.txt"), size["codes"], seed)
        self.seed = seed
        self.ks = [int(k) for k in size["ks"].split(",")]
        self.out_dir = os.path.join(workdir, "out")
        self.argv = ["eval-icd", "--order-file", self.order_file,
                     "--model", self.MODEL, "--ks", size["ks"],
                     "--seed", str(seed), "--output-dir", self.out_dir]
        self.setup = ("icd", [self.order_file])
        self.items = size["codes"] * len(self.ks)

    def final_check(self):
        import checks

        checks.check_icd_report(json.loads(self.first), self.order_file,
                                self.seed, self.ks[0], self.MODEL)


class Sentences(EvalCommand):
    """``eval-sentences`` from an embeddings file; items are pairs."""

    def __init__(self, workdir, seed, size):
        import inputs

        self.pairs, self.embeddings = inputs.write_sentences(
            workdir, size["pairs"], seed)
        self.out_dir = os.path.join(workdir, "out")
        self.argv = ["eval-sentences", "--pairs", self.pairs,
                     "--embeddings-file", self.embeddings,
                     "--output-dir", self.out_dir]
        self.setup = ("sentences", [self.pairs, self.embeddings])
        self.items = size["pairs"]

    def final_check(self):
        import checks

        checks.check_sentence_grid(json.loads(self.first), self.pairs,
                                   self.embeddings)


class FakeServer:
    """The loopback chat server in its own process, for a ``with`` block."""

    def __init__(self, delay_ms):
        self.delay_ms = delay_ms

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--delay-ms", str(self.delay_ms)],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.__exit__(None, None, None)
            raise RuntimeError("fake server did not start")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"
        return self

    def take_counts(self):
        """Counts since the last call; resets them."""
        with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- measurement -------------------------------------------------------------

def child_env():
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workdir, child_args):
    """Run child.py; returns its result plus the parent-measured wall_s."""
    out = os.path.join(workdir, "child.json")
    if os.path.exists(out):
        os.remove(out)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--out", out, *child_args],
        env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - start
    if not os.path.exists(out):
        raise RuntimeError(f"child exited {proc.returncode} without a "
                           f"result:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["stderr"] = proc.stderr[-2000:]
    return result


def run_command(workload, workdir, traced, server, failures):
    """One fresh-process command run, its outputs checked."""
    import checks

    if server:
        server.take_counts()
    result = run_child(
        workdir, (["--trace"] if traced else []) + ["--", *workload.argv])
    if server:
        result["server"] = server.take_counts()
    if result["rc"] != 0:
        failures.append(f"command exited {result['rc']}: {result['stderr']}")
        result["attempted"] = result["failed"] = 1
        return result
    try:
        result["attempted"], result["failed"] = workload.after_run()
    except checks.CheckFailed as exc:
        failures.append(str(exc))
        result["attempted"], result["failed"] = 1, 1
    return result


def end_to_end_metrics(runs, setup_times):
    walls = [r["wall_s"] for r in runs]
    rates = [r["attempted"] / r["wall_s"] for r in runs]
    rss = [r["maxrss_kb"] / 1024.0 for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "items_per_s": summary(rates),
        "wall_s": summary(walls),
        "setup_s": summary(setup_times),
        "peak_rss_mb": summary(rss),
        "ok_frac": {"median": 1.0 - failed / attempted, "n": len(runs)},
    }


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traced, untraced):
    """Per-layer metrics from the traced runs; medians over those runs."""
    import tracing

    per_run = []
    latencies = []
    for run in traced:
        spans = [tracing.Span(**s) for s in run["spans"]]
        layers = tracing.layer_times(spans)
        row = collections.defaultdict(float, layers)
        blocks = set()
        for s in spans:
            for key, value in s.attrs.items():
                if key == "icl_block":
                    blocks.add(value)
                else:
                    row[key] += value
            if s.name == "gateway.complete":
                latencies.append((s.end_ns - s.start_ns) / 1e6)
                row["gateway.errors"] += s.error is not None
        (root,) = [s for s in spans if s.name == tracing.ROOT_SPAN]
        main_s = (root.end_ns - root.start_ns) / 1e9
        if abs(sum(layers.values()) - main_s) > 1e-6:
            raise RuntimeError("self times do not partition the command")
        row["proc.startup_s"] = run["wall_s"] - main_s
        calls = row["prompts.icl_synth_calls"]
        row["prompts.icl_useful_ratio"] = len(blocks) / calls if calls else 0.0
        decodes = row.pop("gateway.decodes", 0)
        row["gateway.decoded_ratio"] = (row.pop("gateway.decoded", 0) / decodes
                                        if decodes else 0.0)
        mcalls = row["metrics.metric_calls"]
        row["metrics.resample_useful_ratio"] = (
            row["metrics.resamples"] / mcalls if mcalls else 0.0)
        counts = run.get("server")
        if counts:
            row["server.requests"] = counts["requests"]
            row["server.connections"] = counts["connections"]
            if counts["requests"]:
                row["server.connections_per_request"] = (
                    counts["connections"] / counts["requests"])
            if row["gateway.requests"]:
                row["server.attempts_per_request"] = (
                    counts["requests"] / row["gateway.requests"])
        per_run.append(row)
    out = {name: summary([row.get(name, 0.0) for row in per_run])
           for name in PER_LAYER}
    out["gateway.request_ms_p50"] = {"median": _percentile(latencies, 0.50),
                                     "n": len(latencies)}
    out["gateway.request_ms_p99"] = {"median": _percentile(latencies, 0.99),
                                     "n": len(latencies)}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = summary([r["wall_s"] for r in untraced])
    out["trace.overhead_s"] = {"median": traced_wall - untraced_wall,
                               "n": len(traced)}
    return out


def run_workload(name, seed, seconds, trace, size_name):
    """Measure one workload; returns (result dict, run record)."""
    size = WORKLOADS[name][size_name]
    # a fixed path: the heap layout, and so peak RSS, can depend on it
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failures = []
    untraced, traced = [], []
    server_cm = (FakeServer(size["delay_ms"]) if "delay_ms" in size
                 else contextlib.nullcontext())
    try:
        with server_cm as server:
            if name.startswith("predict-"):
                workload = Predict(str(workdir), seed, size, server.url)
            elif name == "icd-sweep":
                workload = Icd(str(workdir), seed, size)
            else:
                workload = Sentences(str(workdir), seed, size)
            kind, files = workload.setup
            setup_times = []
            run_command(workload, str(workdir), False, server, failures)
            deadline = time.perf_counter() + seconds
            while not failures and (
                    time.perf_counter() < deadline
                    or len(untraced) < MIN_RUNS
                    or (trace and len(traced) < MIN_RUNS)):
                run_traced = trace and len(traced) < len(untraced)
                result = run_command(workload, str(workdir), run_traced,
                                     server, failures)
                (traced if run_traced else untraced).append(result)
                if not trace:
                    # set-up shares the window, and so the machine's drift
                    setup_times.append(run_child(
                        str(workdir), ["--setup", kind, "--", *files])
                        ["setup_s"])
        if not failures:
            try:
                workload.final_check()
            except Exception as exc:  # noqa: BLE001 - any oracle failure
                failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = untraced + traced
    units = PER_LAYER if trace else END_TO_END
    if failures:
        metrics = {}
    elif trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setup_times)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        # a failed oracle check counts as one more failed operation
        "failed": sum(r["failed"] for r in runs) + (1 if failures else 0),
        "metrics": {k: {"value": metrics[k]["median"], "unit": units[k]}
                    for k in units if k in metrics},
    }
    record = {
        "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "size": size,
        "environment": environment(),
        "failures": failures,
        "metrics": {k: dict(v, unit=units.get(k, "")) for k, v in metrics.items()},
        "setup_s_samples": setup_times,
        "runs": [dict({k: v for k, v in r.items()
                       if k not in ("spans", "stderr")}, traced="spans" in r)
                 for r in runs],
    }
    write_record(name, seed, trace, record, traced)
    return result, record


def environment():
    import numpy
    import requests

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def write_record(name, seed, trace, record, traced):
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for run_id, run in enumerate(traced):
                for span in run["spans"]:
                    fh.write(json.dumps(dict(span, run=run_id)) + "\n")


def print_table(name, record):
    for metric, s in record["metrics"].items():
        extra = (f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
                 if "q1" in s else f"  (n={s['n']})")
        print(f"{name:15s} {metric:34s} {s['median']:14.6g} {s['unit']:6s}"
              f"{extra}")
    if "ok_frac" in record["metrics"]:
        print(f"{name:15s} {'failed_frac':34s} "
              f"{1.0 - record['metrics']['ok_frac']['median']:14.6g} ratio")
    for failure in record["failures"]:
        print(f"{name}: CHECK FAILED: {failure}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills its command and stops the server
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "ehrbench" / "__init__.py").is_file():
        print(f"error: no ehrbench package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.size)
        print_table(name, record)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
