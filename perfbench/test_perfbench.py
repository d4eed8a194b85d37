"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload for a fraction of a second on tiny inputs, traced and
untraced, and checks the output contract, the oracles and the span
arithmetic on small cases.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ehrbench import icd, metrics  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_meets_the_output_contract(trace):
    spec = _spec()
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    want = {m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        proc = _run_bench("--workload", workload, "--seed", "5", "--seconds",
                          "0.2", "--trace", trace, "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "predict-best", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_repeat_for_a_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        inputs.write_order_file(d / "order.txt", 50, seed=3)
        inputs.write_sentences(d, 20, seed=3)
        inputs.write_cohort(d, 30, seed=3)
    for name in ("order.txt", "pairs.tsv", "embeddings.jsonl", "cohort.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    entries = icd.parse_order_file(a / "order.txt")
    assert len(icd.filter_broad_codes(entries)) == 50
    assert any(len(e.code) >= 5 for e in entries)
    assert {len(e.code) for e in icd.filter_broad_codes(entries)} == {3, 4}


def test_reference_metrics_agree_with_the_program():
    rng = np.random.default_rng(0)
    scores = np.round(rng.uniform(size=200), 1)  # coarse, so ties occur
    labels = (rng.uniform(size=200) < 0.3).astype(int)
    samples = [metrics.ScoredSample(str(i), float(s), int(y))
               for i, (s, y) in enumerate(zip(scores, labels))]
    assert checks._ref_auroc(scores, labels) == metrics.auroc(samples)
    assert abs(checks._ref_auprc(scores, labels)
               - metrics.auprc(samples)) <= 1e-12
    boot = metrics.bootstrap(metrics.auroc, samples, n=25, seed=4)
    assert checks._ref_bootstrap_mean(checks._ref_auroc, scores, labels,
                                      25, 4) == boot.mean


def test_ancestor_walk_agrees_with_the_program(tmp_path):
    path = inputs.write_order_file(tmp_path / "order.txt", 120, seed=2)
    entries = icd.filter_broad_codes(icd.parse_order_file(path))
    codes = [e.code for e in entries]
    assert codes == [c for c, _ in checks.read_broad_codes(path)]
    labels = np.random.default_rng(1).integers(0, 6, size=len(codes))
    assignment = icd.ClusterAssignment(k=6, labels=labels, centroids=(),
                                       iterations_run=1)
    assert checks.ancestor_walk_mean_distance(codes, labels) == \
        icd.avg_code_distance(icd.build_tree(entries), codes, assignment)


def test_a_wrong_metric_fails_the_predict_check(tmp_path):
    _, cohort = inputs.write_cohort(tmp_path, 40, seed=1)
    rows = [json.loads(line) for line in open(cohort, encoding="utf-8")]
    digest = "f" * 64
    transcript = [json.dumps({"sample_id": r["patient_id"], "probability":
                              0.9 if r["label"] else 0.1,
                              "raw_text": checks.answer_for(digest),
                              "prompt_sha256": digest})
                  for r in rows]
    report = {"n_errors": 0, "missing_rate": {"percent": 0.0,
                                              "n_test": len(rows)},
              "metrics": {"auroc": {"mean": 1.0}, "auprc": {"mean": 1.0}}}
    boot = {"n": 5, "seed": 0}
    checks.check_predict_report(report, transcript, cohort, boot)
    report["metrics"]["auroc"]["mean"] = 0.999
    with pytest.raises(checks.CheckFailed):
        checks.check_predict_report(report, transcript, cohort, boot)


def test_self_times_partition_nested_and_concurrent_spans():
    s = tracing.Span
    ms = 1_000_000
    spans = [
        s(1, None, "cli.main", 0, 100 * ms, 1, None, {}),
        s(2, 1, "gateway.complete_batch", 10 * ms, 90 * ms, 1, None, {}),
        s(3, 2, "gateway.complete", 20 * ms, 60 * ms, 2, None, {}),
        s(4, 2, "gateway.complete", 40 * ms, 80 * ms, 3, None, {}),
    ]
    times = tracing.self_times(spans)
    assert sum(times.values()) == pytest.approx(0.1)
    assert times["cli.main"] == pytest.approx(0.02)
    # batch alone 10-20 and 80-90; the two requests split 40-60 evenly
    assert times["gateway.complete_batch"] == pytest.approx(0.02)
    assert times["gateway.complete"] == pytest.approx(0.06)


def test_install_wraps_tables_and_links_pool_threads():
    recorder = tracing.Recorder()
    original = metrics.CORRELATIONS["kendall"]
    restore = tracing.install(recorder)
    try:
        assert metrics.CORRELATIONS["kendall"] is not original

        def work():
            metrics.CORRELATIONS["kendall"]([1, 2, 3], [1, 3, 2])

        def batch():
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        recorder.call("cli.main", batch)
    finally:
        restore()
    assert metrics.CORRELATIONS["kendall"] is original
    (kendall,) = [sp for sp in recorder.spans if sp.name == "metrics.kendall"]
    (root,) = [sp for sp in recorder.spans if sp.name == "cli.main"]
    assert kendall.parent == root.id and kendall.thread != root.thread


def test_fake_server_answers_from_the_prompt_hash_and_counts():
    import hashlib

    import requests

    with run.FakeServer(delay_ms=0) as server:
        server.take_counts()
        body = {"messages": [{"role": "user", "content": "hello"}]}
        with requests.Session() as session:
            for _ in range(3):
                reply = session.post(server.url + "/chat/completions",
                                     json=body, timeout=10).json()
        counts = server.take_counts()
    digest = hashlib.sha256(b"hello").hexdigest()
    assert reply["choices"][0]["message"]["content"] == \
        checks.answer_for(digest)
    assert counts == {"requests": 3, "connections": 1}
    assert server.proc.poll() is not None
