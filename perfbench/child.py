"""One measured process: a whole CLI command, or the command's set-up.

    python3 perfbench/child.py --out RESULT.json [--trace] -- <ehrbench args>
    python3 perfbench/child.py --out RESULT.json --setup KIND -- <input files>

The first form runs ``ehrbench.cli.main`` once and writes its exit code,
the wall time of ``main`` and the process's peak RSS; with ``--trace`` it
also writes the spans recorded around the package's public functions. The
second form times ``import ehrbench`` plus the loaders the command KIND
(predict, icd or sentences) runs on its inputs before any work starts.
``ehrbench`` must be importable, e.g. through PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def _setup_predict(config_path):
    from ehrbench import cli, ehr

    raw = cli.load_run_config(config_path)
    catalog = ehr.load_catalog(raw["data"]["catalog"])
    cohort = ehr.load_cohort(raw["data"]["cohort"], catalog, raw["data"]["task"])
    ehr.split_cohort(cohort, ehr.SplitSpec(**raw["split"]))


def _setup_icd(order_file):
    from ehrbench import icd

    icd.build_tree(icd.filter_broad_codes(icd.parse_order_file(order_file)))


def _setup_sentences(pairs_path, embeddings_path):
    from ehrbench import cli

    cli._load_sentence_pairs(pairs_path)
    cli._load_embedding_file(embeddings_path)


SETUPS = {"predict": _setup_predict, "icd": _setup_icd,
          "sentences": _setup_sentences}


def run_setup(kind, files):
    start = time.perf_counter()
    import ehrbench  # noqa: F401 - the import is part of what is timed
    SETUPS[kind](*files)
    return {"setup_s": time.perf_counter() - start}


def run_command(argv, trace):
    from ehrbench import cli

    recorder = restore = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
    start = time.perf_counter()
    try:
        if recorder:
            rc = recorder.call(tracing.ROOT_SPAN, cli.main, argv)
        else:
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed run, not ours
        traceback.print_exc()
        rc = 1
    main_s = time.perf_counter() - start
    if restore:
        restore()
    result = {"rc": rc, "main_s": main_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder:
        result["spans"] = [s._asdict() for s in recorder.spans]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", choices=sorted(SETUPS))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    if args.setup:
        result = run_setup(args.setup, rest)
    else:
        result = run_command(rest, args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
