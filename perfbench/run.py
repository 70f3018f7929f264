#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload {plan|spread|serve} \
        --seed N --seconds S --trace {0|1}

Builds the perfbench binary from the checkout's sources (CMake, build tree
in .bench_build/perfbench), writes the workload's seeded inputs in one
process, measures them in another, and prints:

  * a human-readable summary on stderr (metrics by name and unit, output
    checks, and for a traced run the per-layer ledger);
  * the binary's full report as one JSON line on stdout;
  * as the last stdout line, the result object
    {"correct", "attempted", "failed", "metrics"} whose metrics are the
    BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
    (--trace 1).

Exits non-zero, printing no result, when the build or a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Run `cmd` from the checkout root; output goes to stderr unless
    captured. Raises on failure or timeout (the child is killed and
    reaped first)."""
    stdout = subprocess.PIPE if capture else sys.stderr
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def result_metrics(spec, report, trace):
    """The BENCHMARK.json metrics of this run, in file order."""
    if not trace:
        produced = report["e2e"]
        wanted = spec["end_to_end"]
    else:
        produced = report["layers"]
        wanted = spec["per_layer"]
        unknown = set(produced) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from "
                               f"BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in produced:
            if produced[name]["unit"] != m["unit"]:
                raise RuntimeError(f"{name}: unit {produced[name]['unit']} "
                                   f"!= BENCHMARK.json {m['unit']}")
            value = produced[name]["value"]
        elif trace:
            value = 0  # a layer this workload does not exercise
        else:
            raise RuntimeError(f"end-to-end metric {name} not measured")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def summarize(report):
    info = report["info"]
    log(f"== perfbench {report['workload']} seed={report['seed']} "
        f"trace={int(report['trace'])} backend={info.get('kernel_backend')} "
        f"threads={info.get('threads')} nproc={info.get('nproc')} "
        f"{info.get('compiler')} {info.get('build_type')}")
    for section in ("e2e", "named", "layers"):
        for name, m in report[section].items():
            log(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    log(f"  {'error_rate':34s} {report['error_rate']:>16.6g} ratio "
        f"({report['failed']} of {report['attempted']} operations failed)")
    for failure in report["failures"]:
        log(f"  FAILED: {failure}")
    ledger = report.get("ledger") or {}
    if ledger:
        total = sum(ledger["self_ms"].values()) + ledger["unattributed_ms"]
        log(f"  ledger over {ledger['threads']:g} thread(s), "
            f"wall {ledger['wall_ms']:.3f} ms:")
        for layer, ms in ledger["self_ms"].items():
            log(f"    {layer:12s} {ms:14.3f} ms")
        log(f"    {'unattributed':12s} {ledger['unattributed_ms']:14.3f} ms")
        log(f"    {'sum':12s} {total:14.3f} ms "
            f"({100.0 * total / ledger['wall_ms']:.2f}% of wall)")
        split = ledger.get("split")
        if split:
            log(f"  split of {split['of']}:")
            for name, ms in split["ms"].items():
                log(f"    {name:22s} {ms:14.3f} ms")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["plan", "spread", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    # Relative paths keep the daemon's Unix socket path short.
    work = os.path.join(".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    out = os.path.join(".bench_build", "out")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    os.makedirs(os.path.join(ROOT, out), exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        run([binary, "prepare"] + common, RUN_TIMEOUT_S)
        stdout = run([binary, "run"] + common +
                     ["--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", out],
                     RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    report = json.loads(stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, out, f"report-{args.workload}-{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    summarize(report)

    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": result_metrics(spec, report, bool(args.trace)),
    }
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    try:
        main()
    except Exception as error:  # noqa: BLE001 — any failure: no result
        log(f"perfbench: {error}")
        sys.exit(1)
