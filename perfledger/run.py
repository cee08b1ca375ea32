#!/usr/bin/env python3
"""perfledger: the fetcam benchmark.

One workload per run:

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the fetcam libraries, fetcam_serve and the fetcam_ledger driver from
source into .bench_build/ (first run only), runs the workload with the
knee latency limit of perfledger/reference.json, checks its correctness
gates and the modelled hardware figures against that file, prints every
metric by name with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (0 for a layer the workload does not touch).
Exit code 0 only when every gate held.

    python3 perfledger/run.py --all [--seed N] [--seconds S]

runs every workload untraced and then traced, one after the other.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LEDGER = os.path.join(BUILD, "fetcam_ledger")
SERVE = os.path.join(BUILD, "fetcam", "tools", "fetcam_serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the two binaries up to date. Build output
    is shown only when a step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "fetcam_ledger",
              "fetcam_serve_cli"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_ledger(workload, seed, seconds, trace, tiny, corrupt, latency_limit_ms):
    work = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [LEDGER, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work, "--serve-bin", SERVE,
           "--trace-file", os.path.join(traces, f"{workload}-seed{seed}.jsonl"),
           "--latency-limit-ms", repr(latency_limit_ms)]
    if tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"fetcam_ledger {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def check_hardware(workload, tiny, hardware, reference):
    """Modelled figures must equal the recorded ones bit for bit."""
    key = workload + ("-tiny" if tiny else "")
    want = reference["hardware"].get(key)
    if want is None:
        return [f"no reference hardware figures for {key}"]
    errors = []
    for name, value in want.items():
        got = hardware.get(name)
        if got is None or float(got).hex() != float(value).hex():
            errors.append(f"{name}: {got!r} != reference {value!r}")
    return errors


def one_run(args, spec, reference):
    res = run_ledger(args.workload, args.seed, args.seconds, args.trace, args.tiny,
                     args.corrupt_oracle, reference["latency_limit_ms"])
    problems = [f"gate failed: {g['name']} ({g['detail']})" for g in res["gates"] if not g["ok"]]
    problems += check_hardware(args.workload, args.tiny, res["hardware"], reference)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not exercise spends no time there.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    kind = "per-layer (traced)" if args.trace else "end-to-end"
    log(f"== {args.workload} seed {args.seed}: {kind}")
    for name, m in metrics.items():
        log(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    for name, m in res["detail"].items():
        log(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    log(f"  {'fail_frac':24s} {fail_frac:.6g} ratio ({res['failed']} of {res['attempted']})")
    for name, value in res["hardware"].items():
        log(f"  {'hw.' + name:24s} {value!r}")
    for p in problems:
        log(f"  FAIL {p}")

    correct = res["correct"] and not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes (the benchmark's tests)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="flip one expected answer; the run must fail")
    args = ap.parse_args()

    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.all and args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    reference = load_json("reference.json")
    build()
    if not args.all:
        return one_run(args, spec, reference)
    status = 0
    for trace in (0, 1):
        for name in names:
            args.workload, args.trace = name, trace
            status |= one_run(args, spec, reference)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, OSError) as e:
        log(f"perfledger: {e}")
        sys.exit(2)
