"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload dep-sentiment --seed 1 --seconds 20 --trace 0

Run from the repository root.  It generates the workload's inputs from
the seed, runs `worker.py` on them in a fresh interpreter, prints the
environment record and every metric by name and unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, with every timing divided
by the host's speed at the time (see hostspeed.py), `--trace 1` the
per-layer ones.  The full result, with the environment record, is also written
to `bench/out/<workload>-seed<seed>-trace<t>.json` and a traced run's
spans to `bench/out/<workload>.spans.jsonl`.  The exit code is 0 only
when every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "treeconv")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 175.0

sys.path.insert(0, HERE)
import corpus  # noqa: E402


def _commit() -> str | None:
    """HEAD of the repository, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_env(requested: int) -> dict:
    """The worker's environment: BLAS/OpenMP threads capped at
    `requested`, and a fixed hash seed so that runs differ only by
    their inputs and the host, not by the interpreter's dict layout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var)
        value = requested
        if current and current.isdigit() and int(current) > 0:
            value = min(int(current), requested)
        env[var] = str(value)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treeconv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"bench: package sources not found at {PACKAGE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    result_path = os.path.join(workdir, "result.json")
    nproc = _nproc()
    env = _worker_env(nproc)
    try:
        inputs = corpus.generate(args.workload, args.seed, workdir, OUT)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        environment = {
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "nproc": nproc,
            "seed": args.seed,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "corpus_sha256": inputs["digest"],
            "corpus_spec": inputs["spec"],
        }
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--inputs", inputs_path, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", result_path]
        if args.trace:
            command += ["--spans", os.path.join(OUT, f"{args.workload}.spans.jsonl")]
        timeout = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(command, env=env, timeout=timeout)
        if proc.returncode != 0:
            print(f"bench: worker exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print("bench: worker exceeded the time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment.update(result.pop("runtime"))
    result["environment"] = environment
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    attempted, failed = result["attempted"], result["failed"]
    print("environment " + json.dumps(environment, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    if result["samples"]:
        print("unadjusted for host speed: " + ", ".join(
            f"{key} {value:.6g}" for key, value in result["samples"]["raw"].items()))
    print(f"ops_failed_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed checks / {attempted} attempted operations)")
    for message in result["failures"]:
        print(f"check failed: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
