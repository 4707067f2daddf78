"""vlmkit benchmark: data ingest, training steps and greedy generation.

Run one workload (from the repository root):

    python3 bench/run.py --workload train_text --seed 1 --seconds 20 --trace 0

or every workload, each in its own process:

    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see BENCHMARK.json). The command prints every metric by name with
its unit and where the result came from; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
It exits non-zero, printing no result, when an output check fails or an
error other than a counted VlmkitError occurs.

BLAS and OpenMP are pinned to one thread before numpy is imported, so the
load comes from a single process on a single core.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ingest", "train_text", "train_align", "generate")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha() -> str:
    """HEAD of the repository this file sits in, or "none" outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code outside git too."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "vlmkit")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "vlmkit", "__init__.py")):
        print(f"error: no vlmkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import vlmkit  # noqa: F401  (numpy loads here, after the pin)

    if os.path.dirname(os.path.abspath(vlmkit.__file__)) != os.path.join(SRC, "vlmkit"):
        print(f"error: imported vlmkit from {vlmkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import run_workload
    from workloads import WORKLOADS as TABLE, CheckFailed

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = run_workload(TABLE[args.workload], args.seed, args.seconds,
                              bool(args.trace), workdir)
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:     # another run still uses it
            pass

    print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
    for name, value, unit in result.report:
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status[name] = subprocess.run(cmd).returncode
    print(json.dumps({"exit_codes": status}))
    return 0 if not any(status.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
