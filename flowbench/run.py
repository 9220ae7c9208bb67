#!/usr/bin/env python3
"""End-to-end flow benchmark launcher (see README.md next to this file).

    python3 flowbench/run.py --workload paper_flow --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Builds the library and the benchmark from
source into .bench_build/, runs one workload in one process, and prints, as
the last line of standard output, one JSON object with exactly the keys
correct, attempted, failed and metrics. The line before it is the run
record: tree hash, seed, worker count and SYMBAD_* configuration, plus the
tail percentile, sample count and host probe of the run.

The untraced run (--trace 0) measures the end-to-end metrics at the default
SYMBAD_OBS=1; the traced run (--trace 1) sets SYMBAD_OBS=2 and reports the
per-layer metrics. Both refuse to start when any SYMBAD_* variable is set,
so every measurement runs under the same configuration.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# Budget for one run, and for the first run of a checkout, which builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def fail(message):
    print("flowbench: " + message, file=sys.stderr)
    sys.exit(1)


def gitignore_patterns():
    path = os.path.join(ROOT, ".gitignore")
    patterns = [".git/", ".bench_build/"]
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#") and not line.startswith("!"):
                    patterns.append(line)
    return patterns


def ignored(rel, is_dir, patterns):
    name = os.path.basename(rel)
    for pattern in patterns:
        dir_only = pattern.endswith("/")
        pat = pattern.rstrip("/")
        if dir_only and not is_dir:
            continue
        if "/" in pat:
            if fnmatch.fnmatch(rel, pat.lstrip("/")):
                return True
        elif fnmatch.fnmatch(name, pat):
            return True
    return False


def tree_hash(directory, rel, patterns):
    """Git's tree object id of `directory`, skipping what .gitignore names."""
    entries = []
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        sub = name if not rel else rel + "/" + name
        if os.path.islink(path):
            target = os.readlink(path).encode()
            blob = hashlib.sha1(b"blob %d\0" % len(target) + target).digest()
            entries.append((name.encode(), b"120000", blob))
        elif os.path.isdir(path):
            if ignored(sub, True, patterns):
                continue
            digest = tree_hash(path, sub, patterns)
            if digest is not None:
                entries.append((name.encode() + b"/", b"40000", digest))
        elif not ignored(sub, False, patterns):
            with open(path, "rb") as f:
                data = f.read()
            mode = b"100755" if os.access(path, os.X_OK) else b"100644"
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((name.encode(), mode, blob))
    if not entries:
        return None
    body = b""
    for key, mode, digest in sorted(entries):
        body += mode + b" " + key.rstrip(b"/") + b"\0" + digest
    return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    binary = os.path.join(BUILD_DIR, "flowbench", "flow_bench")
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    configure = ["cmake", "-S", BENCH_DIR, "-B", os.path.join(BUILD_DIR, "flowbench"),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in (configure,
                    ["cmake", "--build", os.path.join(BUILD_DIR, "flowbench"), "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: .bench_build/build.log)")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_flow", "fault_grading", "explore_campaign"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.monotonic()

    knobs = sorted(k for k in os.environ if k.startswith("SYMBAD_"))
    if knobs:
        fail("refusing to run with SYMBAD_* set (" + ", ".join(knobs) +
             "): both commits must be measured under the default configuration")

    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "flowbench", "flow_bench"))
    binary = build()
    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    if args.trace:
        env["SYMBAD_OBS"] = "2"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--golden", os.path.join(BENCH_DIR, "golden")]
    limit = (BUILD_RUN_LIMIT_S if fresh else RUN_LIMIT_S) - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(limit, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded its time limit")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    full = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    digest = tree_hash(ROOT, "", gitignore_patterns())
    record = {
        "tree_hash": digest.hex() if digest else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": full["workers"],
        "config": {k: v for k, v in sorted(env.items()) if k.startswith("SYMBAD_")},
        "tail_percentile": full["tail_percentile"],
        "samples": full["samples"],
        "host_probe_ms": full["host_probe_ms"],
        "result": {k: full[k] for k in RESULT_KEYS},
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print("record " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps({k: full[k] for k in RESULT_KEYS}))


if __name__ == "__main__":
    main()
