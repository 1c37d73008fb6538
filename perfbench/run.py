#!/usr/bin/env python3
"""Build and run the repository benchmark (nemobench) hermetically.

    python3 perfbench/run.py --workload pingpong|fanin|collectives \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library and nemobench are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Every NEMO_* variable is scrubbed from the environment and NEMO_TUNE=0 is
set, so no ambient knob or tuning cache changes what is measured. The last
line of stdout is the result object; everything before it (build output
goes to stderr) is the human-readable report. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pingpong", "fanin", "collectives")
RUN_LIMIT_S = 170  # A run (after the build) must end well within 180 s.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def hermetic_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEMO_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("NEMO_"))
    env["NEMO_TUNE"] = "0"  # Formula tuning: no tuning cache is read.
    return env, scrubbed


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(env):
    """Configure (once) and build; returns the binary directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no nemo source tree at {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "nemobench",
                    "nemobench_selftest", "-j", jobs],
                   check=True, env=env, stdout=sys.stderr)
    return out


def source_digest():
    """sha256 over the library and benchmark sources (works without git)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = expected_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        missing = sorted(want - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - want)
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    env, scrubbed = hermetic_env()
    try:
        out = build(env)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "nemobench_selftest")],
                              env=env).returncode

    # The scrubbed names are printed with the rest of the provenance.
    cmd = [os.path.join(out, "nemobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(out, "out"),
           "--meta", "git.sha=" + git_sha(),
           "--meta", "src.sha256=" + source_digest(),
           "--meta", "env.scrubbed=" + (",".join(scrubbed) or "none")]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(RUN_LIMIT_S, kill)
    watchdog.start()
    # Hold back one line so the result can be checked before it is printed.
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        log("perfbench: run exceeded its time limit")
        return 1
    # On failure the held line goes to stderr: no result is printed.
    if code != 0 or last is None:
        log(f"{last or ''}perfbench: nemobench exited with {code}")
        return code or 1
    try:
        check_result(last, args.trace == 1)
    except (ValueError, KeyError) as e:
        log(f"{last}perfbench: malformed result: {e}")
        return 1
    sys.stdout.write(last)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
