#!/usr/bin/env python3
"""The repository benchmark: `repro` timed from outside, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mem --seed 1 --seconds 15 --trace 0

The script builds the release `repro` binary and the traced replay
(`perfbench/layers`) from the tree it sits in, into `$CARGO_TARGET_DIR`
(default `.bench_build`). Scratch files go to `.bench_work`.

--trace 0 measures the end-to-end metrics. It runs `repro table1` at the
workload's scale several times (`setup_s`, the median), then the workload's
`repro` command, one process at a time, until `--seconds` have passed and at
least twice. Wall time, CPU time and peak RSS come from each child's own
rusage (`wait4`); the script never reads `repro`'s timing output. Each metric
is the median over the invocations.

--trace 1 measures the per-layer metrics. It runs the workload's `repro`
command once untraced (for `core.cpu_per_wall` and `trace.disk_mb`), then
`perfbench-layers`, which replays the workload's pipeline single-threaded
through each layer's entry points and records spans and allocation counts.

Every run is verified: exit code 0, no FAIL shape check, exactly the
workload's PASS count, and the same stdout digest as every other run of the
workload in this checkout. The traced replay verifies itself (equal slice and
file replay statistics). `repro` has no seed flag, so the timed runs use its
fixed population (seed 42); `--seed` seeds the traced replay's database and
query parameters.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

# Each workload: its `repro` arguments, the scale factor (None: repro's
# default 0.01), the PASS count a healthy run prints, and whether the run
# records streamed block files under a state dir.
WORKLOADS = {
    "sweep-mem": {
        "args": ["fig8", "fig9", "fig10", "fig11", "--jobs", "2"],
        "sf": None,
        "passes": 29,
        "state_dir": False,
    },
    "sweep-stream": {
        "args": ["fig8", "fig9", "--jobs", "2", "--trace-mode", "streamed"],
        "sf": "0.02",
        "passes": 16,
        "state_dir": True,
    },
    "reuse-warm": {
        "args": ["fig12", "--jobs", "2"],
        "sf": "0.02",
        "passes": 4,
        "state_dir": False,
    },
}

# `repro table1` repetitions per run; `setup_s` is their median.
SETUP_REPS = 7
# Timed invocations per run, at least (`wall_s` and friends are medians).
MIN_INVOCATIONS = 2
# Every process this script starts must have ended by then (seconds after
# the build), so that the run ends within its time limit.
RUN_LIMIT_S = 170.0
# Table 1 lists the seventeen read-only queries, one row each.
TABLE1_ROWS = 17


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """An invocation that did not pass verification."""


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `repro` and the traced replay; untimed."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dss-bench", "--bin", "repro"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "layers", "Cargo.toml"),
        ],
    ):
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        )
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise SystemExit(f"error: build failed: {' '.join(cmd)}")


def spawn(argv, out_path, deadline):
    """Runs `argv` to completion with stdout in `out_path`.

    Returns (exit code, wall seconds, CPU seconds, peak RSS in MB), the CPU
    and RSS read from the child's own rusage. A child still running at
    `deadline` (a `time.monotonic()` value) is killed.
    """
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    # ru_maxrss is in KiB on Linux; MB here are 10^6 bytes, as `repro` uses.
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def kill(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_digest(workload, kind, value):
    """Requires `value` to equal every earlier digest of this workload's
    `kind` of output recorded in this checkout; records the first one."""
    path = os.path.join(WORK, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = f"{workload}/{kind}"
    if key in known:
        if known[key] != value:
            raise Failure(f"{key}: stdout digest {value[:12]} differs from {known[key][:12]}")
        return
    known[key] = value
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def verify_repro(workload, code, out_path):
    """A healthy workload run: exit 0, no FAIL, exactly its PASS count."""
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    passes = len(re.findall(r"^\s*\[PASS\]", text, re.M))
    fails = len(re.findall(r"^\s*\[FAIL\]", text, re.M))
    want = WORKLOADS[workload]["passes"]
    if code != 0 or fails or passes != want:
        raise Failure(f"{workload}: exit {code}, {passes} PASS (want {want}), {fails} FAIL")
    check_digest(workload, "repro", digest(out_path))


def verify_setup(workload, code, out_path):
    with open(out_path, encoding="utf-8", errors="replace") as f:
        rows = len(re.findall(r"^  Q\d+ ", f.read(), re.M))
    if code != 0 or rows != TABLE1_ROWS:
        raise Failure(f"{workload} setup: exit {code}, {rows} table rows (want {TABLE1_ROWS})")
    check_digest(workload, "setup", digest(out_path))


def scale_args(workload):
    sf = WORKLOADS[workload]["sf"]
    return ["--sf", sf] if sf else []


def trace_bytes(state_dir):
    total = 0
    for dirpath, _, files in os.walk(state_dir):
        total += sum(
            os.path.getsize(os.path.join(dirpath, name)) for name in files if name.endswith(".trb")
        )
    return total


class Run:
    """Counts attempted and failed verifications across one benchmark run."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """Runs one verified step; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as e:
            self.failed += 1
            log(f"FAILED: {e}")
            return None

    def setup(self, workload, i):
        out = os.path.join(WORK, f"setup-{i}.out")
        code, wall, _, _ = spawn([repro_bin(), "table1"] + scale_args(workload), out, self.deadline)
        verify_setup(workload, code, out)
        return wall

    def repro(self, workload, i):
        """One timed invocation: (wall, cpu, rss MB, trace bytes on disk)."""
        spec = WORKLOADS[workload]
        argv = [repro_bin()] + spec["args"] + scale_args(workload)
        state = os.path.join(WORK, "state")
        shutil.rmtree(state, ignore_errors=True)
        if spec["state_dir"]:
            argv += ["--state-dir", state]
        out = os.path.join(WORK, f"repro-{i}.out")
        try:
            code, wall, cpu, rss = spawn(argv, out, self.deadline)
            disk = trace_bytes(state)
        finally:
            # Streamed state is ~0.7 GB per run: never leave it behind.
            shutil.rmtree(state, ignore_errors=True)
        log(f"{workload} #{i}: exit {code}, wall {wall:.3f} s, cpu {cpu:.3f} s, rss {rss:.1f} MB")
        verify_repro(workload, code, out)
        return wall, cpu, rss, disk

    def layers(self, workload, seed):
        out = os.path.join(WORK, "layers.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [
            layers_bin(),
            "--workload", workload,
            "--seed", str(seed),
            "--work", os.path.join(WORK, "layers"),
            "--out", out,
        ]
        try:
            code, _, _, _ = spawn(argv, os.path.join(WORK, "layers.log"), self.deadline)
        finally:
            shutil.rmtree(os.path.join(WORK, "layers"), ignore_errors=True)
        if code != 0 or not os.path.exists(out):
            raise Failure(f"{workload}: traced replay exited {code}")
        with open(out) as f:
            return json.load(f)["metrics"]


def repro_bin():
    return os.path.join(target_dir(), "release", "repro")


def layers_bin():
    return os.path.join(target_dir(), "release", "perfbench-layers")


def end_to_end(run, workload, seconds):
    setups = [run.attempt(run.setup, workload, i) for i in range(SETUP_REPS)]
    timed = []
    start = time.monotonic()
    while len(timed) < MIN_INVOCATIONS or time.monotonic() - start < seconds:
        # Start no invocation that would outlive the run's time limit.
        if timed and time.monotonic() + 1.5 * max(t[0] for t in timed) > run.deadline:
            break
        result = run.attempt(run.repro, workload, len(timed))
        if result is None:
            break
        timed.append(result)
    setups = [s for s in setups if s is not None] or [float("nan")]
    timed = timed or [(float("nan"),) * 4]
    return {
        "wall_s": statistics.median(t[0] for t in timed),
        "cpu_s": statistics.median(t[1] for t in timed),
        "peak_rss_mb": statistics.median(t[2] for t in timed),
        "setup_s": statistics.median(setups),
    }


def per_layer(run, workload, seed):
    untraced = run.attempt(run.repro, workload, 0)
    metrics = run.attempt(run.layers, workload, seed) or {}
    if untraced is not None:
        wall, cpu, _, disk = untraced
        metrics["core.cpu_per_wall"] = cpu / wall
        metrics["trace.disk_mb"] = disk / 1e6
    return metrics


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    for needed in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"error: {needed} not found: run from a checkout of the repository")
            return 2

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    build()
    run = Run(time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        values = per_layer(run, args.workload, args.seed)
    else:
        values = end_to_end(run, args.workload, args.seconds)

    metrics = {}
    for m in declared_metrics(args.trace):
        value = values.get(m["name"], float("nan"))
        if value != value:  # NaN: the step that measures it failed
            run.failed = max(run.failed, 1)
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    undeclared = set(values) - set(metrics)
    if undeclared:
        log(f"error: measured but not declared in BENCHMARK.json: {sorted(undeclared)}")
        return 1
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
