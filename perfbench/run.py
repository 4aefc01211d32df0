#!/usr/bin/env python3
"""Benchmark of the wheels simulator, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds wheels_perf
(perfbench/CMakeLists.txt: the repository's src/ libraries plus the
benchmark's C++ side, Release) into .bench_build/. Every run then works in
its own directory under .bench_work/, removed at exit:

  set-up   wheels_perf generates the workload's inputs from --seed, several
           times, alternating with the passes; setup_s is the shortest.
  passes   one wheels_perf process per timed pass, until the passes' summed
           wall time would pass --seconds (at least min_passes). Each pass
           reports wall, CPU and peak RSS, then runs its output checks. A
           run reports each time figure of its best pass, and the median
           peak RSS.
  --trace 1  instead of passes, one traced run: a traced pass and the probe
           tour; reports the per-layer metrics.

The last line of standard output is the JSON result; lines before it are
for people: the host stamp, every metric with its unit, failed_frac.
BENCHMARK.json (at the checkout root) names the metrics, their units and
bounds; perfbench/README.md says what each one means and should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "wheels_perf")

# Per workload: how many set-ups to take the best of (the replay set-up is
# a full-scale campaign written to disk, so it runs fewest), and the fewest
# timed passes a run makes.
WORKLOADS = {
    "campaign": {"setups": 7, "min_passes": 3},
    "replay": {"setups": 2, "min_passes": 2},
    "emulate": {"setups": 5, "min_passes": 3},
    "service": {"setups": 5, "min_passes": 3},
}

# A latency tail needs at least this many samples beyond it.
TAIL_BEYOND = 10

# A run must end within 180 s of its start, not counting the build; a
# wheels_perf process still running at the deadline is killed and the run fails
# without a result.
RUN_LIMIT_S = 170
deadline = float("inf")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a wheels checkout root")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "wheels_perf"],
                   check=True, stdout=sys.stderr)


def wheels_perf(work, *args, echo=False):
    """Run one wheels_perf subcommand in `work`; the JSON object on its last
    stdout line, or None when it prints nothing."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before: wheels_perf " + " ".join(args))
    out = subprocess.run([BINARY, *args], cwd=work, check=True,
                         stdout=subprocess.PIPE, text=True,
                         timeout=remaining).stdout
    lines = out.strip().splitlines()
    if not lines:
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def flush_inputs(work):
    """fsync every input file, so the write-back of what set-up wrote (a
    190 MB bundle for replay) does not compete with the timed passes."""
    for dirpath, _, filenames in os.walk(work):
        for name in filenames:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def host_stamp():
    host = wheels_perf(ROOT, "host")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    # The checkout may not be a git repository: a digest of the sources the
    # binary was built from names the code either way.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    print("host: nproc={} build_type={} compiler={} commit={} "
          "source_sha256={}".format(host["nproc"], host["build_type"],
                                    host["compiler"], commit,
                                    digest.hexdigest()[:16]))


def latency_summary(samples):
    """(median, tail, label): the tail is the highest percentile with at
    least TAIL_BEYOND samples beyond it; the median when too few samples
    leave that percentile above it."""
    xs = sorted(samples)
    n = len(xs)
    p50 = statistics.median(xs)
    k = n - 1 - TAIL_BEYOND
    if k < 0 or xs[k] <= p50:
        return p50, p50, "the median: {} samples leave none above it with " \
            "{} beyond".format(n, TAIL_BEYOND)
    return p50, xs[k], "p{:.1f} of {} samples".format(100.0 * (k + 1) / n, n)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    host_stamp()

    work = os.path.join(WORK_ROOT, "{}-{}-{}".format(args.workload, args.seed,
                                                     os.getpid()))
    try:
        if args.trace:
            result = traced(work, args)
            declared = bench["per_layer"]
        else:
            result = untraced(work, args)
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    values, attempted, failed, failures = result
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail("wheels_perf reported no " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("{:<32} {:>18.6f} {}".format(m["name"], values[m["name"]],
                                           m["unit"]))
    for f in failures:
        print("FAILED: " + f)
    print("failed_frac {:.6f} ({} of {} failed)".format(
        failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def set_up(work, args, flush):
    """One set-up into an emptied `work`: its wall time, process start to
    exit. With `flush`, its output is fsynced, so a pass that follows does
    not share the machine with its write-back."""
    fresh_dir(work)
    t0 = time.perf_counter()
    wheels_perf(work, "setup", "--workload", args.workload, "--seed",
                str(args.seed))
    elapsed = time.perf_counter() - t0
    if flush:
        flush_inputs(work)
    return elapsed


def untraced(work, args):
    spec = WORKLOADS[args.workload]
    # Set-ups alternate with passes (any left over run after the last), so
    # both sample the whole run rather than one moment of it.
    setup_s = []
    passes = []
    while True:
        if len(setup_s) < spec["setups"]:
            setup_s.append(set_up(work, args, flush=True))
        passes.append(wheels_perf(work, "pass", "--workload", args.workload,
                                  "--index", str(len(passes)),
                                  "--deep-check", "1" if not passes else "0"))
        walls = [p["wall_s"] for p in passes]
        if (len(passes) >= spec["min_passes"] and
                sum(walls) + statistics.median(walls) > args.seconds):
            break
    while len(setup_s) < spec["setups"]:
        setup_s.append(set_up(work, args, flush=False))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.workload == "campaign":
        # The same seed and config must write the same bundle every pass.
        for p in passes[1:]:
            attempted += 1
            if p["digest"] != passes[0]["digest"]:
                failed += 1
                failures.append("bundle digest {} != first pass {}".format(
                    p["digest"], passes[0]["digest"]))

    # A time figure is the run's best: the host's speed wanders by up to
    # a third over tens of seconds, and the best pass of a run moves far
    # less from run to run than the median pass does.
    walls = [p["wall_s"] for p in passes]
    if args.workload == "service":
        summaries = [latency_summary(p["job_ms"]) for p in passes]
        p50 = min(s[0] for s in summaries)
        tail = min(s[1] for s in summaries)
        tail_label = summaries[0][2] + " per pass"
        per_s = [p["jobs_done"] / p["wall_s"] for p in passes]
    else:
        # A batch pass is one job.
        p50 = tail = min(walls) * 1e3
        tail_label = "a batch pass is one job: p50 and tail are its wall time"
        per_s = [1.0 / w for w in walls]
    print("set-up s: " + " ".join("{:.4f}".format(s) for s in setup_s))
    print("pass wall s: " + " ".join("{:.3f}".format(w) for w in walls))
    print("job latency tail: {}".format(tail_label))
    values = {
        "wall_s": min(walls),
        "cpu_s": min(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": min(setup_s),
        "job_p50_ms": p50,
        "job_tail_ms": tail,
        "jobs_per_s": max(per_s),
    }
    return values, attempted, failed, failures


def traced(work, args):
    fresh_dir(work)
    wheels_perf(work, "setup", "--workload", args.workload, "--seed",
                str(args.seed))
    flush_inputs(work)
    out = wheels_perf(work, "trace", "--workload", args.workload, "--seed",
                      str(args.seed), echo=True)
    return out["metrics"], out["attempted"], out["failed"], out["failures"]


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        fail("{} exited with {}".format(" ".join(map(str, e.cmd)),
                                        e.returncode))
    except subprocess.TimeoutExpired as e:
        fail("{} still running at the deadline".format(
            " ".join(map(str, e.cmd))))
