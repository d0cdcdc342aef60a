#!/usr/bin/env python3
"""Host-speed benchmark of the Agilla reproduction: one command.

    python3 perfbench/run.py               # every workload, timed + traced
    python3 perfbench/run.py --workload fire_mesh --seed 3 --trace 0
    python3 perfbench/run.py --self-test   # the benchmark's own math tests

Run from the repository root. The first call configures and builds
perfbench/ (Release, against src/) under .bench_build/ (or
$CARGO_TARGET_DIR); later calls reuse the build. With --workload the last
line of stdout is one JSON object: correct, attempted, failed, and the
metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). Exit status is non-zero on a build failure or any correctness
violation. See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fire_mesh", "agent_swarm", "gateway_clients")
RUN_TIMEOUT_S = 175


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the Release build up to date."""
    out = os.path.join(build_root(), "perfbench")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out


def fingerprint(result):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True)
        rev = git.stdout.strip() or rev
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "compiler": result.get("compiler"),
            "build_type": result.get("build_type"), "git_rev": rev}


def run_workload(out, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed result object."""
    results = os.path.join(build_root(), "results")
    spans = os.path.join(build_root(), "spans")
    os.makedirs(results, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(out, "agilla_perf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--agents", os.path.join(HERE, "agents"),
           "--spans-out",
           os.path.join(spans, "%s-seed%d.txt" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    result["host"] = fingerprint(result)
    result["exit_code"] = proc.returncode
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(result, f, indent=2)
    return result


def print_table(result):
    host = result["host"]
    print("== %s  seed %d  %s  reps %d%s  digest %s" % (
        result["workload"], result["seed"],
        "traced" if result["trace"] else "timed", result["reps"],
        " + %d traced" % result["traced_reps"] if result["trace"] else "",
        result["digest"]))
    print("   host: %s, nproc %s, %s, %s, rev %s" % (
        host["cpu"], host["nproc"], host["compiler"], host["build_type"],
        host["git_rev"]))
    loops = sorted(result["rep_loop_s"])
    print("   loop host time: composite %.3f s; repetitions %.3f / %.3f / "
          "%.3f s (min / median / max)" % (
              result["composite_loop_s"], loops[0], loops[len(loops) // 2],
              loops[-1]))
    for section in ("end_to_end", "per_layer"):
        for name, m in result.get(section, {}).items():
            print("   %-28s %16.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                                 m["samples"]))
    print("   fail_frac = %d / %d" % (result["fail_ops"],
                                      result["fail_attempts"]))
    for v in result["violations"]:
        print("   VIOLATION: " + v)


def contract_line(result, names):
    """The driver's last line: exactly the metrics BENCHMARK.json names."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {}
    for name in names:
        m = result.get(section, {}).get(name)
        if m is None:
            fail("%s did not report %s" % (result["workload"], name))
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    correct = result["correct"] and result["exit_code"] == 0
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def self_test(out):
    test = os.path.join(out, "bench_math_test")
    if not os.path.exists(test):
        print("perfbench: GTest not installed; math tests not built",
              file=sys.stderr)
        return True
    return subprocess.run([test], stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out = build()
    if args.self_test:
        sys.exit(0 if self_test(out) else 1)
    if args.workload:
        result = run_workload(out, args.workload, args.seed, args.seconds,
                              args.trace)
        print_table(result)
        line = contract_line(result, metric_names(args.trace))
        print(line)
        sys.exit(0 if json.loads(line)["correct"] else 1)

    # The whole suite: math tests, then each workload timed and traced.
    ok = self_test(out)
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(out, workload, args.seed, args.seconds,
                                  trace)
            print_table(result)
            ok = ok and result["correct"] and result["exit_code"] == 0
            summary["%s/%s" % (workload, "traced" if trace else "timed")] = (
                json.loads(contract_line(result, metric_names(trace))))
    print(json.dumps({"correct": ok, "runs": summary}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
