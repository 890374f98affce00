#!/usr/bin/env python3
"""perfbench: `litegpu run` measured end to end and layer by layer.

Usage, from the root of a litegpu source tree:

  python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20

It builds the repository's CLI and the in-process probe (perfbench/probe.cc)
into .bench_build/perfbench, writes the workload's scenario file from the
seed, and then either

  --trace 0: runs `litegpu run <scenario> --json --threads 1` as one child
             process at a time for --seconds and reports the end-to-end
             metrics (run_s, setup_s, sim_requests_per_s; peak_rss_mb is
             printed but not gated), or
  --trace 1: runs the probe's traced pass for --seconds and reports the
             per-layer metrics, each next to the end-to-end metric and
             workload it should move.

Every run's report is checked (perfbench/checks.py). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; `failed / attempted` is runs_failed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout but .bench_build/
import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "work"

# One workload's measurement, its untimed reference run included, ends
# within this many seconds of its start: no child starts after it, and a
# running child is killed when it passes. A run cut short counts as failed.
# So a single-workload invocation ends inside 180 s once the build is done.
BUDGET_S = 160.0
# A spawned child's alarm fires this long before the driver would kill the
# probe that waits on it, so the probe still reaps it and reports.
SPAWN_GRACE_S = 3.0
MIN_RUNS = 3
# Timed runs use one thread: on a shared 4-vCPU host, 20 s medians of
# fleet_grid at 2 threads ranged 0.50-0.99 s against 0.85-1.02 s at 1. The
# pool is exercised by the untimed reference run, which must emit the same
# bytes, and measured by the traced pass's util.thread_pool.speedup.
POOL_THREADS = 2
# Set-up passes run in slices of at least this long between the timed runs,
# so both metrics sample the same stretch of host conditions.
SETUP_SLICE_S = 0.25

# name -> unit; definitions in perfbench/README.md. peak_rss_mb is printed
# beside these but not gated: on chaos it follows the seed's shed-log size.
END_TO_END = {"run_s": "s", "setup_s": "s", "sim_requests_per_s": "req/s"}

# name -> (unit, end-to-end metric it should move, workload where it shows).
# The scored per-layer metrics: times and ratios, the medians over passes.
PER_LAYER = {
    "core.scenario.parse_s": ("s", "setup_s", "all (small)"),
    "core.search.s": ("s", "setup_s, run_s", "fleet_grid; ~0 elsewhere"),
    "perf.cache.hit_rate": ("ratio", "setup_s", "fleet_grid"),
    "perf.table.build_s": ("s", "setup_s", "fleet_grid"),
    "serve.workload.gen_s": ("s", "setup_s, run_s, sim_requests_per_s", "steady"),
    "serve.workload.ns_per_request": ("ns/req", "setup_s, run_s, sim_requests_per_s",
                                      "steady"),
    "serve.sim.s": ("s", "run_s, sim_requests_per_s", "steady, fleet_grid"),
    "serve.sim.ns_per_request": ("ns/req", "run_s, sim_requests_per_s", "steady, fleet_grid"),
    "serve.sim.ns_per_output_token": ("ns/token", "run_s, sim_requests_per_s",
                                      "steady, fleet_grid"),
    "core.runner.residual_s": ("s", "run_s", "chaos, steady"),
    "util.json.emit_s": ("s", "run_s", "chaos, fleet_grid"),
    "util.thread_pool.speedup": ("x", "run_s", "fleet_grid, chaos; ~1 on steady"),
    "trace.overhead_s": ("s", "none", "all"),
}
# The layers' work counts. They are deterministic, so they are printed beside
# the scored metrics and compared exactly, like the simulated statistics:
# they must not differ between passes, and a change between commits is a
# change in what the program does, not in its speed.
LAYER_COUNTS = {
    "core.search.calls": ("count", "setup_s, run_s", "fleet_grid"),
    "perf.table.builds": ("count", "setup_s", "fleet_grid"),
    "serve.workload.requests": ("count", "setup_s, run_s, sim_requests_per_s", "steady"),
    "serve.sim.points": ("count", "run_s, sim_requests_per_s", "steady, fleet_grid"),
    "serve.faults.events": ("count", "run_s (cost per fault event)", "chaos; 0 elsewhere"),
    "serve.faults.retried": ("count", "run_s (cost per fault event)", "chaos; 0 elsewhere"),
    "serve.faults.shed": ("count", "run_s (cost per fault event)", "chaos; 0 elsewhere"),
    "serve.scale.events": ("count", "run_s (cost per fault event)", "chaos; 0 elsewhere"),
    "serve.scale.peak_decode_instances": ("count", "run_s (cost per fault event)",
                                          "chaos; 0 elsewhere"),
    "util.json.bytes": ("bytes", "run_s", "chaos, fleet_grid"),
}

MODEL_NOTE = ("note: the simulator is not validated against hardware; capacity_agreement "
              "(simulated goodput over the analytic capacity) is its only cross-check.")


class BuildError(Exception):
    pass


class ProbeError(Exception):
    """A probe or child that failed, overran the budget or printed no result."""


def build():
    """Configures once and builds the CLI and the probe; returns their paths."""
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src/core/runner.h").is_file()):
        raise BuildError(f"no litegpu source tree at {ROOT} (expected CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    commands = []
    if not (BUILD / "CMakeCache.txt").is_file():
        commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(BUILD), "--target", "litegpu_cli",
                     "perfbench_probe", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise BuildError("build failed:\n" + "\n".join(tail))
    return BUILD / "litegpu" / "litegpu", BUILD / "perfbench_probe"


def fingerprint():
    """What a result was measured on: nproc, compiler, build type, git describe."""
    compiler = "unknown"
    for path in sorted((BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split('"')[1]
        compiler = " ".join(fields.get(k, "?") for k in ("CMAKE_CXX_COMPILER_ID",
                                                          "CMAKE_CXX_COMPILER_VERSION"))
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    return {"nproc": os.cpu_count(), "compiler": compiler, "build_type": build_type,
            "git_describe": describe or "unavailable (not a git checkout)"}


def write_scenario(name, seed, tiny=False):
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}{'-tiny' if tiny else ''}-seed{seed}.json"
    path.write_text(json.dumps(workloads.WORKLOADS[name](seed, tiny), indent=1) + "\n")
    return path


class Run:
    def __init__(self, exit_code, wall_s, rss_kb, data):
        self.exit_code, self.wall_s, self.rss_kb, self.data = exit_code, wall_s, rss_kb, data


def run_cli(cli, probe, scenario, threads, deadline):
    """One `litegpu run` child with its report captured to a file. The probe
    forks it and times it from spawn to reap, with peak RSS from wait4."""
    out_path = WORK / (scenario.stem + ".report.json")
    alarm_s = int(deadline - time.monotonic() - SPAWN_GRACE_S)
    if alarm_s < 1:
        raise ProbeError(f"the {BUDGET_S:g} s budget is spent")
    out = run_probe(probe, deadline, "spawn", alarm_s, out_path, cli, "run", scenario,
                    "--json", "--threads", threads)
    return Run(out["exit_code"], out["wall_s"], out["maxrss_kb"], out_path.read_bytes())


def run_probe(probe, deadline, *args):
    """Runs the probe to completion before `deadline`; returns its parsed
    JSON line."""
    left = deadline - time.monotonic()
    if left < 1:
        raise ProbeError(f"the {BUDGET_S:g} s budget is spent")
    try:
        done = subprocess.run([str(probe), *map(str, args)], capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise ProbeError(f"probe {args[0]} overran the {BUDGET_S:g} s budget") from None
    except OSError as e:
        raise ProbeError(f"probe {args[0]} did not start: {e}") from None
    if done.returncode != 0:
        raise ProbeError(f"probe {args[0]} exited {done.returncode}: {done.stderr.strip()}")
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        raise ProbeError(f"probe {args[0]} printed no result") from None


def tail_note(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{pct:g} {cut[int(pct * 10) - 1]:.6g}"
    return f"no tail percentile (needs >= 100 samples, have {len(samples)})"


def reference_run(cli, probe, scenario, threads, deadline):
    """The untimed run every other run's report must match byte for byte.
    Returns (reference data or None, problems)."""
    try:
        reference = run_cli(cli, probe, scenario, threads, deadline)
    except ProbeError as e:
        return None, [f"reference run: {e}"]
    return reference.data, [f"reference run: {p}" for p in
                            checks.check_run(reference.exit_code, reference.data, None)]


def parse_report(data):
    try:
        return json.loads(data)
    except (TypeError, ValueError):
        return None


def measure_end_to_end(name, seed, seconds, cli, probe, tiny=False):
    deadline = time.monotonic() + BUDGET_S
    scenario = write_scenario(name, seed, tiny)
    # The reference runs through the thread pool. It also warms the page
    # cache for the timed runs.
    reference, problems = reference_run(cli, probe, scenario, POOL_THREADS, deadline)
    attempted, failed = 1, int(bool(problems))
    runs = []
    setup_times = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        attempted += 1
        try:
            run = run_cli(cli, probe, scenario, 1, deadline)
            runs.append(run)
            run_problems = checks.check_run(run.exit_code, run.data, reference)
            setup = run_probe(probe, deadline, "setup", scenario, SETUP_SLICE_S)
            setup_times += setup["setup_s"]
        except ProbeError as e:
            # Out of budget, or the probe failed: every later run would too.
            failed += 1
            problems.append(f"run {attempted - 1}: {e}")
            break
        failed += int(bool(run_problems))
        problems += [f"run {attempted - 1}: {p}" for p in run_problems]

    doc = parse_report(reference)
    if not (runs and setup_times):
        return Result(name, {}, attempted, failed, problems, [], reference, doc)
    walls = [r.wall_s for r in runs]
    run_s = statistics.median(walls)
    try:
        sim_requests = checks.admitted_requests(doc) or setup["requests"]
    except (KeyError, TypeError):
        sim_requests = setup["requests"]
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setup_times),
        "sim_requests_per_s": sim_requests / run_s,
    }
    rows = [
        ("run_s", run_s, "s", len(runs), f"median; {tail_note(walls)}"),
        ("setup_s", metrics["setup_s"], "s", len(setup_times),
         f"median of set-up passes; {setup['streams']} streams, {setup['parts']} parts, "
         f"{setup['derives']} derived"),
        ("sim_requests_per_s", metrics["sim_requests_per_s"], "req/s", len(runs),
         f"{sim_requests} requests / run_s"),
        ("peak_rss_mb", statistics.median(r.rss_kb for r in runs) / 1024.0, "MB", len(runs),
         "median ru_maxrss; printed, not gated"),
        ("runs_failed", failed / attempted, "fraction", attempted,
         f"failed / attempted, incl. the --threads {POOL_THREADS} reference"),
    ]
    lines = [f"{'metric':<22}{'value':>16}  {'unit':<9}{'n':>6}  note"]
    lines += [f"{m:<22}{v:>16.6g}  {u:<9}{n:>6}  {note}" for m, v, u, n, note in rows]
    return Result(name, metrics, attempted, failed, problems, lines, reference, doc)


def measure_traced(name, seed, seconds, cli, probe, tiny=False):
    deadline = time.monotonic() + BUDGET_S
    scenario = write_scenario(name, seed, tiny)
    reference, problems = reference_run(cli, probe, scenario, 1, deadline)
    attempted, failed = 1, int(bool(problems))
    report_out = WORK / (scenario.stem + ".probe-report.json")
    spans_out = WORK / (scenario.stem + ".spans.json")
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        attempted += 1
        try:
            out = run_probe(probe, deadline, "trace", scenario, POOL_THREADS, report_out,
                            spans_out)
        except ProbeError as e:
            failed += 1
            problems.append(f"trace pass {len(passes) + 1}: {e}")
            break
        pass_problems = [f"{c['name']}: {c['detail']}" for c in out["checks"] if not c["ok"]]
        if report_out.read_bytes() != reference:
            pass_problems.append("in-process report bytes differ from the CLI's")
        failed += int(bool(pass_problems))
        problems += [f"trace pass {len(passes) + 1}: {p}" for p in pass_problems]
        passes.append(out["metrics"])
    metrics = {}
    header = f"{'metric':<36}{'value':>14}  {'unit':<9}{'moves':<38}workload"
    lines = [header]
    for metric, (unit, moves, where) in PER_LAYER.items():
        values = [p[metric] for p in passes if metric in p]
        if not values:
            problems.append(f"per-layer metric {metric} missing")
            continue
        metrics[metric] = statistics.median(values)
        lines.append(f"{metric:<36}{metrics[metric]:>14.6g}  {unit:<9}{moves:<38}{where}")
    lines.append(f"(median of {len(passes)} traced pass(es); "
                 f"spans in {spans_out.relative_to(ROOT)})")
    lines += ["layer counts (exact; compared between commits, not scored):", header]
    for metric, (unit, moves, where) in LAYER_COUNTS.items():
        values = {p[metric] for p in passes if metric in p}
        if len(values) != 1:
            problems.append(f"layer count {metric} is {sorted(values) or 'missing'} "
                            f"across passes, not one value")
            continue
        lines.append(f"{metric:<36}{values.pop():>14}  {unit:<9}{moves:<38}{where}")
    return Result(name, metrics, attempted, failed, problems, lines, reference,
                  parse_report(reference))


class Result:
    def __init__(self, workload, metrics, attempted, failed, problems, lines, data, doc):
        self.workload, self.metrics = workload, metrics
        self.attempted, self.failed, self.problems = attempted, failed, problems
        self.lines, self.data, self.doc = lines, data, doc

    @property
    def correct(self):
        return not self.problems and self.failed == 0

    def summary(self):
        units = {**END_TO_END, **{k: v[0] for k, v in PER_LAYER.items()}}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def print_result(result):
    print(f"== workload {result.workload} ==")
    for line in result.lines:
        print(line)
    if result.data is not None:
        print(f"report digest: sha256 {checks.digest(result.data)}")
    if result.doc is not None:
        print("simulated statistics (exact; compared between commits, not scored):")
        try:
            for scenario, stats in checks.simulated_stats(result.doc).items():
                print(f"  {scenario}: {json.dumps(stats, sort_keys=True)}")
        except (KeyError, TypeError, IndexError) as e:
            result.problems.append(f"report lacks simulated statistics: {e}")
    print(MODEL_NOTE)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        # Workloads derive seeds from it (chaos: 4*seed+3); all must stay
        # below 2^53 to survive the JSON scenario exactly.
        parser.error("--seed must be in [0, 2^32)")

    try:
        cli, probe = build()
    except BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    measure = measure_traced if args.trace else measure_end_to_end
    print(f"perfbench: seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:  # each within its own BUDGET_S
        result = measure(name, args.seed, args.seconds, cli, probe)
        print_result(result)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0].summary()))
        return 0 if results[0].correct else 1
    # --workload all: every metric of every workload, then a combined line.
    print("== all workloads ==")
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    for metric, unit in units.items():
        cells = "  ".join(f"{r.workload}={r.metrics.get(metric, float('nan')):.6g}"
                          for r in results)
        print(f"{metric:<36}{unit:<9}{cells}")
    combined = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {f"{r.workload}.{k}": v for r in results
                    for k, v in r.summary()["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
