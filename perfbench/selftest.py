#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, at tiny sizes.

  python3 perfbench/selftest.py

Runs every workload shrunk (perfbench/workloads.py, tiny=True) through both
passes, checks that every metric BENCHMARK.json names prints with its unit,
and then tampers with genuine reports to see each output check fire:
conservation off by one, a digest mismatch, ok:false, a nonzero exit and a
wrong platform_builds. A failing probe and a spent time budget must each
count as a failed run and still give a result. Exits 0 only when every expectation holds.
"""

import contextlib
import io
import json
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout but .bench_build/
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    cli, probe = run.build()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reports = {}
    for name in workloads.WORKLOADS:
        for trace, measure, listed in ((0, run.measure_end_to_end, bench["end_to_end"]),
                                       (1, run.measure_traced, bench["per_layer"])):
            result = measure(name, SEED, 0.5, cli, probe, tiny=True)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                run.print_result(result)
            summary = result.summary()
            expect(result.correct, f"{name} trace={trace}: tiny run passes its checks "
                                   f"{result.problems[:3]}")
            for metric in listed:
                got = summary["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and metric["name"] in printed.getvalue(),
                       f"{name} trace={trace}: {metric['name']} prints with unit "
                       f"{metric['unit']}")
            expect(set(summary["metrics"]) == {m["name"] for m in listed},
                   f"{name} trace={trace}: result carries exactly the listed metrics")
            if not trace:
                for extra in ("peak_rss_mb", "runs_failed"):
                    expect(extra in printed.getvalue(), f"{name}: {extra} prints")
            else:
                for count, (unit, _, _) in run.LAYER_COUNTS.items():
                    expect(any(count in line and unit in line for line in result.lines),
                           f"{name} trace=1: layer count {count} prints with unit {unit}")
            reports[name] = result.data

    def tampered(data, edit):
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()

    def fires(problems, needle):
        return any(needle in p for p in problems)

    steady = reports["steady"]
    expect(checks.check_run(0, steady, steady) == [], "genuine steady report passes")
    bumped = tampered(steady, lambda d: d["report"].__setitem__(
        "admitted_requests", d["report"]["admitted_requests"] + 1))
    expect(fires(checks.check_run(0, bumped, None), "completed + dropped + shed"),
           "conservation check fires on admitted + 1")
    expect(fires(checks.check_run(0, steady + b" ", steady), "digest"),
           "digest check fires on a one-byte change")
    expect(fires(checks.check_run(0, tampered(steady, lambda d: d.__setitem__("ok", False)),
                                  None), "ok is not true"),
           "ok check fires on ok:false")
    expect(fires(checks.check_run(1, steady, None), "exit code"),
           "exit-code check fires on exit 1")
    expect(fires(checks.check_run(0, b"{truncated", None), "not JSON"),
           "parse check fires on a truncated report")

    chaos = reports["chaos"]
    shed = tampered(chaos, lambda d: d[1]["report"]["faults"].__setitem__(
        "shed_requests", d[1]["report"]["faults"]["shed_requests"] + 1))
    expect(fires(checks.check_run(0, shed, None), "lite-chaos-day"),
           "conservation check fires on the second report of a batch (shed + 1)")

    fleet = reports["fleet_grid"]
    builds = tampered(fleet, lambda d: d["report"].__setitem__(
        "platform_builds", d["report"]["platform_builds"] + 1))
    expect(fires(checks.check_run(0, builds, None), "platform_builds"),
           "platform-sharing check fires on platform_builds + 1")

    # Failures of the harness itself still yield a result line, counted as
    # failed: a probe that exits nonzero (the CLI stands in for it), and a
    # budget too small for a single run.
    broken = run.measure_end_to_end("steady", SEED, 0.5, cli, cli, tiny=True)
    expect(not broken.correct and broken.failed == broken.attempted == 2
           and "failed" in json.dumps(broken.summary()),
           "a failing probe counts as failed runs and still gives a result")
    budget = run.BUDGET_S
    run.BUDGET_S = 0.5
    try:
        starved = run.measure_traced("steady", SEED, 0.5, cli, probe, tiny=True)
    finally:
        run.BUDGET_S = budget
    expect(not starved.correct and starved.failed >= 1
           and any("budget" in p for p in starved.problems),
           "a spent budget counts as a failed run")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BuildError as e:
        print(f"selftest: {e}", file=sys.stderr)
        sys.exit(2)
