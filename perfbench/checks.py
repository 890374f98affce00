"""Output checks on `litegpu run --json` reports, and the simulated
statistics the benchmark prints for exact comparison between commits.

Every check returns a list of problems; an empty list means the run passed.
A run with any problem counts toward `runs_failed`.
"""

import hashlib
import json


def digest(data):
    return hashlib.sha256(data).hexdigest()


def reports(doc):
    """The per-scenario reports of one run: a batch is a JSON array."""
    return doc if isinstance(doc, list) else [doc]


def _conservation(report):
    # docs/reports.md: admitted = completed + dropped + shed, exactly.
    body = report["report"]
    faults = body.get("faults", {})
    admitted = body["admitted_requests"]
    accounted = (body["completed_requests"] + faults.get("dropped_requests", 0)
                 + faults.get("shed_requests", 0))
    if admitted != accounted:
        return [f"{report['scenario']}: admitted {admitted} != completed + dropped + shed "
                f"{accounted}"]
    return []


def _platform_builds(report):
    body = report["report"]
    parts = {c["gpu"] for c in body["candidates"]}
    if body["platform_builds"] != len(parts):
        return [f"{report['scenario']}: platform_builds {body['platform_builds']} != "
                f"{len(parts)} distinct resolved parts"]
    return []


def check_run(exit_code, data, reference):
    """Checks one run: exit 0, ok:true everywhere, conservation on every
    serve report, platform sharing on fleet-compare, and byte identity with
    `reference` (the --threads 1 report) when one is given."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(data)
    except ValueError:
        return problems + ["report is not JSON"]
    for report in reports(doc):
        try:
            if report.get("ok") is not True:
                problems.append(f"{report.get('scenario')}: ok is not true")
            elif report["study"] == "serve":
                problems += _conservation(report)
            elif report["study"] == "fleet-compare":
                problems += _platform_builds(report)
        except (AttributeError, KeyError, TypeError) as e:
            problems.append(f"malformed report: missing or mistyped {e}")
    if reference is not None and data != reference:
        problems.append(f"report digest {digest(data)[:16]} != reference "
                        f"{digest(reference)[:16]}")
    return problems


def simulated_stats(doc):
    """Deterministic simulated numbers, keyed by scenario. They are printed
    and compared exactly between commits, never scored: any drift is a
    change in what the program computes, not in how fast."""
    stats = {}
    for report in reports(doc):
        body = report.get("report", {})
        if report.get("study") == "serve":
            row = {
                "admitted": body["admitted_requests"],
                "completed": body["completed_requests"],
                "goodput_tokens_per_s": body["goodput_tokens_per_s"],
                "ttft_p99_s": body["latency"]["ttft_p99_s"],
                "tbt_p99_s": body["latency"]["tbt_p99_s"],
                "capacity_agreement": body["capacity_agreement"],
            }
            faults = body.get("faults")
            if faults is not None and "events" in faults:
                row["fault_events"] = len(faults["events"])
                row["lost_tokens"] = faults["lost_tokens"]
                row["goodput_ratio"] = faults["goodput_ratio"]
            stats[report["scenario"]] = row
        elif report.get("study") == "fleet-compare":
            candidates = body["candidates"]
            winner = body["winner_index"]
            stats[report["scenario"]] = {
                "knees": {
                    c["name"]: [c["knee"]["load"], c["economics"]["usd_per_mtoken"]]
                    if c["feasible"] else None
                    for c in candidates
                },
                "winner": candidates[winner]["name"] if winner >= 0 else None,
            }
    return stats


def admitted_requests(doc):
    return sum(r["report"]["admitted_requests"] for r in reports(doc)
               if r.get("study") == "serve")
