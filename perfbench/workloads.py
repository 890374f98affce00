"""The benchmark's workloads: scenario files generated from a seed.

Each workload is a function of (seed, tiny) returning the scenario document
that `litegpu run` receives. The seed is written into every scenario
(`serve.seed` / `fleet.seed`); nothing else about the inputs depends on it.
`tiny` shrinks a workload for the benchmark's self-test only.

Simulated arrivals are open-loop everywhere: they follow a seeded schedule in
simulated time and do not depend on how fast requests are served.
"""

MODEL = "Llama3-70B"


def steady(seed, tiny=False):
    # Why: the fast event-loop path (calendar queue, SoA state, completion
    # heaps) and workload generation do almost all the work. Faults, the
    # autoscaler, search and the thread pool do none. One serve study of
    # Llama3-70B on Lite+MemBW with 32 decode instances, stationary Poisson
    # arrivals at load 0.9 and lognormal lengths (sigma 0.5); the 3000 s
    # horizon admits about 4.9M requests.
    scenario = {
        "name": "steady",
        "study": "serve",
        "models": [MODEL],
        "gpus": ["Lite+MemBW"],
        "serve": {
            "load": 0.9,
            "horizon_s": 20 if tiny else 3000,
            "decode_instances": 4 if tiny else 32,
            "prompt_sigma": 0.5,
            "output_sigma": 0.5,
            "seed": seed,
        },
    }
    return scenario


def _chaos_day(name, gpu, seed, horizon_s):
    # The serve_chaos example's day: a 3-class diurnal mix under a reactive
    # autoscaler, failure domains, degraded states, shedding and retries.
    return {
        "name": name,
        "study": "serve",
        "models": [MODEL],
        "gpus": [gpu],
        "serve": {
            "load": 0.55,
            "horizon_s": horizon_s,
            "decode_instances": 1,
            "seed": seed,
            "arrival": {
                "kind": "diurnal",
                "period_s": 0,
                "multipliers": [0.35, 0.7, 1.3, 1.6, 1.1, 0.5],
            },
            "autoscaler": {
                "policy": "reactive",
                "interval_s": 5,
                "delay_s": 8,
                "min_decode_instances": 1,
                "max_decode_instances": 48,
                "min_prefill_instances": 1,
                "max_prefill_instances": 16,
            },
            "faults": {
                "afr": 8000,
                "mttr_hours": 0.02,
                "spare_activation_minutes": 0.1,
                "hot_spares": 2,
                "retry_policy": "retry",
                "domain_gpus": 16,
                "domain_afr": 40000,
                "domain_mttr_hours": 0.01,
                "degrade_afr": 30000,
                "degrade_multiplier": 1.8,
                "degrade_minutes": 0.5,
                "shed_queue_depth": 8,
                "shed_ttft_deadline_s": 2,
            },
            "classes": [
                {"name": "chat", "weight": 0.6, "prompt_tokens": 1500,
                 "output_tokens": 256, "ttft_slo_s": 1.0, "tbt_slo_s": 0.05},
                {"name": "batch-summarize", "weight": 0.25, "prompt_tokens": 4000,
                 "prompt_sigma": 0.4, "output_tokens": 900, "output_sigma": 0.3,
                 "ttft_slo_s": 8.0, "tbt_slo_s": 0.2},
                {"name": "rag", "weight": 0.15, "prompt_tokens": 8000,
                 "output_tokens": 128, "ttft_slo_s": 3.0, "tbt_slo_s": 0.05},
            ],
        },
    }


def chaos(seed, tiny=False):
    # Why: the fault-enabled path does the work: `exact_slots` slot arrays,
    # requeue, the fault-free baseline twin, and the JSON fault and shed
    # logs. Host cost per simulated request is over 100x that of `steady`
    # and grows faster than the horizon. The serve_chaos pair (H100 against
    # Lite) at twice the example's 240 s horizon, four times over with seeds
    # 4*seed to 4*seed+3: one fault realisation's cost swings by about
    # +-20% with the seed, four average that down.
    replicas, horizon_s = (1, 60) if tiny else (4, 480)
    scenarios = []
    for i in range(replicas):
        day_seed = seed * replicas + i
        scenarios += [
            _chaos_day(f"h100-chaos-day-{i}", "H100", day_seed, horizon_s),
            _chaos_day(f"lite-chaos-day-{i}", "Lite+MemBW+NetBW", day_seed, horizon_s),
        ]
    return {"scenarios": scenarios}


def fleet_grid(seed, tiny=False):
    # Why: the same event loop used differently: more than a thousand short
    # simulations with one decode instance each, instead of one long run,
    # plus 57 platform builds, knee and economics work, the pool fan-out and
    # a large report. A change that trades per-run set-up cost for per-event
    # speed wins on `steady` and loses here.
    bases = ["H100", "B200", "A100"]
    splits = [2, 4, 8]
    mem = [1.0, 1.5, 2.0]
    net = [1.0, 2.0]
    loads = [round(0.05 * i, 2) for i in range(1, 21)]
    horizon_s = 60
    if tiny:
        bases, splits, mem, net = ["H100"], [4], [1.0, 2.0], [1.0]
        loads, horizon_s = [0.25, 0.5, 0.75, 1.0], 10
    candidates = []
    for base in bases:
        candidates.append({"name": base, "gpu": base})
        for split in splits:
            for m in mem:
                for n in net:
                    candidates.append({
                        "name": f"{base}/{split}-m{m:g}-n{n:g}",
                        "gpu": base,
                        "split": split,
                        "mem_bw_multiplier": m,
                        "net_bw_multiplier": n,
                    })
    scenario = {
        "name": "fleet-grid",
        "study": "fleet-compare",
        "models": [MODEL],
        "fleet": {
            "candidates": candidates,
            "loads": loads,
            "horizon_s": horizon_s,
            "seed": seed,
        },
    }
    return scenario


WORKLOADS = {"steady": steady, "chaos": chaos, "fleet_grid": fleet_grid}
