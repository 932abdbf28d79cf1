"""Benchmark workloads: a generated experiment config plus the stages to run.

Each workload isolates different layers of prefetchlab; README.md beside this
file records why each one exists. The workload seed becomes the config's
``seed``; the program under test sees nothing but the generated config.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    config: dict
    # stage whose wall time simulated accesses are divided by
    sim_stage: str


# Rule-prefetcher regions for rules-llc: +1, +4 and +9 walks over 4096 pages
# each, plus a 2-page region of +1 walks that the LRU cache keeps hot. This mix
# gives every rule prefetcher useful prefetches and a baseline miss rate near
# 75%, so both the hit and the miss path of the simulator run.
RULES_REGIONS = [
    {"start_page": 0x10000, "pages": 4096, "walk": [1] * 6},
    {"start_page": 0x20000, "pages": 4096, "walk": [4] * 6},
    {"start_page": 0x30000, "pages": 4096, "walk": [9] * 6},
    {"start_page": 0x40000, "pages": 2, "walk": [1] * 6},
]

def stride_pipeline(seed: int, smoke: bool) -> Workload:
    """The README's minimal config, shortened, with early stopping off."""
    cfg = {
        "seed": seed,
        "trace": {"source": "generate",
                  "pattern": {"name": "stride", "stride": 3, "cycle_step": 25},
                  "length": 1500 if smoke else 2000},
        "model": {"hidden_dim": 32, "num_heads": 2, "num_layers": 1, "history_len": 9},
        # patience off: a seed-dependent early stop would change the work done
        "train": {"max_epochs": 2 if smoke else 12, "batch_size": 256, "patience": None},
        "eval_modes": [{"mode": "delta"}, {"mode": "page_offset"}],
        "simulate": {"prefetchers": ["model", "next_line", "stride", "best_offset"]},
    }
    stages = ("gen", "preprocess", "train", "tune", "eval", "simulate", "report")
    return Workload("stride-pipeline", stages, cfg, "simulate")


def latency_sweep(seed: int, smoke: bool) -> Workload:
    """The paper's default model dims over a latency x throughput x distance grid."""
    cfg = {
        "seed": seed,
        "trace": {"source": "generate",
                  "pattern": {"name": "stride", "stride": 3, "cycle_step": 25},
                  "length": 200 if smoke else 300},
        "model": {"hidden_dim": 128, "num_heads": 4, "num_layers": 2, "history_len": 9},
        "train": {"max_epochs": 2, "batch_size": 256, "patience": None},
        "label": {"look_forward": 32},
        "cache": {"sets": 32, "ways": 8},
        "sweep": {"latencies": [0, 200], "throughputs": ["L", "H"], "distance": [True, False]},
    }
    return Workload("latency-sweep", ("gen", "sweep"), cfg, "sweep")


def rules_llc(seed: int, smoke: bool) -> Workload:
    """Rule prefetchers only, triggered on misses, over a long region-walk trace."""
    cfg = {
        "seed": seed,
        "trace": {"source": "generate",
                  "pattern": {"name": "region_walks", "regions": RULES_REGIONS},
                  "length": 5000 if smoke else 100000},
        "trigger_stream": "miss",
        "simulate": {"prefetchers": ["next_line", "stride", "best_offset"]},
    }
    return Workload("rules-llc", ("gen", "simulate"), cfg, "simulate")


WORKLOADS = {
    "stride-pipeline": stride_pipeline,
    "latency-sweep": latency_sweep,
    "rules-llc": rules_llc,
}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
