"""Per-layer numbers derived from one traced run, and the span-split checks.

``derive`` returns every per-layer metric the benchmark knows, including the
ones that exist only on some workloads (per prefetcher, per stage, per autodiff
op). ``PER_LAYER`` lists the subset that every workload defines; those are the
per-layer metrics in the result line and in BENCHMARK.json. Times of a layer a
workload never enters are left out of that subset; the layer shows there as a
zero count or a zero share of the wall.
"""

from __future__ import annotations

from tracing import AUTODIFF_OPS, PREFETCHER_CLASSES, SpanIndex, percentile, union_length

SIM_COUNTS = ("demand_accesses", "demand_misses", "baseline_misses", "prefetches_issued",
              "useful_prefetches", "late_prefetches", "useless_evicted",
              "dropped_triggers", "cold_start_triggers")
SIM_COUNT_NAMES = {"prefetches_issued": "issued", "useful_prefetches": "useful",
                   "late_prefetches": "late"}

# layer -> span names whose union is the layer's busy time
LAYER_SPANS = {
    "trace": ("trace.generate", "trace.write", "trace.read"),
    "datasets": ("datasets.build", "datasets.save", "datasets.load"),
    "model_train": ("model.train",),
    "model_predict_single": ("model.predict_single",),
    "model_predict_batched": ("model.predict_batched",),
    "throttle": ("throttle.tune",),
    "simulator": ("simulator.simulate",),
}

PER_LAYER = (
    ("trace.generate_s", "s", "lower"),
    ("trace.write_s", "s", "lower"),
    ("trace.read_s", "s", "lower"),
    ("trace.read_records_per_s", "records/s", "higher"),
    ("simulator.simulate_s", "s", "lower"),
    ("simulator.busy_union_s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.predict_s", "s", "lower"),
    ("simulator.accesses_per_s", "accesses/s", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.stage_self_s.gen", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    *((f"share.{layer}", "ratio", "lower") for layer in LAYER_SPANS),
    ("share.autodiff_fwd", "ratio", "lower"),
    ("share.autodiff_backward", "ratio", "lower"),
    ("datasets.samples", "count", "higher"),
    ("model.train_calls", "count", "lower"),
    ("model.epochs", "count", "lower"),
    ("model.steps", "count", "lower"),
    ("model.predict_single_calls", "count", "lower"),
    ("model.predict_batched_calls", "count", "lower"),
    ("autodiff.fwd_calls", "count", "lower"),
    *((f"sim.{SIM_COUNT_NAMES.get(c, c)}", "count",
       "higher" if c == "useful_prefetches" else "lower") for c in SIM_COUNTS),
    ("sim.late_per_issued", "ratio", "lower"),
    ("sim.useful_per_issued", "ratio", "higher"),
)


def report_prefetcher(key: str) -> str:
    """'sim_reports.json:stride' -> 'stride'; every sweep row is the model."""
    fname, name = key.split(":", 1)
    return "model" if fname == "sweep_reports.json" else name


def _sim_counts(out: dict, reports: list[dict], suffix: str):
    totals = {c: sum(r[c] for r in reports) for c in SIM_COUNTS}
    for c, v in totals.items():
        out[f"sim.{SIM_COUNT_NAMES.get(c, c)}{suffix}"] = (v, "count")
    issued = totals["prefetches_issued"]
    out[f"sim.late_per_issued{suffix}"] = (totals["late_prefetches"] / issued if issued else 0.0, "ratio")
    out[f"sim.useful_per_issued{suffix}"] = (totals["useful_prefetches"] / issued if issued else 0.0, "ratio")


def derive(index: SpanIndex, reports: dict, untraced_wall: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit)."""
    m: dict[str, tuple] = {}
    stage_spans = [s for s in index.spans if s.name.startswith("stage.")]
    wall = sum(s.dur for s in stage_spans)

    # trace
    read_s = index.total("trace.read")
    records = sum(s.attrs["records"] for s in index.named("trace.read"))
    m["trace.generate_s"] = (index.total("trace.generate"), "s")
    m["trace.write_s"] = (index.total("trace.write"), "s")
    m["trace.read_s"] = (read_s, "s")
    m["trace.read_records_per_s"] = (records / read_s if read_s else 0.0, "records/s")

    # features / labeling / datasets
    builds = index.named("datasets.build")
    feature_spans = [s for s in index.spans if s.name.startswith("features.")
                     and index.has_ancestor(s, "datasets.build")]
    lookups = index.counter_by_parent_name.get(("features.lookup", "datasets.build"), 0.0)
    m["datasets.build_s"] = (sum(s.dur for s in builds), "s")
    m["datasets.build_self_s"] = (sum(index.self_time(s) for s in builds), "s")
    m["features.s"] = (sum(s.dur for s in feature_spans) + lookups, "s")
    m["labeling.label_bitmaps_s"] = (index.total("labeling.label_bitmaps"), "s")
    m["datasets.save_s"] = (index.total("datasets.save"), "s")
    m["datasets.load_s"] = (index.total("datasets.load"), "s")
    m["datasets.samples"] = (sum(s.attrs["samples"] for s in builds), "count")

    # model training
    trains = index.named("model.train")
    train_fwd = [s.dur for s in index.named("model.forward") if index.has_ancestor(s, "model.train")]
    m["model.train_calls"] = (len(trains), "count")
    m["model.epochs"] = (sum(s.attrs["epochs"] for s in trains), "count")
    m["model.steps"] = (len(index.named("model.adam")), "count")
    m["model.forward_batched_calls"] = (len(train_fwd), "count")
    m["model.forward_batched_s.p50"] = (percentile(train_fwd, 50), "s")
    m["model.forward_batched_s.p99"] = (percentile(train_fwd, 99), "s")
    m["autodiff.backward_s"] = (index.total("autodiff.backward"), "s")
    m["model.adam_s"] = (index.total("model.adam"), "s")
    fwd_calls = fwd_s = 0
    for op in AUTODIFF_OPS:
        calls, secs = index.counter(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.fwd_s"] = (secs, "s")
        fwd_calls += calls
        fwd_s += secs
    m["autodiff.fwd_calls"] = (fwd_calls, "count")

    # model inference
    single = [s.dur for s in index.named("model.predict_single")]
    m["model.predict_single_calls"] = (len(single), "count")
    m["model.predict_single_s.p50"] = (percentile(single, 50), "s")
    m["model.predict_single_s.p99"] = (percentile(single, 99), "s")
    m["model.predict_batched_calls"] = (len(index.named("model.predict_batched")), "count")
    m["model.predict_batched_s"] = (index.total("model.predict_batched"), "s")

    m["throttle.tune_s"] = (index.total("throttle.tune"), "s")

    # simulator host time, per prefetcher and over all simulations
    sims = index.named("simulator.simulate")

    def sim_self(span):
        return span.dur - sum(c.dur for c in index.children.get(span.sid, ())
                              if c.name == "model.predict_single")

    for pf in sorted({s.attrs["prefetcher"] for s in sims}):
        mine = [s for s in sims if s.attrs["prefetcher"] == pf]
        secs = sum(s.dur for s in mine)
        m[f"simulator.simulate_s.{pf}"] = (secs, "s")
        m[f"simulator.self_s.{pf}"] = (sum(sim_self(s) for s in mine), "s")
        m[f"simulator.accesses_per_s.{pf}"] = (sum(s.attrs["accesses"] for s in mine) / secs, "accesses/s")
        m[f"simulator.predict_s.{pf}"] = (index.counter(f"simulator.predict.{pf}")[1], "s")
    sim_s = sum(s.dur for s in sims)
    m["simulator.simulate_s"] = (sim_s, "s")
    m["simulator.busy_union_s"] = (union_length([(s.start, s.end) for s in sims]), "s")
    m["simulator.self_s"] = (sum(sim_self(s) for s in sims), "s")
    m["simulator.predict_s"] = (sum(index.counter(f"simulator.predict.{pf}")[1]
                                    for pf in PREFETCHER_CLASSES.values()), "s")
    m["simulator.accesses_per_s"] = (sum(s.attrs["accesses"] for s in sims) / sim_s if sim_s else 0.0,
                                     "accesses/s")

    # simulated counts: per prefetcher and summed over every report
    by_pf: dict[str, list] = {}
    for key, r in reports.items():
        by_pf.setdefault(report_prefetcher(key), []).append(r)
    for pf, rs in sorted(by_pf.items()):
        _sim_counts(m, rs, f".{pf}")
    _sim_counts(m, list(reports.values()), "")

    # pipeline glue: stage wall minus what its child spans cover
    for s in stage_spans:
        m[f"pipeline.stage_self_s.{s.name[len('stage.'):]}"] = (index.self_time(s), "s")
    m["pipeline.self_s"] = (sum(index.self_time(s) for s in stage_spans), "s")
    for s in index.named("stage.sweep"):
        pool = [c for c in index.children.get(s.sid, ()) if c.name == "simulator.simulate"]
        m["pipeline.sweep_busy_union_s"] = (union_length([(c.start, c.end) for c in pool]), "s")
        m["pipeline.sweep_busy_sum_s"] = (sum(c.dur for c in pool), "s")

    # busy time per layer: union of its spans, with the plain sum beside it
    for layer, names in LAYER_SPANS.items():
        spans = [s for s in index.spans if s.name in names]
        busy = union_length([(s.start, s.end) for s in spans])
        m[f"layer.{layer}.busy_union_s"] = (busy, "s")
        m[f"layer.{layer}.busy_sum_s"] = (sum(s.dur for s in spans), "s")
        m[f"share.{layer}"] = (busy / wall, "ratio")
    m["share.autodiff_fwd"] = (fwd_s / wall, "ratio")
    m["share.autodiff_backward"] = (m["autodiff.backward_s"][0] / wall, "ratio")

    m["bench.traced_wall_s"] = (wall, "s")
    m["bench.tracing_overhead_s"] = (wall - untraced_wall, "s")
    return m


def split_failures(workload: str, index: SpanIndex, metrics: dict) -> list[tuple[str, str]]:
    """The expected split of host time on each workload."""
    if workload == "stride-pipeline":
        share = metrics["share.model_train"][0]
        if share < 0.6:
            return [("train", f"training spans cover {share:.1%} of the wall, expected >= 60%")]
    elif workload == "latency-sweep":
        share = metrics["share.model_predict_single"][0]
        if share < 0.6:
            return [("sweep", f"single-sample inference covers {share:.1%} of the wall, expected >= 60%")]
    elif workload == "rules-llc":
        model_spans = sorted({s.name for s in index.spans
                              if s.name.startswith(("model.", "autodiff."))})
        model_counters = sorted(name for name, (calls, _) in index.counter_totals.items()
                                if calls and name.startswith(("autodiff.", "simulator.predict.model")))
        if model_spans or model_counters:
            return [("simulate", f"model code ran on rules-llc: {model_spans + model_counters}")]
    return []
