"""prefetchlab benchmark: run one workload's stage chain and report its metrics.

    python3 bench/run.py --workload stride-pipeline --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

The stages run in this process through ``prefetchlab.pipeline.run_stage`` on a
config generated from the seed (see workloads.py). The chain is repeated in
fresh run directories until ``--seconds`` is spent and the medians are
reported. With ``--trace 1`` one more chain runs with the tracer installed,
and the per-layer metrics come from its spans. ``--workload all`` runs each
workload in its own process. ``--smoke`` shrinks every workload to toy sizes.

Every host time is measured with tracing off; quality numbers and ``sim.*``
counts are simulated. Outputs are checked after every chain; a failed check
counts against the stage that wrote the output. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the full result, the machine
and (traced) the spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads
from tracing import SpanIndex, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread per process: the sweep already runs up to 8 pool threads on
# a 2-CPU machine, and the shell's value must not leak into the numbers.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 5
# budget a traced chain at this multiple of an untraced one
TRACED_COST = 1.6

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("prefetch.coverage", "ratio", "higher"),
)


@dataclass
class Chain:
    """One pass over a workload's stages in a fresh run directory."""

    stage_s: dict
    wall_s: float
    elapsed_s: float  # wall plus the output checks
    failures: list = field(default_factory=list)  # (stage, message)
    digests: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    @property
    def failed_stages(self) -> set:
        return {stage for stage, _ in self.failures}


def run_chain(wl, cfg, run_dir, tracer=None) -> Chain:
    from prefetchlab.pipeline import run_stage

    start = time.perf_counter()
    stage_s, failures, done = {}, [], []
    for stage in wl.stages:
        if len(done) < len(stage_s):
            failures.append((stage, "skipped after an upstream failure"))
            continue
        t0 = time.perf_counter()
        try:
            with tracer.stage(stage) if tracer else nullcontext():
                run_stage(stage, cfg, run_dir)
            done.append(stage)
        except Exception as exc:  # any stage error is a counted failure
            failures.append((stage, f"{type(exc).__name__}: {exc}"))
        stage_s[stage] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    failures += checks.check_manifests(run_dir, done)
    failures += checks.check_reports(run_dir)
    return Chain(stage_s, wall, time.perf_counter() - start, failures,
                 checks.artifact_digests(run_dir), checks.load_reports(run_dir))


def measure_setup(out_dir) -> list[float]:
    """Fresh interpreters that import, validate the config and create a run dir."""
    cfg_path = out_dir / "config.json"
    times = []
    for i in range(SETUP_PROBES):
        target = out_dir / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
                        str(cfg_path), str(target)], check=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return times


def machine(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                         capture_output=True, text=True, check=False)
    toplevel, _, commit = git.stdout.strip().partition("\n")
    digest = hashlib.sha256()
    for path in sorted((SRC / "prefetchlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        # only this tree's own repository counts, not one that encloses it
        "git_commit": commit if git.returncode == 0 and Path(toplevel) == ROOT else None,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(wl, chains, setup_times, peak_rss_mb, last_dir) -> dict:
    """Every end-to-end metric of this workload as name -> (value, unit)."""
    reports = chains[0].reports
    accesses = sum(r["demand_accesses"] for r in reports.values())
    m = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([c.wall_s for c in chains]), "s"),
        "sim.accesses_per_s": (_median([accesses / c.stage_s[wl.sim_stage] for c in chains
                                        if wl.sim_stage in c.stage_s]), "accesses/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "prefetch.coverage": (_mean(r["coverage"] for r in reports.values()), "ratio"),
        "prefetch.accuracy": (_mean(r["accuracy"] for r in reports.values()), "ratio"),
    }
    # workload-specific numbers, printed and saved beside the common ones
    for stage in wl.stages:
        if stage not in ("tune", "report"):  # both take well under 0.25 s
            m[f"stage.{stage}_s"] = (_median([c.stage_s.get(stage, 0.0) for c in chains]), "s")
    eval_path = last_dir / "eval_metrics.json"
    if eval_path.exists():
        with open(eval_path) as fh:
            m["model.test_f1"] = (json.load(fh)["modes"][0]["f1"], "ratio")
    model = [r for k, r in reports.items() if layers.report_prefetcher(k) == "model"]
    rules = [r for k, r in reports.items() if layers.report_prefetcher(k) != "model"]
    if model:
        m["model.coverage"] = (_mean(r["coverage"] for r in model), "ratio")
        m["model.accuracy"] = (_mean(r["accuracy"] for r in model), "ratio")
    if rules:
        m["rules.coverage"] = (_mean(r["coverage"] for r in rules), "ratio")
    return m


def print_table(title: str, metrics: dict):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value!r:>24} {unit}")


def run_workload(args) -> int:
    from prefetchlab.pipeline import ExperimentConfig

    wl = workloads.make(args.workload, args.seed, args.smoke)
    cfg = ExperimentConfig.from_dict(wl.config)
    out_dir = OUT / wl.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    with open(out_dir / "config.json", "w") as fh:
        json.dump(wl.config, fh, indent=2, sort_keys=True)

    setup_times = measure_setup(out_dir)

    chains: list[Chain] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        run_dir = out_dir / f"chain{len(chains)}"
        chains.append(run_chain(wl, cfg, run_dir))
        if len(chains) > 1:
            shutil.rmtree(out_dir / f"chain{len(chains) - 2}")
        est = _median([c.elapsed_s for c in chains])
        reserve = TRACED_COST * est if args.trace else 0.0
        if time.perf_counter() + est + reserve > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(wl, chains, setup_times, peak_rss_mb, out_dir / f"chain{len(chains) - 1}")

    per_layer = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_chain(wl, cfg, out_dir / "traced", tracer)
        index = SpanIndex(tracer.spans, tracer.counters())
        per_layer = layers.derive(index, traced.reports, e2e["wall_s"][0])
        if not args.smoke:  # the expected split holds at full size only
            traced.failures += layers.split_failures(wl.name, index, per_layer)
        chains.append(traced)
        write_spans(out_dir / "spans.jsonl", tracer)

    for chain in chains[1:]:
        chain.failures += checks.check_determinism(chains[0].digests, chain.digests)
    attempted = len(wl.stages) * len(chains)
    failed = sum(len(c.failed_stages) for c in chains)
    e2e["stages_failed"] = (failed, "count")

    info = machine(args.seed)
    result = {
        "workload": wl.name,
        "machine": info,
        "chains": len(chains) - (1 if args.trace else 0),
        "setup_samples_s": setup_times,
        "chain_wall_s": [c.wall_s for c in chains],
        "chain_stage_s": [c.stage_s for c in chains],
        "failures": [f"{stage}: {msg}" for c in chains for stage, msg in c.failures],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": None if per_layer is None else
        {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)

    print(f"# workload {wl.name}  seed {args.seed}  chains {result['chains']}  "
          f"machine {json.dumps(info, sort_keys=True)}")
    for line in result["failures"]:
        print(f"# FAILED {line}")
    print_table("end-to-end (host time untraced; quality simulated)", e2e)
    if per_layer is not None:
        print_table("per-layer (traced run)", per_layer)
    wanted = layers.PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else e2e
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name][0], "unit": unit} for name, unit, _ in wanted},
    }
    print(json.dumps(line))
    return 0


def write_spans(path, tracer):
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name, "start": s.start,
                                 "end": s.end, "tid": s.tid, **s.attrs}) + "\n")
        for (name, parent), (calls, secs) in sorted(tracer.counters().items(),
                                                    key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            fh.write(json.dumps({"counter": name, "parent": parent, "calls": calls,
                                 "total_s": secs}) + "\n")


def run_all(args) -> int:
    """Each workload in a fresh process; the last line sums their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "prefetchlab" / "pipeline.py").is_file():
        print(f"bench: no prefetchlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # before numpy is first imported, in this process and in every child
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
