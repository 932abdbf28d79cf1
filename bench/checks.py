"""Output checks the benchmark applies to every run directory it produces.

Each failure names the stage whose output broke, so the caller can count it
against that stage.
"""

from __future__ import annotations

import hashlib
import json
import os

# artifacts that must be byte-identical across runs with the same seed,
# with the stage that writes each
DETERMINISTIC_ARTIFACTS = {
    "trace.csv.gz": "gen",
    "eval_metrics.json": "eval",
    "sim_reports.json": "simulate",
    "sweep_reports.json": "sweep",
}
REPORT_FILES = {"sim_reports.json": "simulate", "sweep_reports.json": "sweep"}
BUCKETS = ("useful_prefetches", "useless_evicted", "resident_unused",
           "dropped_on_arrival", "in_flight_at_end")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_reports(run_dir) -> dict:
    """Every SimReport the run wrote, keyed '<file>:<name>'."""
    reports = {}
    for fname in REPORT_FILES:
        path = os.path.join(run_dir, fname)
        if os.path.exists(path):
            with open(path) as fh:
                for name, report in json.load(fh).items():
                    reports[f"{fname}:{name}"] = report
    return reports


def check_manifests(run_dir, stages) -> list[tuple[str, str]]:
    """Re-hash every output each stage's manifest lists."""
    failures = []
    for stage in stages:
        path = os.path.join(run_dir, f"manifest_{stage}.json")
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            failures.append((stage, f"manifest unreadable: {exc}"))
            continue
        for name, digest in manifest.get("outputs", {}).items():
            target = os.path.join(run_dir, name)
            if not os.path.exists(target):
                failures.append((stage, f"{name} listed in manifest but missing"))
            elif sha256_file(target) != digest:
                failures.append((stage, f"{name} does not match its manifest hash"))
    return failures


def check_reports(run_dir) -> list[tuple[str, str]]:
    """Conservation of issued prefetches, and coverage/accuracy in [0, 1]."""
    failures = []
    for key, r in load_reports(run_dir).items():
        stage = REPORT_FILES[key.split(":", 1)[0]]
        if r["prefetches_issued"] != sum(r[b] for b in BUCKETS):
            failures.append((stage, f"{key}: issued {r['prefetches_issued']} != sum of buckets"))
        for metric in ("coverage", "accuracy"):
            if not 0.0 <= r[metric] <= 1.0:
                failures.append((stage, f"{key}: {metric} {r[metric]} outside [0, 1]"))
    return failures


def artifact_digests(run_dir) -> dict[str, str]:
    return {
        name: sha256_file(os.path.join(run_dir, name))
        for name in DETERMINISTIC_ARTIFACTS
        if os.path.exists(os.path.join(run_dir, name))
    }


def check_determinism(reference: dict, digests: dict) -> list[tuple[str, str]]:
    """Same seed, same bytes: compare against the first run's digests."""
    return [
        (DETERMINISTIC_ARTIFACTS[name], f"{name} differs from the first run with this seed")
        for name in sorted(set(reference) | set(digests))
        if reference.get(name) != digests.get(name)
    ]
