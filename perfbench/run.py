#!/usr/bin/env python3
"""Benchmark of the ``evdown downsample`` command.

Run from the repository root:

    python3 perfbench/run.py --workload csv-log --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 90 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Each workload's input is generated from ``--seed`` with ``evdown.generate``
into a scratch directory under ``perfbench/.work`` (removed on exit); that
is never timed.  A reference ``evdown.run`` in this process gives the
expected decisions.  Samples then run round-robin over the chosen
workloads, each in a fresh single-threaded interpreter (``worker.py``),
until ``--seconds`` are spent:

* ``--trace 0``: ``cli`` samples (the command, untraced) and ``lib``
  samples (``evdown.run`` on the loaded stream); the result holds the
  end-to-end metrics.
* ``--trace 1``: ``trace`` samples (the command with spans around every
  evdown layer) and ``cli`` samples for the tracing overhead; the result
  holds the per-layer metrics.

Every sample's output is checked; a sample that fails any check counts in
``failed``.  The second-last line of stdout is the full report (machine
header, inputs and their digests, sample summaries, output digests); the
last line is the result ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` swaps in tiny scenes, so every workload, check and the traced
run finish in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from worker import (ALPHA, ROOT, load_evdown, now, run_counters, run_digest,
                    sampler_config)

WORKER = Path(__file__).resolve().with_name("worker.py")
WORK_ROOT = Path(__file__).resolve().with_name(".work")
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                 "PYTHONHASHSEED": "0"}
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    fmt: str        # "csv" or "binary", for input and output alike
    cap: bool
    log: bool
    scene: dict     # SceneSpec fields but the seed, which is --seed
    smoke_duration_us: int

    def scene_doc(self, seed: int, smoke: bool) -> dict:
        doc = dict(self.scene, seed=seed)
        if smoke:
            doc["duration_us"] = self.smoke_duration_us
        return doc


WORKLOADS = {w.name: w for w in (
    # Acceptance criterion 8's scene: one edge over noise, ~0.5M events/s.
    Workload("csv-log", "the text path a CLI user runs: labeled CSV in and "
             "out plus the decision log; text I/O dominates",
             method="uniform", fmt="csv", cap=True, log=True,
             scene={"geometry": [240, 180], "duration_us": 2_000_000,
                    "edges": [[40, 10, 40, 170, 70.0, 625.0]],
                    "noise_rate_px_s": 9.26},
             smoke_duration_us=40_000),
    Workload("hd-poisson", "dense density scoring at 1280x720 dominates "
             "while well under 1% of pixels fire per window; binary I/O",
             method="poisson", fmt="binary", cap=True, log=False,
             scene={"geometry": [1280, 720], "duration_us": 600_000,
                    "edges": [[300, 60, 300, 660, 150.0, 625.0],
                              [980, 60, 980, 660, -150.0, 625.0]],
                    "noise_rate_px_s": 0.5},
             smoke_duration_us=30_000),
)}

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_ms_per_kev": "ms/kev",
              "peak_rss_mb": "MB", "selectivity": "ratio"}
PER_LAYER = {
    "cli.main_s": "s", "cli.self_s": "s",
    "evio.read_events_s": "s", "evio.write_events_s": "s",
    "evio.write_log_s": "s", "evio.write_stats_s": "s",
    "evio.read_bytes": "bytes", "evio.write_bytes": "bytes",
    "evio.read_rss_mb": "MB",
    "events.subset_s": "s",
    "pipeline.run_s": "s", "pipeline.run_self_s": "s",
    "pipeline.eval_s": "s", "pipeline.pdf_s": "s",
    "pipeline.processed": "count", "pipeline.retained": "count",
    "pipeline.capped": "count", "pipeline.sampler_rejected": "count",
    "pipeline.capped_frac": "ratio", "pipeline.windows": "count",
    "pipeline.run_rss_mb": "MB",
    "density.score_map_s": "s", "density.poisson_occupancy_s": "s",
    "density.calls": "count", "density.ms_per_window": "ms",
    "density.active_px_mean": "px", "density.active_frac": "ratio",
    "setup.import_s": "s", "setup.first_run_s": "s",
    "trace.overhead_s": "s",
}


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def prefix_cap_ok(codes, alpha: float) -> bool:
    """README guarantee: after k events, retained <= alpha*(k-1) + 1."""
    import numpy as np
    retained = np.cumsum(codes == 0)  # DecisionCode.ACCEPT
    k = np.arange(1, len(codes) + 1)
    return bool(np.all(retained <= alpha * (k - 1) + 1))


def summary(values: list[float]) -> dict:
    """n, quartiles, and the highest percentile with >= 10 samples beyond."""
    values = sorted(values)
    n = len(values)
    doc = {"n": n, "median": statistics.median(values), "values": values}
    if n >= 2:
        doc["q1"], _, doc["q3"] = statistics.quantiles(values, n=4)
    if n > 10:
        doc[f"p{100 * (n - 10) / n:.0f}"] = values[n - 11]
    return doc


@dataclass
class Prepared:
    """One workload's generated input, reference run and sample record."""

    workload: Workload
    seed: int
    original: object            # labeled stream; dropped once verified
    reference: object | None    # reference run's kept stream
    ref_log: object | None
    counters: dict
    lib_digest: str
    inputs: dict
    argv: list[str]
    outputs: dict[str, Path]
    lib_input: Path
    out_digests: dict | None = None
    selectivity: float | None = None
    samples: dict = field(default_factory=lambda: {
        "cli": [], "lib": [], "trace": []})
    errors: list[str] = field(default_factory=list)

    def task(self, kind: str, run_id: int, rep_budget_s: float) -> dict:
        w = self.workload
        return {"kind": kind, "argv": self.argv, "method": w.method,
                "seed": self.seed, "cap": w.cap, "run_id": run_id,
                "lib_input": str(self.lib_input),
                "rep_budget_s": rep_budget_s}


def prepare(ev, w: Workload, seed: int, smoke: bool, work: Path) -> Prepared:
    scene = w.scene_doc(seed, smoke)
    original = ev.generate(ev.SceneSpec(
        geometry=ev.SensorGeometry(*scene["geometry"]),
        duration_us=scene["duration_us"],
        edges=tuple(ev.EdgeSpec(*e[:4], velocity_px_s=e[4], rate_per_px_s=e[5])
                    for e in scene["edges"]),
        noise_rate_px_s=scene["noise_rate_px_s"], seed=seed))
    if w.fmt == "csv":
        # CSV carries no geometry; the reader infers max coordinate + 1.
        original = ev.EventStream(
            ev.SensorGeometry(int(original.x.max()) + 1,
                              int(original.y.max()) + 1),
            original.t, original.x, original.y, original.p,
            labels=original.labels)
    geometry = original.geometry

    suffix = ".csv" if w.fmt == "csv" else ".evb"
    source = work / f"input{suffix}"
    ev.write_events(original, str(source), fmt=w.fmt)
    lib_input = source
    if w.fmt == "csv":
        lib_input = work / "input.lib.evb"
        ev.write_events(original, str(lib_input), fmt="binary")
    outputs = {"out": work / f"out{suffix}", "stats": work / "stats.json"}
    argv = ["downsample", "-i", str(source), "-o", str(outputs["out"]),
            "-m", w.method, "-a", str(ALPHA), "--seed", str(seed),
            "--stats", str(outputs["stats"])]
    if w.log:
        outputs["log"] = work / "log.csv"
        argv += ["--log", str(outputs["log"])]
    if not w.cap:
        argv.append("--no-cap")

    task = {"seed": seed, "cap": w.cap}
    out, stats, log = ev.run(original, w.method, sampler_config(ev, task))
    counters = run_counters(stats)
    prepared = Prepared(
        workload=w, seed=seed, original=original, reference=out,
        ref_log=log if w.log else None, counters=counters,
        lib_digest=run_digest(out, stats, log),
        inputs={"scene": scene, "events": len(original),
                "geometry": [geometry.width, geometry.height],
                "files": {p.name: {"bytes": p.stat().st_size,
                                   "sha256": file_digest(p)}
                          for p in sorted({source, lib_input})}},
        argv=argv, outputs=outputs, lib_input=lib_input)
    if counters["processed"] != len(original) or sum(
            counters[k] for k in ("retained", "capped", "sampler_rejected")
    ) != counters["processed"]:
        prepared.errors.append(f"reference run counters {counters}")
    if w.cap and not prefix_cap_ok(log.code, ALPHA):
        prepared.errors.append("reference run breaks the prefix cap bound")
    return prepared


def verify_outputs(ev, prep: Prepared) -> list[str]:
    """Full check of the command's files against the reference run."""
    import numpy as np
    errors = []
    kept = ev.read_events(str(prep.outputs["out"]))
    try:
        claimed = ev.EventStream(kept.geometry, kept.t, kept.x, kept.y, kept.p,
                                 source_index=prep.reference.source_index)
        idx = ev.match_events(prep.original, claimed)
    except ValueError as exc:
        return [f"output is not the reference subset of the input: {exc}"]
    if idx.size > 1 and not np.all(np.diff(idx) > 0):
        errors.append("output is not in input order")
    prep.selectivity = ev.selectivity(prep.original, claimed, ALPHA).ratio
    if prep.workload.log:
        log = ev.read_log(str(prep.outputs["log"]))
        if not (np.array_equal(log.code, prep.ref_log.code)
                and np.array_equal(log.t, prep.original.t)):
            errors.append("decision log differs from the reference run")
        if not prefix_cap_ok(log.code, ALPHA):
            errors.append("decision log breaks the prefix cap bound")
    return errors


def check_command(ev, prep: Prepared, result: dict) -> list[str]:
    """Checks on one cli or trace sample; the first is verified in full."""
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}"]
    stats = json.loads(prep.outputs["stats"].read_text())
    want = prep.counters
    errors = [f"stats {k}={stats[k]}, reference {want[k]}"
              for k in ("processed", "retained", "capped")
              if stats[k] != want[k]]
    for span in result.get("spans", ()):
        if span["name"] == "pipeline.run":
            got = {k: span[k] for k in want}
            if got != want:
                errors.append(f"traced run counters {got}, reference {want}")
    digests = {k: file_digest(p) for k, p in prep.outputs.items()
               if k != "stats"}
    if prep.out_digests is None:
        errors += verify_outputs(ev, prep)
        if not errors:
            prep.out_digests = digests
            prep.original = prep.reference = prep.ref_log = None
    elif digests != prep.out_digests:
        errors.append(f"output digests {digests} differ from the first "
                      f"run's {prep.out_digests}")
    return errors


def check_lib(prep: Prepared, result: dict) -> list[list[str]]:
    """Errors per repetition of one lib sample."""
    out = []
    for rep in result["reps"]:
        errors = []
        if rep["digest"] != prep.lib_digest:
            errors.append("run digest differs from the reference run")
        if {k: rep[k] for k in prep.counters} != prep.counters:
            errors.append("run counters differ from the reference run")
        out.append(errors)
    return out


def launch(task: dict, timeout: float) -> tuple[dict | None, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    task["launch"] = now()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(task)],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-500:]}"


def span_metrics(spans: list[dict]) -> dict:
    """Per-layer values of one traced command (durations, self times)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= dur[s["id"]]
    total, self_s, by_name = {}, {}, {}
    for s in spans:
        name = s["name"]
        by_name.setdefault(name, []).append(s)
        total[name] = total.get(name, 0.0) + dur[s["id"]]
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
    run = by_name.get("pipeline.run", [{}])[0]
    read = by_name.get("evio.read_events", [{}])[0]
    occ = by_name.get("density.poisson_occupancy", [])
    calls = len(by_name.get("density.score_map", []))
    density_s = (total.get("density.score_map", 0.0)
                 + total.get("density.poisson_occupancy", 0.0))
    processed = run.get("processed", 0)
    m = {
        "cli.main_s": total["cli.main"], "cli.self_s": self_s["cli.main"],
        "evio.read_events_s": total.get("evio.read_events", 0.0),
        "evio.write_events_s": total.get("evio.write_events", 0.0),
        "evio.write_log_s": total.get("evio.write_log", 0.0),
        "evio.write_stats_s": total.get("evio.write_stats", 0.0),
        "evio.read_bytes": read.get("bytes", 0),
        "evio.write_bytes": sum(s.get("bytes", 0) for s in spans
                                if s["name"].startswith("evio.write")),
        "evio.read_rss_mb": read.get("rss_mb", 0.0),
        "events.subset_s": total.get("events.subset", 0.0),
        "pipeline.run_s": total.get("pipeline.run", 0.0),
        "pipeline.run_self_s": self_s.get("pipeline.run", 0.0),
        "pipeline.eval_s": run.get("eval_s", 0.0),
        "pipeline.pdf_s": run.get("pdf_s", 0.0),
        "pipeline.processed": processed,
        "pipeline.retained": run.get("retained", 0),
        "pipeline.capped": run.get("capped", 0),
        "pipeline.sampler_rejected": run.get("sampler_rejected", 0),
        "pipeline.capped_frac": (run.get("capped", 0) / processed
                                 if processed else 0.0),
        "pipeline.windows": run.get("windows", 0),
        "pipeline.run_rss_mb": run.get("rss_mb", 0.0),
        "density.score_map_s": total.get("density.score_map", 0.0),
        "density.poisson_occupancy_s": total.get("density.poisson_occupancy",
                                                 0.0),
        "density.calls": calls,
        "density.ms_per_window": density_s * 1e3 / calls if calls else 0.0,
        "density.active_px_mean": (
            statistics.fmean(s["active_px"] for s in occ) if occ else 0.0),
        "density.active_frac": (sum(s["active_px"] for s in occ)
                                / sum(s["pixels"] for s in occ)
                                if occ else 0.0),
    }
    layer_self = {}
    for name, v in self_s.items():
        if name != "trace":
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + v
    m["_layer_self_s"] = layer_self
    m["_trace_s"] = total.get("trace", 0.0)
    # Self times telescope: layers plus tracer account for all of cli.main.
    m["_gap_s"] = total["cli.main"] - sum(layer_self.values()) - m["_trace_s"]
    return m


def workload_result(prep: Prepared, trace: bool) -> tuple[dict, dict]:
    """(metrics, report section) of one workload."""
    s = prep.samples
    workers = s["cli"] + s["lib"] + s["trace"]
    setup = [r["import_s"] + r["first_run_s"] for r in workers]
    wall = [r["wall_s"] for r in s["cli"]]
    report = {"argv": prep.argv, "inputs": prep.inputs,
              "samples": {k: len(v) for k, v in s.items()},
              "setup_s": summary(setup), "wall_s": summary(wall),
              "output_sha256": prep.out_digests,
              "run_digest": prep.lib_digest, "errors": prep.errors}
    if not trace:
        per_kev = 1e3 / (prep.inputs["events"] / 1e3)
        run_ms = [rep["run_s"] * per_kev
                  for r in s["lib"] for rep in r["reps"]]
        rss = [r["peak_rss_mb"] for r in s["cli"]]
        report.update(run_ms_per_kev=summary(run_ms),
                      peak_rss_mb=summary(rss))
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(wall),
                  "run_ms_per_kev": statistics.median(run_ms),
                  "peak_rss_mb": statistics.median(rss),
                  "selectivity": prep.selectivity}
        return {k: {"value": values[k], "unit": u}
                for k, u in END_TO_END.items()}, report
    traced = [span_metrics(r["spans"]) for r in s["trace"]]
    values = {k: statistics.median(m[k] for m in traced)
              for k in PER_LAYER if k in traced[0]}
    values["setup.import_s"] = statistics.median(r["import_s"]
                                                 for r in workers)
    values["setup.first_run_s"] = statistics.median(r["first_run_s"]
                                                    for r in workers)
    values["trace.overhead_s"] = (values["cli.main_s"]
                                  - statistics.median(wall))
    main_s = values["cli.main_s"]
    layer_self = {}
    for m in traced:
        for layer, v in m["_layer_self_s"].items():
            layer_self.setdefault(layer, []).append(v)
    layer_self = {k: statistics.median(v) for k, v in layer_self.items()}
    report["trace"] = {
        "main_s": main_s,
        "layer_self_s": layer_self,
        "layer_share": {k: v / main_s for k, v in layer_self.items()},
        "layer_self_sum_s": sum(layer_self.values()),
        "tracer_own_s": statistics.median(m["_trace_s"] for m in traced),
        "self_sum_gap_s": max(abs(m["_gap_s"]) for m in traced),
        "overhead_s": values["trace.overhead_s"],
        "spans_first_run": s["trace"][0]["spans"],
    }
    return {k: {"value": values[k], "unit": u}
            for k, u in PER_LAYER.items()}, report


def machine_header(ev, trace: bool) -> dict:
    import numpy
    import scipy
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        # The ceiling keeps git from finding a repository above the root.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "evdown": ev.__version__, "git_commit": commit, "traced": trace}


def measure(ev, preps: list[Prepared], seconds: float, trace: bool,
            smoke: bool) -> tuple[int, int]:
    """Run samples round-robin until the budget is spent."""
    kinds = ("trace", "cli") if trace else ("cli", "lib")
    order = [(p, k) for p in preps for k in kinds]
    rep_budget_s = 0.05 if smoke else min(1.0, seconds / 20)
    last: dict[tuple[int, str], float] = {}
    attempted = failed = 0
    start = now()
    i = 0
    while True:
        prep, kind = order[i % len(order)]
        key = (id(prep), kind)
        if i >= len(order) and now() - start + last[key] > seconds:
            break
        t0 = now()
        result, error = launch(prep.task(kind, i, rep_budget_s),
                               WORKER_TIMEOUT_S)
        if result is None:
            attempted += 1
            failed += 1
            prep.errors.append(f"{kind}: {error}")
        elif kind == "lib":
            prep.samples[kind].append(result)
            for errors in check_lib(prep, result):
                attempted += 1
                failed += bool(errors)
                prep.errors += errors
        else:
            try:
                errors = check_command(ev, prep, result)
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"{kind}: output check raised {exc!r}"]
            attempted += 1
            failed += bool(errors)
            prep.errors += errors
            if not errors:
                prep.samples[kind].append(result)
        last[key] = now() - t0
        i += 1
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running worker is killed and awaited, and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ev = load_evdown()
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        preps = []
        for name in names:
            (work / name).mkdir()
            preps.append(prepare(ev, WORKLOADS[name], args.seed, args.smoke,
                                 work / name))
        attempted, failed = measure(ev, preps, args.seconds, trace,
                                    args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics, sections = {}, {}
    complete = all(p.out_digests and p.samples["cli"]
                   and p.samples["trace" if trace else "lib"] for p in preps)
    if complete:
        for prep in preps:
            values, sections[prep.workload.name] = workload_result(prep, trace)
            prefix = "" if len(preps) == 1 else prep.workload.name + "."
            metrics.update({prefix + k: v for k, v in values.items()})
    else:
        sections = {p.workload.name: {"errors": p.errors} for p in preps}
    report = {"machine": machine_header(ev, trace), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "workloads": sections}
    correct = complete and failed == 0 and not any(p.errors for p in preps)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
