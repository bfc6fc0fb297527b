"""One timed benchmark sample, run in a fresh single-threaded interpreter.

Usage: python3 perfbench/worker.py '<task JSON>'

``run.py`` starts one of these per sample; the task's ``kind`` says what
to time:

* ``cli``: ``evdown.cli.main(argv)`` once, untraced, then the peak RSS.
* ``lib``: ``evdown.run`` on a stream already loaded from disk, repeated
  until ``rep_budget_s`` is spent.
* ``trace``: ``evdown.cli.main(argv)`` once, with a span recorded around
  every call into an evdown layer (see ``Tracer``).

Every kind first measures set-up: from the launch stamp the parent took
just before starting this process, to ``evdown`` imported, and to a first
tiny ``run`` with the workload's method returned.  All stamps use
CLOCK_MONOTONIC, which is shared by every process on the machine.  The
result is one JSON line on stdout.

The module also holds what ``run.py`` shares with the samples: the import
of the checkout's ``evdown``, the sampler config and the run digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALPHA = 0.1


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB.

    VmHWM belongs to the process image; ``ru_maxrss`` would also count the
    parent's pages from before ``exec``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def load_evdown():
    """Import evdown from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "evdown" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evdown package under {SRC}")
    sys.path.insert(0, str(SRC))
    import evdown
    import evdown.cli
    if Path(evdown.__file__).resolve().parent != SRC / "evdown":
        raise SystemExit(f"perfbench: imported evdown from {evdown.__file__}, "
                         f"expected {SRC / 'evdown'}")
    return evdown


def sampler_config(evdown, task: dict):
    """The config ``downsample`` builds from the task's argv (CLI defaults)."""
    return evdown.SamplerConfig(alpha=ALPHA, seed=task["seed"],
                                cap_enabled=task["cap"])


def run_digest(out, stats, log) -> str:
    """Digest of everything a run decides: kept indices, log, counters."""
    import numpy as np
    h = hashlib.sha256()
    for arr in (out.source_index, log.code, log.probability):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps([stats.processed, stats.retained, stats.capped,
                         stats.sampler_rejected, stats.per_window]).encode())
    return h.hexdigest()


def run_counters(stats) -> dict:
    return {"processed": stats.processed, "retained": stats.retained,
            "capped": stats.capped, "sampler_rejected": stats.sampler_rejected}


def _tiny_stream(evdown):
    import numpy as np
    rng = np.random.default_rng(0)
    n = 2000
    return evdown.EventStream(evdown.SensorGeometry(32, 24),
                              np.sort(rng.integers(0, 30_000, n)),
                              rng.integers(0, 32, n), rng.integers(0, 24, n),
                              rng.integers(0, 2, n))


class Tracer:
    """Spans around calls into evdown, recorded from outside the package.

    A span holds name, start, end, parent span id and run id.  Spans stay
    in memory; the worker writes them out once the command has returned.
    Work the tracer itself does after a call (file sizes, peak RSS, pixel
    counts) runs in a ``trace`` span, so it is no layer's self time.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = now()
        try:
            yield rec
        finally:
            rec["end"] = now()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("trace"):
                    after(rec, args, result)
            return result
        return traced

    def install(self, evdown) -> None:
        """Patch the names ``evdown.cli`` and ``evdown.pipeline`` call."""
        import numpy as np
        cli, pipeline = evdown.cli, evdown.pipeline

        def path_bytes(index):
            def after(rec, args, result):
                rec["bytes"] = os.path.getsize(args[index])
                rec["rss_mb"] = rss_mb()
            return after

        def run_stats(rec, args, result):
            stats = result[1]
            rec.update(run_counters(stats), eval_s=stats.eval_s,
                       pdf_s=stats.pdf_s, windows=len(stats.per_window),
                       rss_mb=rss_mb())

        def active_pixels(rec, args, result):
            counts = args[0].counts
            rec["active_px"] = int(np.count_nonzero(counts))
            rec["pixels"] = int(counts.size)

        cli.read_events = self.wrap("evio.read_events", cli.read_events,
                                    path_bytes(0))
        cli.write_events = self.wrap("evio.write_events", cli.write_events,
                                     path_bytes(1))
        cli.write_stats = self.wrap("evio.write_stats", cli.write_stats,
                                    path_bytes(1))
        cli.write_log = self.wrap("evio.write_log", cli.write_log,
                                  path_bytes(1))
        cli.run = self.wrap("pipeline.run", cli.run, run_stats)
        pipeline.score_map = self.wrap("density.score_map",
                                       pipeline.score_map)
        pipeline.poisson_occupancy = self.wrap("density.poisson_occupancy",
                                               pipeline.poisson_occupancy,
                                               active_pixels)
        evdown.EventStream.subset = self.wrap("events.subset",
                                              evdown.EventStream.subset)


def sample_cli(evdown, task: dict) -> dict:
    t0 = now()
    rc = evdown.cli.main(task["argv"])
    wall_s = now() - t0
    return {"rc": rc, "wall_s": wall_s, "peak_rss_mb": rss_mb()}


def sample_trace(evdown, task: dict) -> dict:
    tracer = Tracer(task["run_id"])
    tracer.install(evdown)
    with tracer.span("cli.main") as rec:
        rc = evdown.cli.main(task["argv"])
    return {"rc": rc, "wall_s": rec["end"] - rec["start"],
            "spans": tracer.spans}


def sample_lib(evdown, task: dict) -> dict:
    stream = evdown.read_events(task["lib_input"])
    config = sampler_config(evdown, task)
    reps = []
    deadline = now() + task["rep_budget_s"]
    while not reps or now() < deadline:
        t0 = now()
        out, stats, log = evdown.run(stream, task["method"], config)
        run_s = now() - t0
        reps.append({"run_s": run_s, "digest": run_digest(out, stats, log),
                     **run_counters(stats)})
        del out, stats, log
    return {"events": len(stream), "reps": reps}


SAMPLES = {"cli": sample_cli, "lib": sample_lib, "trace": sample_trace}


def main() -> None:
    task = json.loads(sys.argv[1])
    evdown = load_evdown()
    t_import = now()
    evdown.run(_tiny_stream(evdown), task["method"],
               sampler_config(evdown, task))
    t_ready = now()
    result = {"import_s": t_import - task["launch"],
              "first_run_s": t_ready - t_import}
    result.update(SAMPLES[task["kind"]](evdown, task))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
