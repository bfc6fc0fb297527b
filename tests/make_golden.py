"""Build the golden corpus, tests/golden.json.

Usage: PYTHONPATH=src python tests/make_golden.py

Each case runs ``evdown.run`` on one (scene, method, alpha, cap, prior,
seed) and records SHA-256 digests of everything the run decides: the kept
indices, each decision-log column, the counters, and the bytes that
``write_events`` (CSV and binary) and ``write_log`` put on disk.  The
stats document is left out, since it carries timings.

tests/test_golden.py recomputes every digest on both kernel paths and
requires the file's values; no test rewrites it.  Regenerate it only for
an intended change of output, and declare that change in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from evdown import (EdgeSpec, SamplerConfig, SceneSpec, SensorGeometry,
                    gaussian_prior, generate, reference_scene, run,
                    write_events, write_log)

GOLDEN = Path(__file__).with_name("golden.json")

# name -> (scene, analysis window t_us); each spans 10-12 windows.
SCENES = {
    "ref64x48": (dataclasses.replace(reference_scene(42), duration_us=60_000),
                 6000),
    "edge240x180": (SceneSpec(SensorGeometry(240, 180), 12_000,
                              (EdgeSpec(40, 10, 40, 170, 70.0, 625.0),),
                              noise_rate_px_s=9.26, seed=3), 1000),
    "hd1280x720": (SceneSpec(SensorGeometry(1280, 720), 6000,
                             (EdgeSpec(300, 60, 300, 660, 150.0, 625.0),
                              EdgeSpec(980, 60, 980, 660, -150.0, 625.0)),
                             noise_rate_px_s=0.5, seed=5), 500),
}
METHODS = ("deterministic", "uniform", "poisson")
ALPHAS = (0.1, 0.5, 1.0)
SEEDS = (0, 7)


@functools.lru_cache(maxsize=None)
def scene_stream(name: str):
    return generate(SCENES[name][0])


def cases(scene: str, method: str):
    """(key, SamplerConfig) for every case of a scene and method."""
    geo = SCENES[scene][0].geometry
    priors = (False, True) if method == "poisson" else (False,)
    for alpha in ALPHAS:
        for cap in (True, False):
            for prior_on in priors:
                for seed in SEEDS:
                    key = (f"{scene}/{method}/a{alpha}/cap{int(cap)}"
                           f"/prior{int(prior_on)}/s{seed}")
                    prior = gaussian_prior(geo) if prior_on else None
                    yield key, SamplerConfig(
                        alpha=alpha, t_us=SCENES[scene][1], seed=seed,
                        prior=prior, cap_enabled=cap)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def digests(stream, method: str, config: SamplerConfig, workdir: Path) -> dict:
    """SHA-256 digests of one run's decisions and written files."""
    out, stats, log = run(stream, method, config)
    counters = json.dumps([stats.processed, stats.retained, stats.capped,
                           stats.sampler_rejected, stats.per_window])
    csv, binary, logf = (workdir / "out.csv", workdir / "out.bin",
                         workdir / "log.csv")
    write_events(out, csv)
    write_events(out, binary, fmt="binary")
    write_log(log, logf)
    return {
        "kept": _sha(out.source_index),
        "log_t": _sha(log.t),
        "log_window": _sha(log.window),
        "log_code": _sha(log.code),
        "log_probability": _sha(log.probability),
        "counters": _sha(counters.encode("ascii")),
        "csv": _sha(csv.read_bytes()),
        "binary": _sha(binary.read_bytes()),
        "log_file": _sha(logf.read_bytes()),
    }


def corpus(scene: str, method: str, workdir: Path) -> dict:
    stream = scene_stream(scene)
    return {key: digests(stream, method, config, workdir)
            for key, config in cases(scene, method)}


def main() -> int:
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            for method in METHODS:
                doc.update(corpus(scene, method, Path(tmp)))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="ascii")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
