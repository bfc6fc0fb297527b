"""The golden corpus: every run digest in golden.json, on both kernel paths,
from ``run`` and from ``downsample`` on the scenes written as CSV.

A failure here means the output of some (scene, method, config) changed.
See make_golden.py for what is digested and when the file may be rebuilt.
"""

import functools
import json

import pytest

from evdown import cli, evio, gaussian_prior, write_events, write_prior
from make_golden import GOLDEN, METHODS, SCENES, _sha, cases, corpus, \
    scene_stream

EXPECTED = json.loads(GOLDEN.read_text(encoding="ascii"))


def test_corpus_covers_every_case():
    keys = {key.rsplit("/", 4)[0] for key in EXPECTED}
    assert keys == {f"{s}/{m}" for s in SCENES for m in METHODS}
    assert len(EXPECTED) == len(SCENES) * 48


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", SCENES)
def test_digests_unchanged(scene, method, cap_walk, tmp_path):
    got = corpus(scene, method, tmp_path)
    want = {k: v for k, v in EXPECTED.items()
            if k.startswith(f"{scene}/{method}/")}
    assert got == want


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """Each scene as a labeled CSV, and its prior, written once, and a
    read_prior that reads each prior file once: reading a 1280x720 prior
    takes most of a second, the rest of a case a few milliseconds."""
    files = {}
    for scene in SCENES:
        workdir = tmp_path_factory.mktemp(scene)
        stream = scene_stream(scene)
        write_events(stream, workdir / "scene.csv")
        write_prior(gaussian_prior(stream.geometry), workdir / "prior.txt")
        files[scene] = workdir
    return files, functools.cache(evio.read_prior)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", SCENES)
def test_downsample_csv_path_digests(scene, method, cap_walk, scene_files,
                                     tmp_path, monkeypatch):
    """Each case replayed through ``downsample`` on its scene's CSV, read
    in small blocks and decided in small chunks, writes the recorded
    bytes: CSV and binary output and the decision log."""
    files, read_prior_once = scene_files
    monkeypatch.setattr(cli, "_CHUNK_EVENTS", 500)
    monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", 4096)
    monkeypatch.setattr(cli, "read_prior", read_prior_once)
    workdir = files[scene]
    if cap_walk == "compiled":  # the compiled scan takes every block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evio, "_parse_lines", None)
            evio.CsvEvents(workdir / "scene.csv")
    for key, config in cases(scene, method):
        args = ["downsample", "-i", str(workdir / "scene.csv"), "-m", method,
                "-a", repr(config.alpha), "--seed", str(config.seed),
                "--window-us", str(config.t_us)]
        if not config.cap_enabled:
            args.append("--no-cap")
        if config.prior is not None:
            args += ["--prior", str(workdir / "prior.txt")]
        got = {}
        for name, out in (("csv", "out.csv"), ("binary", "out.evb")):
            assert cli.main([*args, "-o", str(tmp_path / out), "--log",
                             str(tmp_path / "log.csv")]) == 0
            got[name] = _sha((tmp_path / out).read_bytes())
        got["log_file"] = _sha((tmp_path / "log.csv").read_bytes())
        assert got == {k: EXPECTED[key][k] for k in got}, key
