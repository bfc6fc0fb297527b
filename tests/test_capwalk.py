"""The cap walk: compiled kernel vs Python loop vs the per-event cap rule
(``conftest.per_event_walk``), and the loader's fallbacks."""

import hashlib
import json
import math
import shutil
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evdown import (SamplerConfig, capwalk, read_events, read_log, run,
                    write_events, write_log)
from evdown.cli import main

from conftest import SRC_ENV, per_event_walk, random_stream, reference_run

ALPHAS = [1.0, 0.1, 0.3, 1 / 3, 0.7, math.nextafter(1.0, 0.0)]
HAS_CC = shutil.which("cc") is not None


def python_walk(p, draws, alpha):
    codes = np.empty(p.shape[0], np.uint8)
    retained, _ = capwalk._walk_python(p, draws, alpha, codes)
    return codes.tolist(), retained


def walk(p, draws, alpha):
    codes = np.empty(p.shape[0], np.uint8)
    retained, _ = capwalk.cap_walk(p, draws, alpha, codes)
    return codes.tolist(), retained


def assert_walks_agree(p, draws, alpha):
    """Per-event cap, Python loop and (where it builds) compiled kernel."""
    expected = per_event_walk(p, None if draws is None else draws[:p.size],
                              alpha)
    assert python_walk(p, draws, alpha) == expected
    if capwalk._kernel() is not None:
        assert walk(p, draws, alpha) == expected


probabilities = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.5]),
                          st.floats(0.0, 1.0))
unit_draws = st.floats(0.0, 1.0, exclude_max=True)


P = np.random.default_rng(8).random(5000) * 0.4
DRAWS = np.random.default_rng(9).random(5000)
EXPECTED = per_event_walk(P, DRAWS, 0.1)


class TestWalksAgree:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @settings(max_examples=150, deadline=None)
    @given(p=st.lists(probabilities, max_size=200),
           draw_seed=st.integers(0, 2**32 - 1),
           stochastic=st.booleans())
    @example(p=[], draw_seed=0, stochastic=True)
    @example(p=[], draw_seed=0, stochastic=False)
    @example(p=[1.0], draw_seed=0, stochastic=True)
    @example(p=[0.0], draw_seed=0, stochastic=False)
    @example(p=[1.0] * 40, draw_seed=0, stochastic=True)
    @example(p=[1.0] * 40, draw_seed=0, stochastic=False)
    def test_compiled_python_and_per_event(self, alpha, p, draw_seed,
                                           stochastic):
        """Runs of p = 1 put retained on the cap's edge at every k, where
        ``alpha * k`` rounds."""
        p = np.asarray(p, dtype=np.float64)
        draws = None
        if stochastic:
            draws = np.random.default_rng(draw_seed).random(p.size)
        else:
            p = (p > 0.5).astype(np.float64)
        assert_walks_agree(p, draws, alpha)

    @given(p=st.lists(probabilities, min_size=1, max_size=60),
           u=st.lists(unit_draws, min_size=60, max_size=60),
           alpha=st.sampled_from(ALPHAS))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_draws(self, p, u, alpha):
        assert_walks_agree(np.asarray(p, dtype=np.float64),
                           np.asarray(u, dtype=np.float64), alpha)

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_python_walk_across_blocks(self, monkeypatch, stochastic):
        """Blocks of 7 events: the draw index carries across blocks."""
        monkeypatch.setattr(capwalk, "_BLOCK", 7)
        p = P if stochastic else (P > 0.2).astype(np.float64)
        draws = DRAWS if stochastic else None
        assert python_walk(p, draws, 0.1) == per_event_walk(p, draws, 0.1)

    def test_nonzero_p_accepted_without_draws(self, cap_walk):
        p = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        assert walk(p, None, 1.0) == ([0, 1, 0, 0, 1, 0], 4)
        assert walk(p, None, 0.5) == ([0, 2, 0, 2, 1, 0], 3)

    def test_rejects_mismatched_arrays(self):
        p = np.full(4, 0.5)
        with pytest.raises(ValueError, match="draws"):
            capwalk.cap_walk(p, np.zeros(3), 0.5, np.empty(4, np.uint8))
        with pytest.raises(ValueError, match="codes"):
            capwalk.cap_walk(p, None, 0.5, np.empty(4, np.int64))
        with pytest.raises(ValueError, match="codes"):
            capwalk.cap_walk(p, None, 0.5, np.empty(5, np.uint8))
        with pytest.raises(ValueError, match="one-dimensional"):
            capwalk.cap_walk(np.full((2, 2), 0.5), None, 0.5,
                             np.empty(2, np.uint8))


class TestResume:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(p=st.lists(probabilities, max_size=120),
           draw_seed=st.integers(0, 2**32 - 1),
           stochastic=st.booleans(),
           split=st.integers(0, 120),
           spare=st.integers(0, 5),
           alpha=st.sampled_from(ALPHAS))
    @example(p=[1.0] * 40, draw_seed=0, stochastic=True, split=17, spare=0,
             alpha=0.3)
    def test_two_resumed_walks_equal_one(self, cap_walk, p, draw_seed,
                                         stochastic, split, spare, alpha):
        """The second walk gets the first's retained, its k and the draws
        it left unused, topped up with the ones that follow."""
        p = np.asarray(p, dtype=np.float64)
        split = min(split, p.size)
        draws = None
        if stochastic:
            draws = np.random.default_rng(draw_seed).random(p.size + spare)
        else:
            p = (p > 0.5).astype(np.float64)
        codes = np.empty(p.size, np.uint8)
        retained, used = capwalk.cap_walk(p, draws, alpha, codes)
        assert (codes.tolist(), retained) == per_event_walk(p, draws, alpha)
        assert used == (0 if draws is None
                        else int(np.count_nonzero(codes != 2)))

        first, second = (np.empty(split, np.uint8),
                         np.empty(p.size - split, np.uint8))
        head = None if draws is None else draws[:split + spare]
        r1, u1 = capwalk.cap_walk(p[:split], head, alpha, first)
        rest = None if draws is None else draws[u1:]
        r2, u2 = capwalk.cap_walk(p[split:], rest, alpha, second, split, r1)
        assert np.concatenate([first, second]).tolist() == codes.tolist()
        assert (r2, u1 + u2) == (retained, used)

    def test_bad_resume_point(self):
        p = np.full(3, 0.5)
        for k0, r0 in ((-1, 0), (2, 3), (0, -1)):
            with pytest.raises(ValueError, match="resume"):
                capwalk.cap_walk(p, None, 0.5, np.empty(3, np.uint8), k0, r0)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_compiled_walk_active_when_compiler_present():
    """A silent fallback to the Python loop passes every other test."""
    assert capwalk.implementation() == "compiled"


# --- the loader ------------------------------------------------------------

@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty kernel cache; the process-wide kernel is looked up
    again before and after the test."""
    path = tmp_path / "cache"
    monkeypatch.setattr(capwalk, "_CACHE_DIR", path)
    capwalk._kernel.cache_clear()
    yield path
    capwalk._kernel.cache_clear()


def fake_compiler(bin_dir, script):
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return bin_dir


def kernel_files(cache_dir):
    return sorted(cache_dir.glob("capwalk-*.so"))


def damage(path, data):
    """Replace the file with a new one: truncating a loaded shared object
    in place would crash this process."""
    path.unlink()
    path.write_bytes(data)


def trailer_ok(path):
    data = path.read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


class TestLoaderFallback:
    def test_no_compiler_on_path(self, cache_dir, tmp_path, monkeypatch):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_unwritable_cache_directory(self, cache_dir, tmp_path,
                                        monkeypatch):
        # A path below a regular file cannot be created, even by root.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(capwalk, "_CACHE_DIR", tmp_path / "file" / "c")
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    @pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
    def test_compile_error(self, cache_dir, monkeypatch):
        monkeypatch.setattr(capwalk, "_SOURCE", "this is not C\n")
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED
        assert list(cache_dir.iterdir()) == []

    def test_compiler_timeout(self, cache_dir, tmp_path, monkeypatch):
        bin_dir = fake_compiler(tmp_path / "bin",
                                f"exec {shutil.which('sleep')} 30\n")
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.setattr(capwalk, "_COMPILE_TIMEOUT_S", 0.5)
        t0 = time.monotonic()
        assert capwalk.implementation() == "python"
        assert time.monotonic() - t0 < 10
        assert walk(P, DRAWS, 0.1) == EXPECTED
        assert list(cache_dir.iterdir()) == []

    def test_compiler_output_that_does_not_load(self, cache_dir, tmp_path,
                                                monkeypatch):
        """``ctypes.CDLL`` raises OSError on it, which the CLI would report
        as an I/O failure."""
        script = ('while [ "$1" != -o ]; do shift; done\n'
                  'echo "not a shared object" > "$2"\n')
        monkeypatch.setenv("PATH", str(fake_compiler(tmp_path / "bin",
                                                     script)))
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
class TestLoaderCache:
    def test_builds_once_then_hits_without_compiler(self, cache_dir,
                                                    monkeypatch):
        assert capwalk.implementation() == "compiled"
        [path] = kernel_files(cache_dir)
        assert trailer_ok(path)
        assert [p.name for p in cache_dir.iterdir()] == [path.name]
        capwalk._kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")
        monkeypatch.setattr(capwalk, "_build", no_compiler)
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert capwalk.implementation() == "compiled"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty",
                                        "no trailer", "flipped byte"])
    def test_damaged_cache_file_is_rebuilt(self, cache_dir, tmp_path,
                                           monkeypatch, damage):
        """The damaged file goes to a path never loaded in this process, so
        the loader sees it; mapping a truncated shared object can kill the
        process with SIGBUS."""
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        good = built.read_bytes()
        bad = {"truncated": good[:len(good) // 2],
               "garbage": b"\x7fELF" + bytes(range(256)) * 8,
               "empty": b"",
               "no trailer": good[:-32],
               "flipped byte": good[:2000] + bytes([good[2000] ^ 0xFF])
               + good[2001:]}[damage]
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(bad)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() == "compiled"
        assert trailer_ok(other / built.name)
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_cached_library_without_expit(self, cache_dir, tmp_path,
                                          monkeypatch):
        """A sound cached file built from a source without the sigmoid
        (as before the sigmoid joined the kernels) is replaced by a full
        build, which the next process loads.  This process may already
        hold the old file mapped under that name, so it may run the Python
        loops."""
        x = np.linspace(-800.0, 800.0, 4001)
        assert capwalk.implementation() == "compiled"
        expected = capwalk.expit(x)
        [built] = kernel_files(cache_dir)
        old = tmp_path / "old.so"
        subprocess.run([*capwalk._COMPILE, "-o", str(old)],
                       input=capwalk._SOURCE.split("void expit")[0],
                       text=True, capture_output=True, check=True)
        planted = old.read_bytes()
        planted += hashlib.sha256(planted).digest()
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(planted)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() in ("compiled", "python")
        assert np.array_equal(capwalk.expit(x).view(np.uint64),
                              expected.view(np.uint64))
        assert walk(P, DRAWS, 0.1) == EXPECTED
        rebuilt = (other / built.name).read_bytes()
        assert rebuilt != planted and trailer_ok(other / built.name)
        probe = ("import sys; from pathlib import Path; from evdown import "
                 "capwalk; capwalk._CACHE_DIR = Path(sys.argv[1]); "
                 "capwalk._build = None; print(capwalk.implementation())")
        proc = subprocess.run([sys.executable, "-c", probe, str(other)],
                              capture_output=True, text=True, env=SRC_ENV,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "compiled\n")

    def test_cached_library_without_parsers(self, cache_dir, tmp_path,
                                            monkeypatch):
        """A sound cached file built from a source without the text parsers
        (as before they joined the kernels) is replaced by a full build,
        which the next process loads and parses with.  In this process the
        readers may fall back to the line loops; the results are the same."""
        stream = random_stream(np.random.default_rng(6), n=2000)
        src = tmp_path / "in.csv"
        write_events(stream, src)
        _, _, log = run(stream, "poisson", SamplerConfig(alpha=0.3, seed=1))
        log_path = tmp_path / "log.csv"
        write_log(log, log_path)
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        old = tmp_path / "old.so"
        subprocess.run([*capwalk._COMPILE, "-o", str(old)],
                       input=capwalk._SOURCE.split("/* The text parsers")[0],
                       text=True, capture_output=True, check=True)
        planted = old.read_bytes()
        planted += hashlib.sha256(planted).digest()
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(planted)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() in ("compiled", "python")
        assert read_events(src) == stream
        back = read_log(log_path)
        for got, want in zip((back.t, back.window, back.code,
                              back.probability),
                             (log.t, log.window, log.code, log.probability)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        rebuilt = (other / built.name).read_bytes()
        assert rebuilt != planted and trailer_ok(other / built.name)
        probe = ("import sys; from pathlib import Path; from evdown import "
                 "capwalk, evio; capwalk._CACHE_DIR = Path(sys.argv[1]); "
                 "capwalk._build = None; "
                 "log = Path(sys.argv[3]).read_bytes(); "
                 "print(evio._parse_csv_compiled(sys.argv[2]) is not None, "
                 "capwalk.parse_log(log, log.index(b'\\n') + 1) "
                 "is not None)")
        proc = subprocess.run([sys.executable, "-c", probe, str(other),
                               str(src), str(log_path)],
                              capture_output=True, text=True, env=SRC_ENV,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "True True\n")

    def test_damaged_cache_file_without_compiler(self, cache_dir, tmp_path,
                                                 monkeypatch):
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        damage(built, built.read_bytes()[:3000])
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    @pytest.mark.parametrize("compiler", [True, False])
    def test_downsample_exits_0_with_damaged_cache(self, cache_dir, tmp_path,
                                                   monkeypatch, compiler):
        rng = np.random.default_rng(2)
        stream = random_stream(rng, n=3000)
        src = tmp_path / "in.evb"
        write_events(stream, str(src), fmt="binary")
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        damage(built, built.read_bytes()[:3000])
        capwalk._kernel.cache_clear()
        if not compiler:
            (tmp_path / "empty").mkdir()
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        out = tmp_path / "out.evb"
        log = tmp_path / "log.csv"
        assert main(["downsample", "-i", str(src), "-o", str(out), "-m",
                     "uniform", "-a", "0.1", "--seed", "4",
                     "--log", str(log)]) == 0
        assert capwalk.implementation() == ("compiled" if compiler
                                            else "python")
        codes, _, _, _ = reference_run(stream, "uniform",
                                       SamplerConfig(alpha=0.1, seed=4))
        assert read_log(str(log)).code.tolist() == codes


def test_bench_reports_cap_walk(cap_walk, tmp_path, capsys):
    src = tmp_path / "in.evb"
    write_events(random_stream(np.random.default_rng(1), n=500), str(src),
                 fmt="binary")
    assert main(["bench", "-i", str(src), "-m", "uniform", "-a", "0.1",
                 "--repeat", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["cap_walk"] == cap_walk
