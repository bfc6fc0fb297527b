"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evdown import SensorGeometry, gaussian_prior, read_events, write_events, \
    write_prior
from evdown.cli import main
from evdown.evio import STATS_KEYS

from conftest import SRC_ENV, make_stream


def synth_args(out, extra=()):
    return ["synth", "--output", str(out), "--width", "32", "--height", "24",
            "--duration-us", "50000", "--noise-rate", "400",
            "--edge", "8,4,8,19,30,4000", "--seed", "5", *extra]


@pytest.fixture
def scene_csv(tmp_path):
    path = tmp_path / "scene.csv"
    assert main(synth_args(path)) == 0
    return path


class TestSynth:
    def test_writes_labeled_csv(self, tmp_path, capsys):
        path = tmp_path / "scene.csv"
        assert main(synth_args(path)) == 0
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,p,label"
        err = capsys.readouterr().err
        assert "synth:" in err and "edge" in err

    def test_zero_duration_exit_2(self, tmp_path):
        args = synth_args(tmp_path / "s.csv")
        args[args.index("--duration-us") + 1] = "0"
        assert main(args) == 2

    def test_bad_edge_spec_exit_2(self, tmp_path):
        args = synth_args(tmp_path / "s.csv", extra=["--edge", "1,2,3"])
        assert main(args) == 2

    @pytest.mark.parametrize("edge, message", [
        ("3,1,3,10,nan,2000", "edge velocity_px_s must be finite"),
        ("3,1,3,10,inf,2000", "edge velocity_px_s must be finite"),
        ("3,1,3,10,50,nan", "edge rate_per_px_s must be finite"),
        ("inf,1,3,10,50,100", "edge x0 must be finite"),
        ("3,1,3,nan,50,100", "edge y1 must be finite"),
        ("1e300,1,3,10,50,100", "edge x0 must lie within 2**31"),
        ("0,1,1e9,1,50,100", "edge 1 spans more than the 65536 px limit")])
    def test_unusable_edge_exit_2(self, tmp_path, edge, message):
        """Each is refused with one line before any pixel walk.  A 1e300 or
        1e9 px edge once walked without bound, so the command runs under a
        10 s timeout in a 1 GiB address space."""
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "evdown.cli",
             *synth_args(out, extra=["--edge", edge])],
            capture_output=True, text=True, env=SRC_ENV, timeout=10,
            preexec_fn=cap_memory)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"evdown: {message}")
        assert proc.stderr.count("\n") == 1 and not out.exists()


    def test_huge_edge_velocity_without_warning(self, tmp_path):
        """A displacement past int64 is clipped before its cast: no
        RuntimeWarning, and the scene of any velocity that shifts the edge
        off the sensor after its first microsecond."""
        def scene(velocity):
            out = tmp_path / f"v{velocity}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["synth", "-o", str(out), "--width", "10",
                             "--height", "10", "--duration-us", "100000",
                             "--noise-rate", "5",
                             "--edge", f"3,1,3,10,{velocity},100"]) == 0
            return out.read_bytes()

        want = scene("1e9")
        assert want.count(b"\n") == 40
        for velocity in ("1e20", "-1e20", "1e300", "1.7e308"):
            assert scene(velocity) == want, velocity


@pytest.mark.parametrize("command, env, message", [
    ("synth", None, "--seed must be >= 0, got -1"),
    ("downsample", None, "--seed must be >= 0, got -1"),
    ("synth", "-1", "EVDOWN_SEED must be >= 0, got -1"),
    ("downsample", "-7", "EVDOWN_SEED must be >= 0, got -7")])
def test_negative_seed_exit_2(scene_csv, tmp_path, monkeypatch, capsys,
                              command, env, message):
    """A negative seed is a usage error naming where it came from, before
    any file is read or written."""
    out = tmp_path / "out.csv"
    args = (synth_args(out)[:-2] if command == "synth"
            else ["downsample", "-i", str(scene_csv), "-o", str(out), "-m",
                  "uniform", "-a", "0.1"])
    if env is None:
        args += ["--seed", "-1"]
    else:
        monkeypatch.setenv("EVDOWN_SEED", env)
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"evdown: {message}\n"
    assert captured.out == "" and not out.exists()


class TestDownsample:
    def base_args(self, scene, out, *extra):
        return ["downsample", "--input", str(scene), "--output", str(out),
                "--method", "uniform", "--alpha", "0.1", "--seed", "3",
                *extra]

    def test_basic_run(self, scene_csv, tmp_path, capsys):
        out = tmp_path / "down.csv"
        assert main(self.base_args(scene_csv, out)) == 0
        original = read_events(scene_csv)
        kept = read_events(out, geometry=original.geometry)
        assert 0 < len(kept) < len(original)
        assert "downsample: kept" in capsys.readouterr().err

    def test_stats_to_stdout(self, scene_csv, tmp_path, capsys):
        out = tmp_path / "down.csv"
        assert main(self.base_args(scene_csv, out, "--stats", "-")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "uniform"
        assert doc["alpha"] == 0.1
        assert 0.08 <= doc["ratio"] <= 0.1

    def test_log_written(self, scene_csv, tmp_path):
        out = tmp_path / "down.csv"
        log = tmp_path / "log.csv"
        assert main(self.base_args(scene_csv, out, "--log", str(log))) == 0
        n_events = len(read_events(scene_csv))
        assert len(log.read_text().splitlines()) == n_events + 1

    def test_alpha_one_reencodes_input_bytes(self, scene_csv, tmp_path):
        out = tmp_path / "full.csv"
        args = self.base_args(scene_csv, out)
        args[args.index("0.1")] = "1.0"
        assert main(args) == 0
        assert out.read_bytes() == scene_csv.read_bytes()

    def test_repeat_runs_byte_identical(self, scene_csv, tmp_path):
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        log1, log2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        assert main(self.base_args(scene_csv, out1, "--log", str(log1))) == 0
        assert main(self.base_args(scene_csv, out2, "--log", str(log2))) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert log1.read_bytes() == log2.read_bytes()

    def test_binary_output_by_extension(self, scene_csv, tmp_path):
        out = tmp_path / "down.bin"
        assert main(self.base_args(scene_csv, out)) == 0
        assert out.read_bytes()[:4] == b"EVDN"

    def test_env_seed_fallback(self, scene_csv, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / f"d{i}.csv" for i in range(3))
        args = ["downsample", "--input", str(scene_csv), "--method",
                "uniform", "--alpha", "0.1"]
        monkeypatch.setenv("EVDOWN_SEED", "3")
        assert main(args + ["--output", str(out1)]) == 0
        monkeypatch.setenv("EVDOWN_SEED", "4")
        assert main(args + ["--output", str(out2)]) == 0
        # explicit flag wins over the environment
        assert main(args + ["--output", str(out3), "--seed", "3"]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_bad_env_seed_exit_2(self, scene_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("EVDOWN_SEED", "pi")
        out = tmp_path / "d.csv"
        args = ["downsample", "--input", str(scene_csv), "--output",
                str(out), "--method", "uniform", "--alpha", "0.1"]
        assert main(args) == 2

    @pytest.mark.parametrize("alpha", ["0.0", "1.5", "-0.2"])
    def test_alpha_domain_exit_2(self, scene_csv, tmp_path, alpha):
        out = tmp_path / "d.csv"
        args = self.base_args(scene_csv, out)
        args[args.index("0.1")] = alpha
        assert main(args) == 2

    def test_missing_input_exit_4(self, tmp_path):
        args = self.base_args(tmp_path / "absent.csv", tmp_path / "o.csv")
        assert main(args) == 4

    @pytest.mark.parametrize("flag", ["--output", "--log", "--stats"])
    def test_output_in_missing_directory_exit_4(self, scene_csv, tmp_path,
                                                capsys, flag):
        """The message names the path given, not the temporary file that
        would have been made beside it."""
        missing = str(tmp_path / "missing" / "x.csv")
        args = self.base_args(scene_csv, tmp_path / "o.csv")
        if flag == "--output":
            args[args.index(flag) + 1] = missing
        else:
            args += [flag, missing]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == (f"evdown: [Errno 2] No such file or directory: "
                       f"{missing!r}\n")
        assert ".tmp" not in err

    def test_malformed_input_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y,p\n1,2,zz,1\n")
        args = self.base_args(bad, tmp_path / "o.csv")
        assert main(args) == 3

    def test_non_ascii_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,x,y,p\n1,2,3,\xff\n")
        assert main(self.base_args(bad, tmp_path / "o.csv")) == 3
        err = capsys.readouterr().err
        assert "bad.csv:2: non-ASCII byte 0xff" in err
        assert "Traceback" not in err

    def test_non_ascii_prior_exit_3(self, scene_csv, tmp_path, capsys):
        prior_path = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(32, 24)), prior_path)
        prior_path.write_bytes(prior_path.read_bytes().replace(b"\n", b"\xe9\n", 2))
        args = ["downsample", "--input", str(scene_csv), "--output",
                str(tmp_path / "d.csv"), "--method", "poisson", "--alpha",
                "0.1", "--prior", str(prior_path)]
        assert main(args) == 3
        assert "prior.txt:1: non-ASCII byte 0xe9" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["99999999999999999999,2,3,1",
                                     f"1,{2**62},3,1"])
    def test_int64_overflow_exit_3(self, tmp_path, capsys, row):
        """A value beyond int64, or a geometry inferred past int64 pixels,
        is a malformed file: exit 3 and no traceback."""
        bad = tmp_path / "big.csv"
        bad.write_text(f"t,x,y,p\n{row}\n")
        args = self.base_args(bad, tmp_path / "o.csv")
        args[args.index("uniform")] = "poisson"
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "64-bit" in err and "Traceback" not in err

    def test_unknown_flag_exit_2(self, scene_csv, tmp_path):
        args = self.base_args(scene_csv, tmp_path / "o.csv", "--turbo")
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2

    def test_missing_required_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["downsample", "--input", "x.csv"])
        assert err.value.code == 2

    def test_unknown_method_exit_2(self, scene_csv, tmp_path):
        args = self.base_args(scene_csv, tmp_path / "o.csv")
        args[args.index("uniform")] = "magic"
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2

    def test_prior_flow(self, scene_csv, tmp_path):
        prior_path = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(32, 24)), prior_path)
        out = tmp_path / "d.csv"
        args = ["downsample", "--input", str(scene_csv), "--output", str(out),
                "--method", "poisson", "--alpha", "0.1", "--seed", "1",
                "--prior", str(prior_path)]
        assert main(args) == 0
        assert len(read_events(out)) > 0

    def test_prior_wrong_dims_exit_3(self, scene_csv, tmp_path):
        prior_path = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(4, 4)), prior_path)
        out = tmp_path / "d.csv"
        args = ["downsample", "--input", str(scene_csv), "--output", str(out),
                "--method", "poisson", "--alpha", "0.1",
                "--prior", str(prior_path)]
        assert main(args) == 3

    def test_prior_with_uniform_exit_2(self, scene_csv, tmp_path):
        prior_path = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(32, 24)), prior_path)
        args = self.base_args(scene_csv, tmp_path / "d.csv",
                              "--prior", str(prior_path))
        assert main(args) == 2

    def test_no_cap(self, scene_csv, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(self.base_args(scene_csv, out, "--no-cap",
                                   "--stats", "-")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capped"] == 0

    @pytest.mark.parametrize("first, second", [
        ("--output", "--log"), ("--output", "--stats"), ("--log", "--stats")])
    def test_outputs_on_one_file_exit_2(self, tmp_path, capsys, first,
                                        second):
        """Two outputs that resolve to one file, here through a symbolic
        link, would leave only the one written last: refused before the
        input (missing here) is read, and nothing is written."""
        (tmp_path / "alias").symlink_to(tmp_path)
        paths = {"--output": tmp_path / "out.csv",
                 "--log": tmp_path / "log.csv",
                 "--stats": tmp_path / "stats.json"}
        paths[second] = tmp_path / "alias" / paths[first].name
        args = ["downsample", "-i", str(tmp_path / "missing.csv"),
                "-m", "uniform", "-a", "0.5"]
        for flag, path in paths.items():
            args += [flag, str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"evdown: {first} and {second} name one file: {paths[second]}\n")
        assert not any(path.exists() for path in paths.values())

    def test_input_replaced_in_place(self, scene_csv, tmp_path):
        want = tmp_path / "want.csv"
        assert main(self.base_args(scene_csv, want)) == 0
        assert main(self.base_args(scene_csv, scene_csv)) == 0
        assert scene_csv.read_bytes() == want.read_bytes()


# Runs the command line given as arguments, then prints its peak RSS in
# kB: VmHWM, which starts afresh at exec.
_PEAK_RSS_CHILD = """
import sys
from evdown.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc for the peak RSS")
def test_long_line_refused_in_bounded_memory(scene_csv, tmp_path):
    """A row padded with 32 MiB of spaces, which int() takes, is refused
    as longer than 1 MiB: exit 3 with one line naming it, and the command
    peaks within 16 MB of a valid run instead of reading the line whole
    (which took some 100 MB more)."""
    lines = scene_csv.read_bytes().split(b"\n")
    lines[5] = b" " * (32 << 20) + lines[5]
    padded = tmp_path / "padded.csv"
    padded.write_bytes(b"\n".join(lines))
    peaks = {}
    for name, src in (("valid", scene_csv), ("padded", padded)):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_CHILD, "downsample", "-i",
             str(src), "-o", str(tmp_path / f"{name}-out.csv"), "-m",
             "uniform", "-a", "0.1"],
            capture_output=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == (0 if name == "valid" else 3), proc.stderr
        peaks[name] = int(proc.stdout)
    assert proc.stderr.decode().splitlines() == [
        f"evdown: {padded}:6: line longer than 1048576 bytes"]
    assert peaks["padded"] < peaks["valid"] + 16_000, peaks


def _edit_row(data: bytes, edit) -> bytes:
    """The CSV data with its second event row (line 3) edited."""
    lines = data.split(b"\n")
    lines[2] = edit(lines[2])
    return b"\n".join(lines)


_ROW_EDITS = {
    "valid": lambda row: row,
    # The line loop refuses it with a message naming line 3.
    "bad-polarity": lambda row: b",".join(
        [*row.split(b",")[:3], b"7", *row.split(b",")[4:]]),
    # The compiled parser refuses it; the line loop reads it.
    "leading-plus": lambda row: b"+" + row}


class TestPipedInput:
    """A pipe is read once, as CSV: a command given /dev/stdin gets from
    piped bytes what it gets from a regular file holding them."""

    @staticmethod
    def evdown(*args, data=b""):
        return subprocess.run([sys.executable, "-m", "evdown.cli", *args],
                              input=data, capture_output=True, env=SRC_ENV,
                              timeout=120)

    @pytest.mark.parametrize("fmt, case", [
        ("auto", "valid"), ("auto", "bad-polarity"), ("csv", "bad-polarity"),
        ("auto", "leading-plus"), ("csv", "leading-plus")])
    def test_downsample(self, scene_csv, tmp_path, fmt, case):
        data = _edit_row(scene_csv.read_bytes(), _ROW_EDITS[case])
        src = tmp_path / "in.csv"
        src.write_bytes(data)
        args = ["downsample", "-m", "poisson", "-a", "0.2", "--format", fmt,
                "--log"]
        want = self.evdown(*args, str(tmp_path / "want-log.csv"), "-i",
                           str(src), "-o", str(tmp_path / "want.csv"))
        got = self.evdown(*args, str(tmp_path / "got-log.csv"), "-i",
                          "/dev/stdin", "-o", str(tmp_path / "got.csv"),
                          data=data)
        assert want.returncode == (3 if case == "bad-polarity" else 0)
        assert got.returncode == want.returncode
        assert got.stderr == want.stderr.replace(bytes(src), b"/dev/stdin")
        for name in ("{}.csv", "{}-log.csv"):
            want_file = tmp_path / name.format("want")
            got_file = tmp_path / name.format("got")
            if want.returncode:
                assert not got_file.exists()
            else:
                assert got_file.read_bytes() == want_file.read_bytes()

    @pytest.mark.parametrize("case, code", [("valid", 0), ("prior", 3),
                                            ("output", 4)])
    def test_copy_closed_on_every_exit(self, scene_csv, tmp_path, case,
                                       code):
        """A pipe is read from a temporary copy; an exit that left it open
        would warn under -X dev, here an error: a prior of the wrong size
        (exit 3) and an output in a missing directory (exit 4) end the
        command before the second pass, which closes it."""
        prior = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(4, 4)), prior)
        out = tmp_path / ("missing/out.csv" if case == "output" else "out.csv")
        args = ["-i", "/dev/stdin", "-o", str(out), "-m", "poisson", "-a",
                "0.2", *(["--prior", str(prior)] if case == "prior" else [])]
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "evdown.cli", "downsample", *args],
            input=scene_csv.read_bytes(), capture_output=True, env=SRC_ENV,
            timeout=120)
        assert proc.returncode == code, proc.stderr
        assert b"Warning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_metrics_original(self, scene_csv, tmp_path):
        down = tmp_path / "down.csv"
        assert main(["downsample", "-i", str(scene_csv), "-o", str(down),
                     "-m", "uniform", "-a", "0.3"]) == 0
        args = ["metrics", "--downsampled", str(down), "--out", "-",
                "--original"]
        want = self.evdown(*args, str(scene_csv))
        got = self.evdown(*args, "/dev/stdin", data=scene_csv.read_bytes())
        assert want.returncode == got.returncode == 0, got.stderr
        assert got.stdout == want.stdout

    def test_binary_refused_exit_3(self, scene_csv, tmp_path):
        """A binary file is read by offset, which a pipe cannot be."""
        src, out = tmp_path / "in.bin", tmp_path / "out.csv"
        write_events(read_events(scene_csv), src)
        proc = self.evdown("downsample", "-m", "uniform", "-a", "0.5",
                           "--format", "binary", "-i", "/dev/stdin",
                           "-o", str(out), data=src.read_bytes())
        assert proc.returncode == 3
        assert proc.stderr == (b"evdown: /dev/stdin: binary input must be a "
                               b"regular file (its records are read by "
                               b"offset)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["downsample", "metrics"])
    def test_binary_without_format_exit_3(self, scene_csv, tmp_path, command):
        """Piped binary without --format is refused as --format binary
        refuses it, not read as a CSV with a non-ASCII byte."""
        src, out, log = (tmp_path / name for name in ("in.bin", "out", "log"))
        write_events(read_events(scene_csv), src)
        data = src.read_bytes()
        args = ["downsample", "-m", "uniform", "-a", "0.5", "-i", "/dev/stdin",
                "-o", str(out), "--log", str(log)]
        want = self.evdown(*args, "--format", "binary", data=data)
        if command == "metrics":
            args = ["metrics", "--original", "/dev/stdin", "--downsampled",
                    str(src), "--out", str(out)]
        got = self.evdown(*args, data=data)
        assert want.returncode == got.returncode == 3
        assert got.stderr == want.stderr
        assert b"binary input must be a regular file" in got.stderr
        assert got.stdout == b"" and not out.exists() and not log.exists()


@pytest.mark.parametrize("argv", [
    [*args, flag, "99999999999999999999"]
    for args, flag in (
        *((["downsample", "-m", method, "-a", "0.5"], "--window-us")
          for method in ("deterministic", "uniform", "poisson")),
        *((["downsample", "-m", method, "-a", "0.5"], "--tw-us")
          for method in ("deterministic", "uniform", "poisson")),
        (["metrics", "--out", "-"], "--window-us"))])
def test_window_past_int64_exit_2(scene_csv, tmp_path, capsys, argv):
    """A window length past 2**63 - 1 is a usage error naming its flag."""
    files = (["--input", str(scene_csv), "--output", str(tmp_path / "d.csv")]
             if argv[0] == "downsample"
             else ["--original", str(scene_csv), "--downsampled",
                   str(scene_csv)])
    assert main([argv[0], *files, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"evdown: {argv[-2]} must be at most 2**63 - 1, "
                            f"got {argv[-1]}\n")
    assert captured.out == "" and not (tmp_path / "d.csv").exists()


class TestMetrics:
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "5", "-1", "0"])
    def test_bad_alpha_exit_2(self, scene_csv, capsys, alpha):
        assert main(["metrics", "--original", str(scene_csv),
                     "--downsampled", str(scene_csv), "--out", "-",
                     f"--alpha={alpha}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("evdown: --alpha must be in (0, 1]")
        assert captured.out == ""

    def test_report(self, scene_csv, tmp_path, capsys):
        down = tmp_path / "down.csv"
        assert main(["downsample", "--input", str(scene_csv), "--output",
                     str(down), "--method", "uniform", "--alpha", "0.2",
                     "--seed", "1"]) == 0
        assert main(["metrics", "--original", str(scene_csv),
                     "--downsampled", str(down), "--out", "-",
                     "--alpha", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("alpha", "method", "seed", "processed", "retained",
                    "capped", "ratio", "per_window_ratios",
                    "ms_per_kev_total", "ms_per_kev_pdf", "ms_per_kev_eval",
                    "selectivity"):
            assert key in doc
        assert doc["method"] is None
        assert 0.15 <= doc["ratio"] <= 0.2
        assert 0.9 <= doc["selectivity"]["ratio"] <= 1.1

    def test_keys_in_stats_order(self, scene_csv, tmp_path, capsys):
        assert main(["metrics", "--original", str(scene_csv),
                     "--downsampled", str(scene_csv), "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == list(STATS_KEYS) + ["selectivity"]
        for key in ("alpha", "method", "seed", "capped", "ms_per_kev_total",
                    "ms_per_kev_pdf", "ms_per_kev_eval"):
            assert doc[key] is None
        assert doc["processed"] == doc["retained"] > 0
        assert doc["ratio"] == 1.0

    def test_non_ascii_downsampled_exit_3(self, scene_csv, tmp_path, capsys):
        bad = tmp_path / "down.csv"
        bad.write_bytes(b"t,x,y,p,label\n1,2,3,1,\xc9\n")
        assert main(["metrics", "--original", str(scene_csv),
                     "--downsampled", str(bad), "--out", "-"]) == 3
        assert "down.csv:2: non-ASCII byte 0xc9" in capsys.readouterr().err

    def test_non_subset_exit_3(self, scene_csv, tmp_path):
        stranger = tmp_path / "other.csv"
        write_events(make_stream(SensorGeometry(32, 24), [(1, 31, 23, 1)]),
                     stranger)
        assert main(["metrics", "--original", str(scene_csv),
                     "--downsampled", str(stranger), "--out", "-"]) == 3

    def test_unlabeled_non_subset_exit_3(self, tmp_path, capsys):
        """Membership is checked without labels too: 2 original events
        against 3 unrelated ones is no ratio of 1.5."""
        original, down = tmp_path / "orig.csv", tmp_path / "down.csv"
        write_events(make_stream(SensorGeometry(4, 4),
                                 [(1, 0, 0, 1), (2, 1, 1, 0)]), original)
        write_events(make_stream(SensorGeometry(4, 4),
                                 [(5, 3, 3, 1), (6, 2, 2, 0), (7, 1, 0, 1)]),
                     down)
        assert main(["metrics", "--original", str(original),
                     "--downsampled", str(down), "--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "evdown: downsampled event 0 (t=5, x=3, y=3, p=1) is not a "
            "member of the original stream\n")

    def test_span_of_2_63_us_exit_0(self, tmp_path, capsys):
        """Timestamps 0 and 2**63 - 1: two windows, not one per 6 ms."""
        wide = tmp_path / "wide.csv"
        write_events(make_stream(SensorGeometry(2, 2),
                                 [(0, 0, 0, 1), (2**63 - 1, 1, 1, 0)]), wide)
        assert main(["metrics", "--original", str(wide),
                     "--downsampled", str(wide), "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_window_ratios"] == [1.0, 1.0]


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "evdown.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "downsample" in proc.stdout

    def test_no_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestWithoutScipy:
    """evdown needs numpy only; scipy is a test dependency.  Each test
    starts a fresh interpreter, where nothing else has imported scipy."""

    # Runs the CLI with every scipy import refused.
    NO_SCIPY_MAIN = """
import sys
from pathlib import Path

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"no module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from evdown.cli import main
sys.exit(main(sys.argv[1:]))
"""

    def python(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=SRC_ENV, timeout=120)

    def test_import_loads_no_scipy(self):
        proc = self.python("-c", "import sys, evdown, evdown.cli; print("
                           "[m for m in sys.modules if m.startswith('scipy')])")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_downsample_poisson_with_scipy_refused(self, scene_csv, tmp_path):
        def args(tag):
            return ["downsample", "-i", str(scene_csv),
                    "-o", str(tmp_path / f"{tag}.csv"), "-m", "poisson",
                    "-a", "0.3", "--seed", "4",
                    "--log", str(tmp_path / f"{tag}-log.csv")]
        assert main(args("normal")) == 0
        proc = self.python("-c", self.NO_SCIPY_MAIN, *args("refused"))
        assert proc.returncode == 0, proc.stderr
        for name in ("{}.csv", "{}-log.csv"):
            assert ((tmp_path / name.format("refused")).read_bytes()
                    == (tmp_path / name.format("normal")).read_bytes())


def test_benchmark_tracer_installs():
    """perfbench's tracer patches names in evdown.cli and evdown.pipeline;
    dropping one of them fails here, not only in a traced benchmark run."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import worker; "
             "worker.Tracer(0).install(worker.load_evdown())")
    proc = subprocess.run([sys.executable, "-c", probe, str(perfbench)],
                          capture_output=True, text=True, env=SRC_ENV,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_smoke(trace):
    """The benchmark's smoke mode, traced and not, runs every workload and
    check on tiny scenes against this checkout, so a public name it calls
    (or a name its tracer patches) cannot go missing unseen."""
    pytest.importorskip("scipy")  # its machine header imports scipy
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", trace],
        cwd=Path(__file__).resolve().parents[1], capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
