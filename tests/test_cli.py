"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys
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


class TestMetrics:
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


    def test_span_of_2_63_us_exit_0(self, tmp_path, capsys):
        """Timestamps 0 and 2**63 - 1: two windows, not one per 6 ms."""
        wide = tmp_path / "wide.csv"
        write_events(make_stream(SensorGeometry(2, 2),
                                 [(0, 0, 0, 1), (2**63 - 1, 1, 1, 0)]), wide)
        assert main(["metrics", "--original", str(wide),
                     "--downsampled", str(wide), "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_window_ratios"] == [1.0, 1.0]


class TestBench:
    def test_report(self, scene_csv, capsys):
        assert main(["bench", "--input", str(scene_csv), "--method",
                     "poisson", "--alpha", "0.1", "--repeat", "2",
                     "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "poisson"
        assert doc["repeat"] == 2
        assert doc["events"] > 0
        assert doc["ms_per_kev_total"] > 0
        assert doc["ms_per_kev_pdf"] >= 0

    def test_bad_repeat_exit_2(self, scene_csv):
        assert main(["bench", "--input", str(scene_csv), "--method",
                     "uniform", "--alpha", "0.1", "--repeat", "0"]) == 2


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
