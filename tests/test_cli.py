"""The command-line contract: exit codes 0/1/2/3 without tracebacks,
byte-identical reruns, outputs that do not depend on UCSK_THREADS, curve
bytes pinned by digest, and manifests with exactly the documented keys."""

import hashlib
import json

import pytest

from ucsk import cli, linksim
from ucsk.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from ucsk.colorimetry import ChromaticityPoint, in_gamut
from ucsk.constellation import (
    build_constellation,
    constellation_document,
    write_constellation_json,
)
from ucsk.linksim import InfeasibleConstellationError
from ucsk.optimizer import ConvergenceError
from ucsk.presets import led_triangle_gamut

MANIFEST_KEYS = {"subcommand", "parameters", "inputs", "tool_version", "seed"}

# SHA-256 of the small curves written by ``_small_curves``.  For a fixed
# seed the output bytes must not move; a change in the Monte Carlo
# streams, the SNR convention or the CSV text shows up here.
GOLDEN_SHA256 = {
    "ser.csv": "c50f16e551f18e4de5bdb0d4ba6d32873b5f50858befcb6c028469ad2d506293",
    "ser.ub.csv": "8a1932eed52596f8557b56e8320238cb8bdde8fdd059e0f855cab81bf9cbe022",
    "rate-ucsk.csv": "bf88fde422d996009a07be19afd2428eff1524ac0be2383767042959e13bd7fc",
    "rate-ook.csv": "7fa36dc9d92c69afd04627191f26be8e587180d844db7a150ac627edfd252c88",
}


def _design(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["design", "--preset", "1", "--starts", "2", "--out", str(out), *extra])
    return code, out


def _renderable_design(path):
    """Write a constellation strictly inside the LED triangle."""
    r, g = ChromaticityPoint(0.45, 0.30), ChromaticityPoint(0.30, 0.55)
    c = build_constellation(r, g)
    write_constellation_json(path, constellation_document(c))
    return path


def _small_curves(tmp_path):
    """Run ser and both rate schemes at 10k symbols; name -> SHA-256."""
    design = _renderable_design(tmp_path / "c.json")
    link = ["--water", "seawater", "--distance", "10", "--snr", "0:5:30", "--seed", "7"]
    runs = {
        "ser.csv": ["ser", "--constellation", str(design), "--symbols", "10000"],
        "rate-ucsk.csv": ["rate", "--scheme", "ucsk", "--constellation", str(design),
                          "--samples", "10000"],
        "rate-ook.csv": ["rate", "--scheme", "ook", "--wavelength", "460",
                         "--samples", "10000"],
    }
    for name, argv in runs.items():
        assert main([*argv, *link, "--out", str(tmp_path / name)]) == EXIT_OK
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }


def _ser_args(constellation, out, distance="10"):
    return [
        "ser", "--constellation", str(constellation), "--water", "seawater",
        "--distance", distance, "--snr", "10:10:20", "--symbols", "10000",
        "--out", str(out),
    ]


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        code, out = _design(tmp_path, "d.json", "--gamut", "led-triangle")
        assert code == EXIT_OK
        assert out.exists()
        assert "achieved d_min" in capsys.readouterr().out

    def test_zero_starts_is_usage_error(self, tmp_path, capsys):
        code = main(["design", "--preset", "1", "--starts", "0",
                     "--out", str(tmp_path / "e.json")])
        assert code == EXIT_USAGE
        assert "usage error: multistart_count" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("subcommand", ["ser", "rate"])
    def test_negative_distance_is_usage_error(self, tmp_path, capsys, subcommand):
        out = tmp_path / "curve.csv"
        if subcommand == "ser":
            argv = _ser_args("table1-t3o1", out, distance="-1")
        else:
            argv = ["rate", "--scheme", "ook", "--wavelength", "460",
                    "--water", "seawater", "--distance", "-1",
                    "--snr", "10:10:20", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: distance" in capsys.readouterr().err
        assert not out.exists()

    def test_horseshoe_design_outside_led_triangle_is_infeasible(
        self, tmp_path, capsys
    ):
        code, design = _design(tmp_path, "d.json", "--gamut", "horseshoe")
        assert code == EXIT_OK
        g = json.loads(design.read_text())["points"]["G"]
        assert not in_gamut(ChromaticityPoint(*g), led_triangle_gamut())
        assert main(_ser_args(design, tmp_path / "ser.csv")) == EXIT_INFEASIBLE
        assert "infeasible constellation" in capsys.readouterr().err

    def test_reproduce_design_failure_is_infeasible(
        self, tmp_path, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise ConvergenceError("no start converged", [])

        monkeypatch.setattr(cli, "design_constellation", fail)
        argv = ["reproduce", "--figure", "4b", "--out", str(tmp_path / "b")]
        assert main(argv) == EXIT_INFEASIBLE
        assert "design failed: no start converged" in capsys.readouterr().err
        assert not (tmp_path / "b" / "manifest.json").exists()

    @pytest.mark.parametrize("figure", ["4a", "4b"])
    def test_reproduce_curve_failure_is_infeasible(
        self, tmp_path, capsys, monkeypatch, figure
    ):
        def fail(*args, **kwargs):
            raise InfeasibleConstellationError("symbol G is outside")

        monkeypatch.setattr(linksim, "build_hypotheses", fail)
        monkeypatch.setattr(cli, "build_hypotheses", fail)
        out = tmp_path / figure
        code = main(["reproduce", "--figure", figure, "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "infeasible constellation: symbol G is outside" in err
        assert not (out / "manifest.json").exists()

    def test_reproduce_write_failure_is_io_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_curve_csv", fail)
        out = tmp_path / "a"
        assert main(["reproduce", "--figure", "4a", "--out", str(out)]) == EXIT_IO
        assert "cannot write output: disk full" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unreadable_constellation_is_io_error(self, tmp_path, capsys):
        argv = _ser_args(tmp_path / "missing.json", tmp_path / "ser.csv")
        assert main(argv) == EXIT_IO
        assert "cannot read constellation" in capsys.readouterr().err


class TestReproducibility:
    def test_design_reruns_are_byte_identical(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            code, out = _design(tmp_path / name, "d.json", "--gamut", "led-triangle")
            assert code == EXIT_OK
            manifest = out.with_name(out.name + ".manifest.json")
            runs.append((out.read_bytes(), manifest.read_bytes()))
        assert runs[0] == runs[1]

    def test_reproduce_4a_independent_of_threads(self, tmp_path, monkeypatch):
        bundles = []
        for threads in ("1", "2"):
            monkeypatch.setenv("UCSK_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert main(["reproduce", "--figure", "4a", "--out", str(out)]) == EXIT_OK
            bundles.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert len(bundles[0]) == 10
        assert bundles[0] == bundles[1]

    def test_small_curves_match_recorded_digests(self, tmp_path):
        assert _small_curves(tmp_path) == GOLDEN_SHA256


class TestManifest:
    def test_documented_keys(self, tmp_path):
        assert _design(tmp_path, "d.json", "--gamut", "led-triangle")[0] == EXIT_OK
        _small_curves(tmp_path)
        argv = ["reproduce", "--figure", "4a", "--out", str(tmp_path / "r")]
        assert main(argv) == EXIT_OK
        manifests = {
            "design": tmp_path / "d.json.manifest.json",
            "ser": tmp_path / "ser.csv.manifest.json",
            "rate": tmp_path / "rate-ucsk.csv.manifest.json",
            "reproduce": tmp_path / "r" / "manifest.json",
        }
        for subcommand, path in manifests.items():
            manifest = json.loads(path.read_text())
            assert set(manifest) == MANIFEST_KEYS
            assert manifest["subcommand"] == subcommand
