"""The command-line contract: exit codes 0/1/2/3 without tracebacks,
byte-identical reruns, and outputs that do not depend on UCSK_THREADS."""

import json

import pytest

from ucsk import cli
from ucsk.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from ucsk.colorimetry import ChromaticityPoint, in_gamut
from ucsk.optimizer import ConvergenceError
from ucsk.presets import led_triangle_gamut


def _design(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["design", "--preset", "1", "--starts", "2", "--out", str(out), *extra])
    return code, out


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
