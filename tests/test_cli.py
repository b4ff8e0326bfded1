"""The command-line contract: exit codes 0/1/2/3 without tracebacks,
byte-identical reruns, curve and bundle bytes pinned by digest, and
manifests with exactly the documented keys."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ucsk import cli, linksim
from ucsk.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from ucsk.colorimetry import ChromaticityPoint
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
    "rate-ucsk.csv": "0a9b92945efef233a4a4c789294770d1f5f746a28971a0c3c950fee22ac6f3ab",
    "rate-ook.csv": "7fa36dc9d92c69afd04627191f26be8e587180d844db7a150ac627edfd252c88",
}

# SHA-256 of every file of the ``reproduce`` bundles.  The Monte Carlo
# SER curves, the OOK blue 50 m rates and the manifests date from before
# the Monte Carlo shared its draws across the curves of a figure; the
# designs and the union-bound curves were recorded when the optimizer
# began to keep X strictly inside the disk.  The other rates (and the
# golden rate-ucsk.csv above) were recorded when the mutual information
# began to reference each draw's log-likelihood gaps to its own symbol,
# which moved them by at most 5.1e-13 relative (TestKernelOracles bounds
# that at 1e-12).
_DESIGN_SHA256 = {
    "design-target1.json": "9259d81a5c7d749b6b259ef1893f97e6867886223d8a2ae6c05ed26ecf49d071",
    "design-target2.json": "8a5007c713c4aa0d342cc0d0fbb166fde1ae3b478d2a3e02cfd9345d2c5d1d85",
    "design-target3.json": "65ed6596f792d99984918f5dfdf819ed78a33d1dc580ffe01b3728d107dbe0f5",
}
REPRODUCE_SHA256 = {
    "4a": {
        **_DESIGN_SHA256,
        "manifest.json": "fc600868908cc687252cdca6934a097cc15f8b1c52e9bb69c5a9f0e82ff0c277",
        "ser-target1.csv": "d09159409ef2ee27f6a3d058262e5a886cf7e7328dc1a18e224c1cdb37cd2f8b",
        "ser-target1.ub.csv": "f878c9847f58da33878c52c2f5fe0d87f49dceaf4e9c52333624e89dd43f24b3",
        "ser-target2.csv": "49b1d652b542d3f248d3594177e4db5652e590849fd65c5b4cb57b411fed48ea",
        "ser-target2.ub.csv": "44c703b7c2f9ca95cacf534f19769d10f2213a806f8676c0b5ae5678fed38fe2",
        "ser-target3.csv": "ca59671c4f63cc12aa901a4b8d587b9b28ce88a854caf6e30bbb06de78bbd408",
        "ser-target3.ub.csv": "163125de0604042c3291a99ed48c9c2ee675e506cafde3a0839cbde69474610f",
    },
    "4b": {
        **_DESIGN_SHA256,
        "manifest.json": "b0bff5f2cba09cbbdbb2c59573ebd6d58438ad7d29ba91a4053574685a9ba54f",
        "rate-ook-blue-10m.csv": "c9aafe9def03f52a33b9b5dac8d1a67a4f84966a144b21be4c614a1b2d11bf58",
        "rate-ook-blue-50m.csv": "c9812a64554344067110a865c3c6717816ee5139f495015b2132534666d97012",
        "rate-ook-green-10m.csv": "d382fbeccc03ae421c51fc1fe7f5f7b7fa05db445486971ad165a6fbc8b346c4",
        "rate-ook-red-10m.csv": "82735730641eb58294a10f9b131272195234bcee01683110c0efcbd1144843fe",
        "rate-ucsk-target1-10m.csv": "48b00f5bd46f74793afe760c29a70df5859cd0b39d1ebc4de0696cf46c54323e",
        "rate-ucsk-target2-10m.csv": "44d14e3691d164698a8c701070cbfe33800df555ab2f9ce8b0116b5e7e626d9b",
        "rate-ucsk-target3-10m.csv": "a1df6b0317ab567d3d20473d3e29b499ea1affb9dddd8e747a6b6b61106c2047",
    },
}


def _design(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["design", "--preset", "1", "--starts", "2", "--out", str(out), *extra])
    return code, out


def _renderable_design(path, r=ChromaticityPoint(0.45, 0.30)):
    """Write a constellation; with the default R it lies strictly inside
    the LED triangle."""
    c = build_constellation(r, ChromaticityPoint(0.30, 0.55))
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


def _ser_args(constellation, out, distance="10", water="seawater"):
    return [
        "ser", "--constellation", str(constellation), "--water", str(water),
        "--distance", distance, "--snr", "10:10:20", "--symbols", "10000",
        "--out", str(out),
    ]


def _reproduce(out, figure):
    """Run ``reproduce`` into ``out``; file name -> SHA-256."""
    assert main(["reproduce", "--figure", figure, "--out", str(out)]) == EXIT_OK
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


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

    @pytest.mark.parametrize(
        "subcommand, distance",
        [(cmd, d) for d in ("-1", "nan", "inf") for cmd in ("ser", "rate")],
        ids=["ser", "rate", "ser-nan", "rate-nan", "ser-inf", "rate-inf"],
    )
    def test_negative_distance_is_usage_error(
        self, tmp_path, capsys, subcommand, distance
    ):
        out = tmp_path / "curve.csv"
        if subcommand == "ser":
            argv = _ser_args("table1-t3o1", out, distance=distance)
        else:
            argv = ["rate", "--scheme", "ook", "--wavelength", "460",
                    "--water", "seawater", "--distance", distance,
                    "--snr", "10:10:20", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: distance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "snr",
        ["0:1:inf", "nan:1:3", "0:1:1e12", "0:4000:4000", "-4000:4000:0",
         "-3200:1:-3199", "3080:1:3080"],
    )
    def test_unusable_snr_grid_is_usage_error(self, tmp_path, capsys, snr):
        # Non-finite ends, more than 10,000 points, points whose linear
        # ratio 10**(dB/10) overflows or is 0, a ratio so small that the
        # noise level overflows, and one so large that the log-likelihood
        # weight 1 / (2 sigma**2) overflows.
        out = tmp_path / "rate.csv"
        argv = ["rate", "--scheme", "ook", "--wavelength", "460",
                "--water", "seawater", "--distance", "10",
                f"--snr={snr}", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: --snr" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ser", "--symbols", "10000"], ["rate", "--scheme", "ucsk"]],
        ids=["ser", "rate-ucsk"],
    )
    def test_subnormal_noise_variance_is_usage_error(self, tmp_path, capsys, argv):
        design = _renderable_design(tmp_path / "c.json")
        out = tmp_path / "curve.csv"
        argv = [*argv, "--constellation", str(design), "--water", "seawater",
                "--distance", "10", "--snr", "3080:1:3080", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "1 / (2 sigma**2) must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ser", "--symbols", "10000"], ["rate", "--scheme", "ucsk"]],
        ids=["ser", "rate-ucsk"],
    )
    def test_step_below_float_spacing_is_usage_error(self, tmp_path, capsys, argv):
        # At 100 dB the float spacing is 1.4e-14, so a 1e-15 step repeats
        # points: the grid does not strictly increase.
        design = _renderable_design(tmp_path / "c.json")
        out = tmp_path / "curve.csv"
        argv = [*argv, "--constellation", str(design), "--water", "seawater",
                "--distance", "10", "--snr", "100:1e-15:100.000000000001",
                "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: --snr STEP" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["design", "ser", "rate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, subcommand, seed):
        out = tmp_path / "out"
        argv = {
            "design": ["design", "--preset", "1", "--starts", "1", "--out", str(out)],
            "ser": _ser_args(_renderable_design(tmp_path / "c.json"), out),
            "rate": ["rate", "--scheme", "ook", "--wavelength", "460",
                     "--water", "seawater", "--distance", "10",
                     "--snr", "10:10:20", "--out", str(out)],
        }[subcommand]
        assert main([*argv, "--seed", seed]) == EXIT_USAGE
        assert "usage error: argument --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, distance, band_nm",
        [
            (["ser", "--symbols", "10000"], "100000", 700),
            (["rate", "--scheme", "ucsk"], "100000", 700),
            (["rate", "--scheme", "ook", "--wavelength", "460"], "100000", 460),
            (["rate", "--scheme", "ucsk"], "2000", 700),
        ],
        ids=["ser", "rate-ucsk", "rate-ook", "rate-ucsk-2000m"],
    )
    def test_path_loss_underflow_is_infeasible(
        self, tmp_path, capsys, argv, distance, band_nm
    ):
        # Past about 1,146 m the red Beer-Lambert loss of the bundled
        # seawater rounds to 0, and so does every band well before 100 km.
        design = _renderable_design(tmp_path / "c.json")
        out = tmp_path / "curve.csv"
        argv = [*argv, "--constellation", str(design), "--water", "seawater",
                "--distance", distance, "--snr", "10:10:20", "--out", str(out)]
        assert main(argv) == EXIT_INFEASIBLE
        message = f"path loss at {band_nm}.0 nm underflows to 0 at {distance}.0 m"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "1e308"])
    def test_unusable_target_radius_is_usage_error(self, tmp_path, capsys, radius):
        out = tmp_path / "d.json"
        argv = ["design", "--target-center", "0.15,0.1", "--target-radius", radius,
                "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: target radius" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target",
        [{"center": [0.15], "radius": 0.04}, {"center": [0.15, 0.1], "radius": -1}, "x"],
        ids=["short-center", "negative-radius", "not-a-disk"],
    )
    def test_malformed_document_target_is_io_error(self, tmp_path, capsys, target):
        path = _renderable_design(tmp_path / "c.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "target": target}))
        assert main(["validate", "--constellation", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert "cannot read constellation" in captured.err
        assert captured.out == ""

    def test_water_table_missing_a_primary_is_infeasible(self, tmp_path, capsys):
        water = tmp_path / "water.csv"
        water.write_text("wavelength_nm,a_per_m,b_per_m\n500,0.03,0.003\n600,0.2,0.001\n")
        design = _renderable_design(tmp_path / "c.json")
        out = tmp_path / "ser.csv"
        assert main(_ser_args(design, out, water=water)) == EXIT_INFEASIBLE
        assert "infeasible constellation: 700.0 nm outside" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scheme, row",
        [
            ("ser", "700,nan,0.01"),
            ("ser", "700,inf,0.01"),
            ("ser", "nan,0.6,0.01"),
            ("rate-ook", "550,nan,0.01"),
        ],
        ids=["nan", "inf", "nan-wavelength", "rate-ook"],
    )
    def test_non_finite_water_cell_is_file_format_error(
        self, tmp_path, capsys, scheme, row
    ):
        water = tmp_path / "water.csv"
        water.write_text("wavelength_nm,a_per_m,b_per_m\n"
                         f"460,0.02,0.01\n600,0.06,0.01\n{row}\n")
        out = tmp_path / "curve.csv"
        if scheme == "ser":
            argv = _ser_args(_renderable_design(tmp_path / "c.json"), out, water=water)
        else:
            argv = ["rate", "--scheme", "ook", "--wavelength", "460",
                    "--water", str(water), "--distance", "10",
                    "--snr", "10:10:20", "--out", str(out)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert f"cannot read water table: {water}:4: non-finite cell" in err
        assert not out.exists()

    def test_overflowing_attenuation_is_infeasible(self, tmp_path, capsys):
        # Every cell is finite, but a + b at 700 nm overflows to inf.
        water = tmp_path / "water.csv"
        water.write_text("wavelength_nm,a_per_m,b_per_m\n"
                         "460,0.02,0.01\n550,0.06,0.01\n700,1e308,1e308\n")
        out = tmp_path / "ser.csv"
        design = _renderable_design(tmp_path / "c.json")
        assert main(_ser_args(design, out, water=water)) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "attenuation must be finite and >= 0, got inf" in err
        assert not out.exists()

    def test_degenerate_chromaticity_is_infeasible(self, tmp_path, capsys):
        design = _renderable_design(tmp_path / "c.json", r=ChromaticityPoint(0.5, 0.0))
        out = tmp_path / "ser.csv"
        assert main(_ser_args(design, out)) == EXIT_INFEASIBLE
        assert "infeasible constellation: chromaticity y=0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_horseshoe_design_outside_led_triangle_is_infeasible(
        self, tmp_path, capsys
    ):
        code, design = _design(tmp_path, "d.json", "--gamut", "horseshoe")
        assert code == EXIT_OK
        g = json.loads(design.read_text())["points"]["G"]
        assert not led_triangle_gamut().contains(ChromaticityPoint(*g))
        assert main(_ser_args(design, tmp_path / "ser.csv")) == EXIT_INFEASIBLE
        assert "infeasible constellation" in capsys.readouterr().err

    def test_led_design_with_r_at_a_vertex_is_ok(self, tmp_path, capsys):
        # The optimum puts R at the red vertex, where the offset hull
        # half-planes meet 9.3e-5 outside the triangle: inside the
        # tolerance of GamutPolygon.contains, which judges every start.
        code = main(["design", "--target-center", "0.15,0.1", "--target-radius",
                     "0.5", "--gamut", "led-triangle", "--out",
                     str(tmp_path / "v.json")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("achieved d_min: 0.351468\n")
        assert "(inside=True)" in out

    def test_horseshoe_design_on_the_locus_hull_is_ok(self, tmp_path, capsys):
        # The optimum puts R on a stretch of the tabulated locus that lies
        # up to 9.5e-5 inside its hull, where SLSQP's half-planes put it.
        code = main(["design", "--gamut", "horseshoe", "--target-center",
                     "0.15,0.1", "--target-radius", "0.3", "--out",
                     str(tmp_path / "h.json")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("achieved d_min: 0.361494\n")

    def test_disk_just_outside_the_green_vertex_is_infeasible(self, tmp_path):
        # 6e-4 beyond the vertex by Euclidean distance, but within the
        # radius plus tolerance of every half-plane: the pre-check passes
        # it, and no start reaches the disk.
        code = main(["design", "--target-center", "0.3013317,0.6932633",
                     "--target-radius", "4e-4", "--gamut", "led-triangle",
                     "--out", str(tmp_path / "g.json")])
        assert code == EXIT_INFEASIBLE

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

    @pytest.mark.parametrize("command", ["ser", "rate"])
    def test_unwritable_out_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("simulated before --out was checked")

        monkeypatch.setattr(cli, "ser_curves", fail)
        monkeypatch.setattr(cli, "rate_curve", fail)
        out = tmp_path / "missing" / "curve.csv"
        if command == "ser":
            argv = _ser_args(_renderable_design(tmp_path / "c.json"), out)
        else:
            argv = ["rate", "--scheme", "ook", "--wavelength", "460", "--water",
                    "seawater", "--distance", "10", "--snr", "10:10:20",
                    "--out", str(out)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert calls == []

    def test_reproduce_unwritable_out_fails_before_designing(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("designed before --out was checked")

        monkeypatch.setattr(cli, "design_constellation", fail)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "bundle"
        assert main(["reproduce", "--figure", "4a", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"cannot write to {out}: ")
        assert calls == []

    def test_unreadable_constellation_is_io_error(self, tmp_path, capsys):
        argv = _ser_args(tmp_path / "missing.json", tmp_path / "ser.csv")
        assert main(argv) == EXIT_IO
        assert "cannot read constellation" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_io_error(self, tmp_path, unbuffered):
        # Standard output is a pipe whose read end is already closed, so
        # the first write (unbuffered) or the flush (buffered) fails.
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ucsk", "validate", "--constellation",
                 "table1-t3o1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_IO
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "cannot write output: standard output was closed\n"


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

    def test_reproduce_4a_matches_recorded_digests(self, tmp_path):
        assert _reproduce(tmp_path / "4a", "4a") == REPRODUCE_SHA256["4a"]

    def test_reproduce_4b_matches_recorded_digests(self, tmp_path):
        assert _reproduce(tmp_path / "4b", "4b") == REPRODUCE_SHA256["4b"]

    def test_small_curves_match_recorded_digests(self, tmp_path):
        assert _small_curves(tmp_path) == GOLDEN_SHA256


class TestReports:
    # Recorded from the reports before they read the disk margin straight
    # from BlueTarget.margin.
    @pytest.mark.parametrize(
        "argv, d_min, disk",
        [
            (["--constellation", "table1-t3o1"], "0.0936",
             "|X-center|=0.0393 radius=0.04 margin=+0.0007 (inside)"),
            (["--constellation", "table1-t1o1", "--preset", "1"], "0.2695",
             "|X-center|=0.1086 radius=0.1 margin=-0.0086 (OUTSIDE)"),
        ],
        ids=["inside", "outside"],
    )
    def test_validate_stdout(self, capsys, argv, d_min, disk):
        assert main(["validate", *argv]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"d_min: {d_min} attained by pair ('X', 'B')\n"
            "centroid check: stored X is 0.000000 from centroid(R, G, B)\n"
            "gamut membership: {'R': True, 'G': True, 'B': True, 'X': True}\n"
            f"blue target: {disk}\n"
        )

    def test_zero_radius_disk_is_inside(self, tmp_path, capsys):
        # X is the centroid, rounded about 3e-17 off the center: a margin
        # that prints as -0 and that BlueTarget.contains accepts.
        out = tmp_path / "z.json"
        argv = ["design", "--target-center", "0.2,0.3", "--target-radius", "0",
                "--starts", "4", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "(inside=True)" in capsys.readouterr().out
        assert main(["validate", "--constellation", str(out)]) == EXIT_OK
        report = capsys.readouterr().out
        assert report.endswith("radius=0.0 margin=-0.0000 (inside)\n")

    def test_design_constraint_margin_line(self, tmp_path, capsys):
        code, out = _design(tmp_path, "d.json", "--gamut", "led-triangle")
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "achieved d_min: 0.171476\n"
            "constraint margin: +0.000000 (inside=True)\n"
            f"wrote {out}\n"
        )


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
