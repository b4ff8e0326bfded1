"""The command-line contract: exit codes 0/1/2/3 without tracebacks,
byte-identical reruns, curve and bundle bytes pinned by digest, and
manifests with exactly the documented keys."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ucsk import cli, linksim, optimizer
from ucsk.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    write_curve_csv,
)
from ucsk.colorimetry import ChromaticityPoint
from ucsk.constellation import (
    build_constellation,
    constellation_document,
    write_constellation_json,
)
from ucsk.linksim import Curve, InfeasibleConstellationError
from ucsk.optimizer import ConvergenceError
from ucsk.presets import led_triangle_gamut

MANIFEST_KEYS = {"subcommand", "parameters", "inputs", "tool_version", "seed"}

# SHA-256 of the small curves written by ``_small_curves``.  For a fixed
# seed the output bytes must not move; a change in the Monte Carlo
# draws, the SNR convention, the CSV text or the config-digest rule
# shows up here.  ``ser.csv`` and both rate curves were re-recorded when
# every point of an SNR grid began to read the (seed, 0) Philox draws
# (version 0.2.0): the first row of each kept its bytes, and every other
# row moved by Monte Carlo noise.  ``ser.ub.csv`` dates from when
# ``config_sha`` became the digest of the subcommand, its non-file
# options and its input digests.
GOLDEN_SHA256 = {
    "ser.csv": "42f1028d1a4f79ad916494385c7be1a788455e508fca2db512f7524430374d6a",
    "ser.ub.csv": "45e364473c3cc70210189d1c47fd7d3855faf8b8d89d48c7ab557d8ac6440106",
    "rate-ucsk.csv": "4ab81454ead01ed2f6e2a14e65305e468ee3495dd1cdc24b3bbec136fe30829f",
    "rate-ook.csv": "84d366e85f4b5bb30245f78837ff46bb01d41f3bd7ff08bd623883d0f6e2f152",
}

# SHA-256 of every file of the ``reproduce`` bundles.  The Monte Carlo
# SER and rate curves and both manifests were recorded when every point
# of an SNR grid began to read the (seed, 0) Philox draws, version 0.2.0
# (the manifests move with ``tool_version``): each curve's first row kept
# its bytes, and every other point moved by at most 2.2 combined standard
# errors.  The designs and the union-bound curves were recorded when the
# optimizer began to keep X strictly inside the disk.
_DESIGN_SHA256 = {
    "design-target1.json": "9259d81a5c7d749b6b259ef1893f97e6867886223d8a2ae6c05ed26ecf49d071",
    "design-target2.json": "8a5007c713c4aa0d342cc0d0fbb166fde1ae3b478d2a3e02cfd9345d2c5d1d85",
    "design-target3.json": "65ed6596f792d99984918f5dfdf819ed78a33d1dc580ffe01b3728d107dbe0f5",
}
REPRODUCE_SHA256 = {
    "4a": {
        **_DESIGN_SHA256,
        "manifest.json": "ea90a98f1ba424f372f4c39593b21f5a32c755204c47d52929e798ae74127591",
        "ser-target1.csv": "426b305ba4a5f0b93a298394ebbc5b3d485be38be004b3b4e7956e92b90c7c1f",
        "ser-target1.ub.csv": "f878c9847f58da33878c52c2f5fe0d87f49dceaf4e9c52333624e89dd43f24b3",
        "ser-target2.csv": "05c713ce3dedbe9ecdb19961d77b4fb3f3f7f82121df8afe122d4a2726a3ba90",
        "ser-target2.ub.csv": "44c703b7c2f9ca95cacf534f19769d10f2213a806f8676c0b5ae5678fed38fe2",
        "ser-target3.csv": "a33c52d317f9577dcbc75ad5d10b833b91523dbbbc371a2269acfe3ca13adc92",
        "ser-target3.ub.csv": "163125de0604042c3291a99ed48c9c2ee675e506cafde3a0839cbde69474610f",
    },
    "4b": {
        **_DESIGN_SHA256,
        "manifest.json": "0960de0141d021b8438e31e1e82dacb1cbde9938ef928de4439ad07045101b32",
        "rate-ook-blue-10m.csv": "9685907afc4bcb3e0513e504fd578c2237a2a51c0790e6c0c4bfc98e55bef9d3",
        "rate-ook-blue-50m.csv": "9ca508186fc75126c16b5f0f82d0e85355baa72ea98c858b06d554577d92cf9f",
        "rate-ook-green-10m.csv": "4e8c2698f4030c5c6a32993c78b24493418548757b399126ba029315c139bf72",
        "rate-ook-red-10m.csv": "7f63a7de75f81fee3ada8a624679b1fb03d903e1aedc2d7cd8fb2fc31b102430",
        "rate-ucsk-target1-10m.csv": "8b6596ef9a910b56782d5bfb65e9b93a201ad3a6039effa1ac1c73a516d57cb3",
        "rate-ucsk-target2-10m.csv": "d620c8af7f0db3460c24cf1f1b2ed6894ba27439bb76c4794ca60901dcbc8e71",
        "rate-ucsk-target3-10m.csv": "9aa60d156c05862fe552eac16aa701b16575561eda4d8cd2ee7d25cedeb3b90b",
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


_LINK = ["--water", "seawater", "--distance", "10", "--snr", "10:10:20"]


def _ser_args(constellation, out, distance="10", water="seawater"):
    return [
        "ser", "--constellation", str(constellation), "--water", str(water),
        "--distance", distance, "--snr", "10:10:20", "--symbols", "10000",
        "--out", str(out),
    ]


def _ook_args(out, water="seawater"):
    return [
        "rate", "--scheme", "ook", "--wavelength", "460", "--water", str(water),
        "--distance", "10", "--snr", "10:10:20", "--samples", "10000",
        "--out", str(out),
    ]


def _manifest(out):
    return json.loads(Path(f"{out}.manifest.json").read_text())


def _option_dests(subcommand):
    """The dests of a subcommand's options, as its parser defines them."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[subcommand]._actions} - {"help"}


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

    @pytest.mark.parametrize("wavelength", ["nan", "inf", "-5", "1e400"])
    def test_unusable_ook_wavelength_is_usage_error(self, tmp_path, capsys, wavelength):
        # Not a wavelength at all, unlike one outside the tables (exit 2).
        out = tmp_path / "rate.csv"
        argv = ["rate", "--scheme", "ook", f"--wavelength={wavelength}", *_LINK,
                "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "usage error: argument --wavelength" in capsys.readouterr().err
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
        out = tmp_path / "curve.csv"
        if "ook" not in argv:  # OOK takes no --constellation
            design = _renderable_design(tmp_path / "c.json")
            argv = [*argv, "--constellation", str(design)]
        argv = [*argv, "--water", "seawater", "--distance", distance,
                "--snr", "10:10:20", "--out", str(out)]
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
        "target, message",
        [
            ({"center": [0.15], "radius": 0.04}, "center must be [x, y]"),
            ({"center": [0.15, 0.1, 0.2], "radius": 0.04}, "center must be [x, y]"),
            ({"center": [0.15, 0.1], "radius": -1}, "malformed target"),
            ("x", "malformed target"),
            ({"center": [0.15, 0.1], "radius": 10**400}, "radius must be a number"),
            ({"center": [10**400, 0.1], "radius": 0.04}, "center must be [x, y]"),
            ({"center": [0.15, 0.1], "radius": True}, "radius must be a number"),
        ],
        ids=["short-center", "long-center", "negative-radius", "not-a-disk",
             "huge-radius", "huge-center", "bool-radius"],
    )
    def test_malformed_document_target_is_io_error(
        self, tmp_path, capsys, target, message
    ):
        path = _renderable_design(tmp_path / "c.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "target": target}))
        assert main(["validate", "--constellation", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert "cannot read constellation" in captured.err
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("point", [[10**400, 0.3], [True, 0.3]], ids=["huge", "bool"])
    def test_malformed_document_point_is_io_error(self, tmp_path, capsys, point):
        # An integer too large for a float is valid JSON; float() of it
        # raises OverflowError.
        path = _renderable_design(tmp_path / "c.json")
        doc = json.loads(path.read_text())
        doc["points"]["R"] = point
        path.write_text(json.dumps(doc))
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

        monkeypatch.setattr(optimizer, "design_constellation", fail)
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

        monkeypatch.setattr(linksim, "ser_curves", fail)
        monkeypatch.setattr(linksim, "rate_curve", fail)
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

    @pytest.mark.parametrize("command", ["ser", "rate"])
    def test_directory_out_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("simulated before --out was checked")

        monkeypatch.setattr(linksim, "ser_curves", fail)
        monkeypatch.setattr(linksim, "rate_curve", fail)
        out = tmp_path / "curve.csv"
        out.mkdir()
        if command == "ser":
            argv = _ser_args(_renderable_design(tmp_path / "c.json"), out)
        else:
            argv = _ook_args(out)
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert "Is a directory" in err
        assert calls == []

    @pytest.mark.parametrize(
        "command, blocked",
        [("ser", "curve.ub.csv"), ("ser", "curve.csv.manifest.json"),
         ("rate", "curve.csv.manifest.json"), ("design", "curve.csv.manifest.json")],
        ids=["ser-ub", "ser-manifest", "rate-manifest", "design-manifest"],
    )
    def test_directory_at_any_output_fails_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, blocked
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("ran before every output was checked")

        monkeypatch.setattr(linksim, "ser_curves", fail)
        monkeypatch.setattr(linksim, "rate_curve", fail)
        monkeypatch.setattr(optimizer, "design_constellation", fail)
        design = _renderable_design(tmp_path / "c.json")
        out = tmp_path / "curve.csv"
        (tmp_path / blocked).mkdir()
        argv = {
            "ser": _ser_args(design, out),
            "rate": _ook_args(out),
            "design": ["design", "--preset", "1", "--out", str(out)],
        }[command]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert f"Is a directory: '{tmp_path / blocked}'" in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.json", blocked])

    def test_reproduce_directory_at_a_curve_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        (out / "ser-target1.csv").mkdir(parents=True)
        assert main(["reproduce", "--figure", "4a", "--out", str(out)]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["ser-target1.csv"]
        assert list((out / "ser-target1.csv").iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["ser", "--symbols", "10000"], ["rate", "--scheme", "ucsk"],
         ["rate", "--scheme", "ook", "--wavelength", "460"]],
        ids=["ser", "rate-ucsk", "rate-ook"],
    )
    def test_unrenderable_link_has_one_prefix(self, tmp_path, capsys, argv):
        out = tmp_path / "curve.csv"
        if "ook" not in argv:
            design = _renderable_design(tmp_path / "c.json")
            argv = [*argv, "--constellation", str(design)]
        argv = [*argv, "--water", "seawater", "--distance", "100000",
                "--snr", "10:10:20", "--out", str(out)]
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible constellation: path loss")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_design_out_fails_before_optimizing(
        self, tmp_path, capsys, monkeypatch, where
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("optimized before --out was checked")

        monkeypatch.setattr(optimizer, "design_constellation", fail)
        if where == "directory":
            out = tmp_path / "d.json"
            out.mkdir()
        else:
            out = tmp_path / "missing" / "d.json"
        assert main(["design", "--preset", "1", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert calls == []

    def test_unwritable_out_message_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "d.json"
        messages = []
        for _ in range(2):
            assert main(["design", "--preset", "1", "--out", str(out)]) == EXIT_IO
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert f"'{out}'" in messages[0]

    def test_reproduce_directory_manifest_fails_before_designing(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("designed before --out was checked")

        monkeypatch.setattr(optimizer, "design_constellation", fail)
        out = tmp_path / "bundle"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["reproduce", "--figure", "4a", "--out", str(out)]) == EXIT_IO
        assert "Is a directory" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["design", "--preset", "1", "--target-radius", "0.01"],
             "--preset sets the disk"),
            (["rate", "--scheme", "ook", "--wavelength", "460",
              "--constellation", "missing.json", *_LINK],
             "--scheme ook does not take --constellation"),
            (["rate", "--scheme", "ucsk", "--constellation", "table1-t3o1",
              "--wavelength", "999", *_LINK],
             "--scheme ucsk does not take --wavelength"),
        ],
        ids=["design-preset-radius", "rate-ook-constellation", "rate-ucsk-wavelength"],
    )
    def test_option_the_mode_ignores_is_usage_error(
        self, tmp_path, capsys, argv, message
    ):
        # A manifest must not record an option that the run did not use.
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduce_unwritable_out_fails_before_designing(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("designed before --out was checked")

        monkeypatch.setattr(optimizer, "design_constellation", fail)
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

    @pytest.mark.parametrize(
        "command",
        [["ser", "--symbols", "10000"],
         ["rate", "--scheme", "ucsk", "--samples", "10000"]],
        ids=["ser", "rate"],
    )
    def test_grid_point_row_does_not_depend_on_the_grid(self, tmp_path, command):
        # Every point of a grid reads the same draws, so the 21 dB row of
        # a 0:3:30 grid is the row of a grid of that point alone.
        design = _renderable_design(tmp_path / "c.json")
        rows = []
        for name, snr in (("grid.csv", "0:3:30"), ("point.csv", "21:3:21")):
            out = tmp_path / name
            argv = [*command, "--constellation", str(design), "--water", "seawater",
                    "--distance", "10", "--snr", snr, "--seed", "7", "--out", str(out)]
            assert main(argv) == EXIT_OK
            lines = out.read_text().splitlines()
            rows.append([r for r in lines if r.startswith("21.0,")])
        assert len(rows[0]) == 1
        assert rows[0] == rows[1]


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
            "d_min cap: 0.280703 (gap 0.109)\n"
            "starts run: 2 of 2\n"
            "constraint margin: +0.000000 (inside=True)\n"
            f"wrote {out}\n"
        )

    @pytest.mark.parametrize("starts", (32, 1))
    def test_design_reports_stop_at_the_cap(self, tmp_path, capsys, starts):
        # Horseshoe preset 3 reaches its cap, to the disk slack, at start 0,
        # which is also the last start allowed under --starts 1.
        out = tmp_path / "d.json"
        argv = ["design", "--preset", "3", "--starts", str(starts), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "achieved d_min: 0.101844\n"
            "d_min cap: 0.101844 (gap 2e-11)\n"
            f"starts run: 1 of {starts} (stopped at the cap)\n"
            "constraint margin: +0.000000 (inside=True)\n"
            f"wrote {out}\n"
        )

    def test_validate_gamut_led_triangle(self, tmp_path, capsys):
        # The horseshoe design of preset 3 puts G and X outside the LED
        # triangle; validate reads the horseshoe unless told otherwise.
        out = tmp_path / "d.json"
        assert main(["design", "--preset", "3", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        reports = {}
        for gamut in ("horseshoe", "led-triangle"):
            argv = ["validate", "--constellation", str(out), "--gamut", gamut]
            assert main(argv) == EXIT_OK
            reports[gamut] = capsys.readouterr().out
        assert main(["validate", "--constellation", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == reports["horseshoe"]
        membership = "gamut membership: {'R': True, 'G': %s, 'B': True, 'X': %s}\n"
        assert membership % (True, True) in reports["horseshoe"]
        assert membership % (False, False) in reports["led-triangle"]


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

    def test_parameters_are_the_options(self, tmp_path):
        # design, ser and rate record every option as given, --out as its
        # file name, and nothing else but these extras.
        assert _design(tmp_path, "d.json", "--gamut", "led-triangle")[0] == EXIT_OK
        _small_curves(tmp_path)
        extras = {
            "design": set(),
            "ser": {"union_bound_out", "config_sha"},
            "rate": {"config_sha"},
        }
        outs = {"design": "d.json", "ser": "ser.csv", "rate": "rate-ook.csv"}
        for subcommand, name in outs.items():
            parameters = _manifest(tmp_path / name)["parameters"]
            assert set(parameters) == _option_dests(subcommand) | extras[subcommand]
            assert parameters["out"] == name
        assert _manifest(tmp_path / "d.json")["parameters"]["preset"] == 1
        assert _manifest(tmp_path / "ser.csv")["parameters"]["union_bound_out"] == (
            "ser.ub.csv"
        )


class TestConfigSha:
    def test_water_table_counts_by_contents(self, tmp_path):
        tables = [tmp_path / "a" / "water.csv", tmp_path / "b" / "w.csv"]
        bundled = (Path(cli.__file__).parent / "data" / "seawater.csv").read_bytes()
        for table in tables:
            table.parent.mkdir()
            table.write_bytes(bundled)

        def sha(water, name):
            assert main(_ook_args(tmp_path / name, water)) == EXIT_OK
            return _manifest(tmp_path / name)["parameters"]["config_sha"]

        copies = {sha(table, f"copy{i}.csv") for i, table in enumerate(tables)}
        # The bundled table is the same bytes under another name.
        assert copies == {sha("seawater", "bundled.csv")}
        tables[0].write_bytes(bundled.replace(b"460,0.0156", b"460,0.0157"))
        assert sha(tables[0], "edited.csv") not in copies

    def test_fixtures_differ(self, tmp_path, monkeypatch):
        # No bundled fixture renders on the LED triangle, so both runs
        # simulate one renderable design; only the fixture name differs.
        c = build_constellation(ChromaticityPoint(0.45, 0.30),
                                ChromaticityPoint(0.30, 0.55))
        build = linksim.build_hypotheses
        monkeypatch.setattr(linksim, "build_hypotheses", lambda _, link: build(c, link))
        digests, shas = set(), set()
        for fixture in ("table1-t1o1", "table1-t3o1"):
            out = tmp_path / f"{fixture}.csv"
            assert main(_ser_args(fixture, out)) == EXIT_OK
            manifest = _manifest(out)
            digests.add(manifest["inputs"][f"fixture:{fixture}"])
            shas.add(manifest["parameters"]["config_sha"])
        assert len(digests) == 2 and "" not in digests
        assert len(shas) == 2


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, Curve((0.0, 3.0), (0.25, 0.125), seed=7, n=1000), "ff")
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# seed=7", "# n=1000", "# config_sha=ff", "snr_db,value"]
        rows = [tuple(map(float, line.split(","))) for line in lines[4:]]
        assert rows == [(0.0, 0.25), (3.0, 0.125)]

    def test_full_precision_values(self, tmp_path):
        value = 1 / 3 + 1e-12
        path = tmp_path / "c.csv"
        write_curve_csv(path, Curve((0.0,), (value,), seed=0, n=10), "ff")
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        snr, text = lines[4].split(",")
        assert (float(snr), float(text)) == (0.0, value)
