"""Command-line front end.

Subcommands: ``design`` (constrained maximin placement), ``validate``
(report a constellation against a blue target), ``ser`` (Monte Carlo
symbol error rate plus union bound), ``rate`` (achievable-rate curves for
UCSK or OOK), and ``reproduce`` (fixed-seed CSV bundles for the standard
SER and rate figures).

Every invocation but ``validate`` writes a run manifest next to its
outputs, a JSON object with exactly the keys ``subcommand``,
``parameters``, ``inputs``, ``tool_version`` and ``seed``:

- the ``parameters`` of ``design``, ``ser`` and ``rate`` are the parsed
  options as given, with ``out`` cut to its file name; ``ser`` adds
  ``union_bound_out`` and ``config_sha``, and ``rate`` adds
  ``config_sha``.  An option that the chosen mode would ignore is a
  usage error, so a manifest names only options the run used.
  ``reproduce`` records its fixed figure settings;
- ``inputs`` maps each input to the SHA-256 of its bytes, and a bundled
  fixture to ``config_digest`` of its constellation document;
- the ``config_sha`` of a ``ser`` or ``rate`` curve is ``config_digest``
  of the subcommand, the parameters without the file options
  (``constellation``, ``water``, ``out``) and the sorted input digests,
  so an input counts by its contents and not by its path.  A
  ``reproduce`` curve's digest covers its figure settings and file name.

The files each command writes:

- ``design``: ``--out`` and ``--out`` + ``.manifest.json``;
- ``ser``: ``--out``, its union-bound curve (``X.csv`` -> ``X.ub.csv``,
  any other name + ``.ub.csv``) and ``--out`` + ``.manifest.json``;
- ``rate``: ``--out`` and ``--out`` + ``.manifest.json``;
- ``reproduce``: ``design-target{1,2,3}.json``, the figure's curves and
  ``manifest.json`` in the ``--out`` directory.

Each is checked before it is written: it must not be a directory, and a
file must be creatable in its directory; if one fails, the command exits
3 and writes nothing.  ``design``, ``ser`` and ``rate`` check all of
their files before the optimizer or the Monte Carlo runs; ``reproduce``
checks ``manifest.json`` before designing and every bundle file before
its first write.

``design`` runs at most ``--starts`` optimizer starts.  It stops at the
first start that is certified optimal, whose d_min reaches the analytic
cap |center - B| + radius less radius * 1e-9 (the disk slack), and it
prints the achieved d_min, the cap, the gap to it and ``starts run: k of
N``, noting when it stopped at the cap.  ``validate`` checks gamut
membership against ``--gamut``, the horseshoe by default.

Identical arguments and inputs reproduce outputs byte for byte.  Exit
codes: 0 success, 1 usage error, 2 infeasible target or constellation,
3 I/O or file-format error.

Importing this module loads no scipy module.  ``design`` and
``reproduce`` import ``optimizer`` (``scipy.optimize``), and ``ser``,
``rate`` and ``reproduce`` import ``linksim`` (``scipy.special``), only
when they run, and call into both through the module, so a name patched
there is the name called.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .channel import TableError, WaterProperties, load_water_csv, seawater
from .colorimetry import ChromaticityPoint, spectral_locus, xy_distance
from .constellation import (
    BlueTarget,
    build_constellation,
    constellation_document,
    document_to_constellation,
    read_constellation_json,
    write_constellation_json,
)
from .presets import (
    DEFAULT_PRIMARY_WAVELENGTHS,
    TABLE1_FIXTURES,
    blue_target_preset,
    led_triangle_gamut,
)

if TYPE_CHECKING:
    from .linksim import Curve, HypothesisSet

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

# Fixed seeds and per-figure settings of the reproduce bundles; a
# bundle's manifest records the settings and its curve digests cover them.
REPRODUCE_DESIGN_SEED = 2024
REPRODUCE_SIM_SEED = 4242
_FIGURES = {
    "4a": {"snr": "0:3:30", "symbols": 100_000, "distance_m": 10.0},
    "4b": {"snr": "0:3:45", "samples": 50_000},
}

# Most points one --snr grid may have.
_MAX_SNR_POINTS = 10_000

_OOK_WAVELENGTHS = dict(zip(("red", "green", "blue"), DEFAULT_PRIMARY_WAVELENGTHS))

# Options that name files: their contents count through the input digests.
_FILE_OPTIONS = ("constellation", "water", "out")


class _Failure(Exception):
    """A failed run: ``main`` prints the message and exits with the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _usage(message: str) -> _Failure:
    return _Failure(EXIT_USAGE, f"usage error: {message}")


@contextmanager
def _failing(code: int, prefix: str, *errors: type[Exception]):
    """Turn any of ``errors`` raised in the block into a ``_Failure``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise _usage(message)


def _rendering():
    """The one exit-2 rule of hypothesis building: a ValueError there
    means the link cannot render the constellation or the OOK LED."""
    return _failing(EXIT_INFEASIBLE, "infeasible constellation", ValueError)


def _designing():
    """The exit-2 rule of the optimizer: a design that cannot be met."""
    from . import optimizer

    return _failing(
        EXIT_INFEASIBLE, "design failed",
        optimizer.InfeasibleTargetError, optimizer.ConvergenceError,
    )


def _config(cls, **kwargs):
    """Build a validated config; a rejected value is a usage error."""
    with _failing(EXIT_USAGE, "usage error", ValueError):
        return cls(**kwargs)


def _wavelength(text: str) -> float:
    """A --wavelength value: a finite number of nanometres > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), one word of a Philox key."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _parse_center(text: str) -> ChromaticityPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise _usage(f"--target-center expects 'x,y', got {text!r}")
    with _failing(EXIT_USAGE, f"usage error: bad --target-center {text!r}", ValueError):
        return ChromaticityPoint(float(parts[0]), float(parts[1]))


def parse_snr_grid(text: str) -> list[float]:
    """Parse LO:STEP:HI (dB, inclusive ends) into at most
    ``_MAX_SNR_POINTS`` strictly increasing points whose linear ratios
    10**(dB/10) are finite and nonzero."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _usage(f"--snr expects LO:STEP:HI, got {text!r}")
    with _failing(EXIT_USAGE, f"usage error: bad --snr {text!r}", ValueError):
        lo, step, hi = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (lo, step, hi)):
        raise _usage(f"--snr needs finite LO, STEP and HI, got {text!r}")
    if step <= 0 or hi < lo:
        raise _usage(f"--snr needs STEP > 0 and HI >= LO, got {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_SNR_POINTS:
        raise _usage(f"--snr allows at most {_MAX_SNR_POINTS} points, got {text!r}")
    grid = [lo + i * step for i in range(int(span) + 1)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise _usage(f"--snr STEP is below the spacing of its floats, got {text!r}")
    for db in (grid[0], grid[-1]):
        try:
            ratio = 10.0 ** (db / 10.0)
        except OverflowError:
            ratio = math.inf
        if not 0.0 < ratio < math.inf:
            raise _usage(f"--snr point {db} dB has no finite nonzero linear ratio")
    return grid


def config_digest(payload) -> str:
    """sha256 over the canonical JSON form of a configuration payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bundled_digest(name: str) -> str:
    ref = resources.files("ucsk.data").joinpath(name)
    with resources.as_file(ref) as path:
        return _sha256(Path(path))


def _load_water(spec: str) -> tuple[WaterProperties, dict[str, str]]:
    with _failing(EXIT_IO, "cannot read water table", OSError, TableError):
        if spec == "seawater":
            return seawater(), {"seawater (bundled)": _bundled_digest("seawater.csv")}
        path = Path(spec)
        return load_water_csv(path), {str(path): _sha256(path)}


def _check_writable(paths, prefix: str = "cannot write output") -> None:
    """Exit 3 with ``prefix`` if any output file of ``paths`` is a
    directory or no file can be created beside it.  Each distinct
    directory is probed once, and the message names the output path,
    not the randomly named probe file."""
    probes: dict[Path, Path] = {}
    with _failing(EXIT_IO, prefix, OSError):
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), str(path)
                )
            probes.setdefault(path.parent, path)
        for parent, path in probes.items():
            try:
                with tempfile.TemporaryFile(dir=parent):
                    pass
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None


def _parameters(args) -> dict:
    """A command's options as given, with ``out`` cut to its file name."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    params["out"] = Path(args.out).name
    return params


def _config_sha(args, inputs: dict[str, str]) -> str:
    """Digest of the subcommand, its options but the file options, and
    the sorted digests of its inputs."""
    params = {k: v for k, v in _parameters(args).items() if k not in _FILE_OPTIONS}
    return config_digest(
        {"subcommand": args.subcommand, "parameters": params,
         "inputs": sorted(inputs.values())}
    )


def _manifest_path(out: Path) -> Path:
    return Path(f"{out}.manifest.json")


def write_curve_csv(path, curve: Curve, config_sha: str) -> None:
    """Write ``snr_db,value`` rows with full round-trip float text under a
    ``# seed``, ``# n`` and ``# config_sha`` header; ``config_sha`` is the
    curve's digest by the rule in the module docstring."""
    lines = [
        f"# seed={curve.seed}",
        f"# n={curve.n}",
        f"# config_sha={config_sha}",
        "snr_db,value",
    ]
    lines.extend(f"{repr(s)},{repr(v)}" for s, v in zip(curve.snr_db, curve.values))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_outputs(
    curves: dict, manifest: Path, subcommand: str, parameters: dict,
    inputs: dict[str, str], seed: int,
) -> None:
    """Write each ``{path: (curve, digest)}`` curve, then the run manifest
    at ``manifest``; an OSError exits 3."""
    document = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "tool_version": __version__,
        "seed": seed,
    }
    with _failing(EXIT_IO, "cannot write output", OSError):
        for path, (curve, sha) in curves.items():
            write_curve_csv(path, curve, sha)
        manifest.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")


_GAMUTS = ("horseshoe", "led-triangle")


def _gamut_for(name: str):
    return spectral_locus() if name == "horseshoe" else led_triangle_gamut()


def _cmd_design(args) -> None:
    from . import optimizer

    if args.preset is not None:
        if (args.target_center, args.target_radius) != (None, None):
            raise _usage("--preset sets the disk; drop --target-center/--target-radius")
        target = blue_target_preset(args.preset)
    elif args.target_center and args.target_radius is not None:
        center = _parse_center(args.target_center)
        target = _config(BlueTarget, center=center, radius=args.target_radius)
    else:
        raise _usage("give --preset or both --target-center and --target-radius")
    cfg = _config(
        optimizer.OptimizerConfig, multistart_count=args.starts, rng_seed=args.seed
    )
    out = Path(args.out)
    manifest = _manifest_path(out)
    _check_writable([out, manifest])
    gamut = _gamut_for(args.gamut)
    with _designing():
        result = optimizer.design_constellation(target, cfg, gamut)
    provenance = (
        f"ucsk design seed={args.seed} starts={args.starts} gamut={args.gamut}"
    )
    doc = constellation_document(result.constellation, target, provenance)
    with _failing(EXIT_IO, "cannot write output", OSError):
        write_constellation_json(out, doc)
    _write_outputs({}, manifest, args.subcommand, _parameters(args), {}, args.seed)
    print(f"achieved d_min: {result.achieved_dmin:.6f}")
    cap = optimizer.dmin_upper_bound(target)
    print(f"d_min cap: {cap:.6f} (gap {cap - result.achieved_dmin:.3g})")
    print(
        f"starts run: {result.starts_used} of {args.starts}"
        + (" (stopped at the cap)" if result.certified else "")
    )
    margin = target.margin(result.constellation.x)
    inside = target.contains(result.constellation.x)
    print(f"constraint margin: {margin:+.6f} (inside={inside})")
    print(f"wrote {out}")


def _load_constellation_arg(spec: str):
    """A named bundled fixture or a JSON file path, as the constellation,
    its document and the input digests; a fixture's document carries its
    preset's disk as ``target``."""
    if spec in TABLE1_FIXTURES:
        fx = TABLE1_FIXTURES[spec]
        c = build_constellation(fx.r, fx.g, fx.b)
        doc = constellation_document(
            c, blue_target_preset(fx.target_id), f"bundled fixture {spec}"
        )
        return c, doc, {f"fixture:{spec}": config_digest(doc)}
    path = Path(spec)
    with _failing(EXIT_IO, "cannot read constellation", OSError, ValueError):
        doc = read_constellation_json(path)
        c = document_to_constellation(doc)
        return c, doc, {str(path): _sha256(path)}


def _cmd_validate(args) -> None:
    c, doc, _ = _load_constellation_arg(args.constellation)
    target = None
    if args.preset is not None:
        target = blue_target_preset(args.preset)
    elif doc.get("target"):
        t = doc["target"]
        target = BlueTarget(ChromaticityPoint(*t["center"]), t["radius"])
    gamut = _gamut_for(args.gamut)
    stored_x = ChromaticityPoint(*doc["points"]["X"])
    centroid_offset = xy_distance(stored_x, c.x)
    print(f"d_min: {c.d_min:.4f} attained by pair {c.d_min_pair}")
    print(
        "centroid check: stored X is "
        f"{centroid_offset:.6f} from centroid(R, G, B)"
        + ("  [MISMATCH]" if centroid_offset > 5e-4 else "")
    )
    memberships = {lab: gamut.contains(p) for lab, p in c.points().items()}
    print(f"gamut membership: {memberships}")
    if target is not None:
        margin = target.margin(c.x)
        print(
            f"blue target: |X-center|={xy_distance(c.x, target.center):.4f} "
            f"radius={target.radius} margin={margin:+.4f} "
            f"({'inside' if target.contains(c.x) else 'OUTSIDE'})"
        )
    else:
        print("blue target: none given; disk check skipped")


def _load_link(args) -> tuple[HypothesisSet, dict[str, str]]:
    """The hypotheses of a ``ser`` or ``rate`` run and its input digests:
    the --constellation's, or with none the OOK LED's at --wavelength,
    over --water at --distance."""
    from . import linksim

    water, inputs = _load_water(args.water)
    link = _config(linksim.LinkConfig, water=water, distance_m=args.distance)
    if args.constellation is None:
        with _rendering():
            return linksim.ook_hypotheses(args.wavelength, link), inputs
    c, _, const_inputs = _load_constellation_arg(args.constellation)
    with _rendering():
        return linksim.build_hypotheses(c, link), {**inputs, **const_inputs}


def _ub_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".ub.csv")
    return Path(str(out) + ".ub.csv")


def _cmd_ser(args) -> None:
    from . import linksim

    grid = parse_snr_grid(args.snr)
    if args.symbols < 10_000:
        raise _usage("--symbols must be >= 10000")
    hypotheses, inputs = _load_link(args)
    out = Path(args.out)
    ub, manifest = _ub_path(out), _manifest_path(out)
    _check_writable([out, ub, manifest])
    with _failing(EXIT_USAGE, "usage error: --snr", linksim.NoiseLevelError):
        ((curve, bound),) = linksim.ser_curves(
            [hypotheses], grid, args.symbols, args.seed
        )
    sha = _config_sha(args, inputs)
    params = {**_parameters(args), "union_bound_out": ub.name, "config_sha": sha}
    _write_outputs(
        {out: (curve, sha), ub: (bound, sha)}, manifest, args.subcommand, params,
        inputs, args.seed,
    )
    print(f"wrote {out} and {ub}")


def _cmd_rate(args) -> None:
    from . import linksim

    grid = parse_snr_grid(args.snr)
    if args.samples < 10_000:
        raise _usage("--samples must be >= 10000")
    if args.scheme == "ook" and args.wavelength is None:
        raise _usage("--scheme ook requires --wavelength")
    if args.scheme == "ucsk" and not args.constellation:
        raise _usage("--scheme ucsk requires --constellation")
    ignored = "constellation" if args.scheme == "ook" else "wavelength"
    if getattr(args, ignored) is not None:
        raise _usage(f"--scheme {args.scheme} does not take --{ignored}")
    hypotheses, inputs = _load_link(args)
    out = Path(args.out)
    manifest = _manifest_path(out)
    _check_writable([out, manifest])
    with _failing(EXIT_USAGE, "usage error: --snr", linksim.NoiseLevelError):
        (curve,) = linksim.rate_curve([hypotheses], grid, args.samples, args.seed)
    sha = _config_sha(args, inputs)
    params = {**_parameters(args), "config_sha": sha}
    _write_outputs(
        {out: (curve, sha)}, manifest, args.subcommand, params, inputs, args.seed
    )
    print(f"wrote {out}")


def _figure_4a(designs, water, params: dict) -> dict:
    """SER and union-bound curves of the designs, as {file name: (curve,
    digest)}; each digest covers ``params`` and the design's target."""
    from . import linksim

    link = linksim.LinkConfig(water=water, distance_m=params["distance_m"])
    with _rendering():
        hypotheses = [linksim.build_hypotheses(c, link) for c in designs.values()]
    grid = parse_snr_grid(params["snr"])
    pairs = linksim.ser_curves(hypotheses, grid, params["symbols"], REPRODUCE_SIM_SEED)
    curves = {}
    for tid, (curve, bound) in zip(designs, pairs):
        sha = config_digest({"figure": "4a", "target": tid, "params": params})
        curves[f"ser-target{tid}.csv"] = (curve, sha)
        curves[f"ser-target{tid}.ub.csv"] = (bound, sha)
    return curves


def _figure_4b(designs, water, params: dict) -> dict:
    """Rate curves of the designs and of OOK per color, as {file name:
    (curve, digest)}; each digest covers ``params`` and the file name."""
    from . import linksim

    link10 = linksim.LinkConfig(water=water, distance_m=10.0)
    link50 = linksim.LinkConfig(water=water, distance_m=50.0)
    ook = linksim.ook_hypotheses
    with _rendering():
        jobs = {
            f"rate-ucsk-target{tid}-10m.csv": linksim.build_hypotheses(c, link10)
            for tid, c in designs.items()
        }
        for color, wl in _OOK_WAVELENGTHS.items():
            jobs[f"rate-ook-{color}-10m.csv"] = ook(wl, link10)
        jobs["rate-ook-blue-50m.csv"] = ook(_OOK_WAVELENGTHS["blue"], link50)
    grid = parse_snr_grid(params["snr"])
    curves = linksim.rate_curve(
        jobs.values(), grid, params["samples"], REPRODUCE_SIM_SEED
    )
    return {
        name: (curve, config_digest({"figure": "4b", "curve": name, "params": params}))
        for name, curve in zip(jobs, curves)
    }


def _cmd_reproduce(args) -> None:
    from . import optimizer

    out_dir = Path(args.out)
    manifest = out_dir / "manifest.json"
    with _failing(EXIT_IO, f"cannot write to {out_dir}", OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
    _check_writable([manifest], f"cannot write to {out_dir}")
    cfg = optimizer.OptimizerConfig(rng_seed=REPRODUCE_DESIGN_SEED)
    gamut = led_triangle_gamut()
    design = optimizer.design_constellation
    with _designing():
        designs = {
            tid: design(blue_target_preset(tid), cfg, gamut).constellation
            for tid in (1, 2, 3)
        }
    params = {
        "figure": args.figure,
        "design_seed": REPRODUCE_DESIGN_SEED,
        "sim_seed": REPRODUCE_SIM_SEED,
        "gamut": "led-triangle",
        "water": "seawater",
        **_FIGURES[args.figure],
    }
    water, inputs = _load_water("seawater")
    figure = _figure_4a if args.figure == "4a" else _figure_4b
    curves = {out_dir / name: v for name, v in figure(designs, water, params).items()}
    docs = {
        out_dir / f"design-target{tid}.json": constellation_document(
            c,
            blue_target_preset(tid),
            f"ucsk reproduce preset {tid} seed={REPRODUCE_DESIGN_SEED} "
            "gamut=led-triangle",
        )
        for tid, c in designs.items()
    }
    _check_writable([*docs, *curves, manifest])
    with _failing(EXIT_IO, "cannot write output", OSError):
        for path, doc in docs.items():
            write_constellation_json(path, doc)
    _write_outputs(curves, manifest, "reproduce", params, inputs, REPRODUCE_SIM_SEED)
    print(f"wrote bundle to {out_dir}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ucsk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("design", parents=[], help="optimize a constellation")
    p.add_argument("--preset", type=int, choices=(1, 2, 3))
    p.add_argument("--target-center", help="disk center as 'x,y'")
    p.add_argument("--target-radius", type=float)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--starts",
        type=int,
        default=32,
        help="most optimizer starts to run; the search stops at the first "
        "start whose d_min reaches the analytic cap |center - B| + radius, "
        "less radius * 1e-9, as such a start is optimal",
    )
    p.add_argument(
        "--gamut",
        choices=_GAMUTS,
        default="horseshoe",
        help="design inside the full visible gamut or the LED source "
        "triangle; ser and rate can simulate only LED-triangle designs "
        "(the default horseshoe designs exit 2 there)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser(
        "validate",
        help="report on a constellation file or fixture; gamut membership "
        "is checked against --gamut",
    )
    p.add_argument("--constellation", required=True,
                   help="JSON file or bundled fixture name (e.g. table1-t3o1)")
    p.add_argument("--preset", type=int, choices=(1, 2, 3))
    p.add_argument(
        "--gamut",
        choices=_GAMUTS,
        default="horseshoe",
        help="check membership in the full visible gamut or the LED source "
        "triangle",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ser", help="Monte Carlo SER plus union bound")
    p.add_argument("--constellation", required=True)
    p.add_argument("--water", required=True, help="CSV path or 'seawater'")
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--snr", required=True, help="LO:STEP:HI in dB")
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ser)

    p = sub.add_parser("rate", help="achievable-rate curve")
    p.add_argument("--scheme", choices=("ucsk", "ook"), required=True)
    p.add_argument("--wavelength", type=_wavelength, help="OOK wavelength in nm")
    p.add_argument("--constellation")
    p.add_argument("--water", required=True, help="CSV path or 'seawater'")
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--snr", required=True, help="LO:STEP:HI in dB")
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("reproduce", help="fixed-seed figure data bundles")
    p.add_argument("--figure", choices=("4a", "4b"), required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
        # A closed pipe shows up here rather than in the flush at exit.
        sys.stdout.flush()
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader of standard output went away.  Point the descriptor
        # at the null device, so that the flush at exit finds nowhere to
        # fail either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("cannot write output: standard output was closed", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
