"""Command-line front end.

Subcommands: ``design`` (constrained maximin placement), ``validate``
(report a constellation against a blue target), ``ser`` (Monte Carlo
symbol error rate plus union bound), ``rate`` (achievable-rate curves for
UCSK or OOK), and ``reproduce`` (fixed-seed CSV bundles for the standard
SER and rate figures).

Every invocation but ``validate`` writes a run manifest next to its
outputs, a JSON object with exactly the keys ``subcommand``,
``parameters``, ``inputs`` (input name to SHA-256), ``tool_version`` and
``seed``.  Identical arguments and inputs reproduce outputs byte for
byte.  Exit codes: 0 success, 1 usage error, 2 infeasible target or
constellation, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from . import __version__
from .channel import WaterTableError, WaterProperties, load_water_csv, seawater
from .colorimetry import (
    ChromaticityPoint,
    OutOfGamutError,
    spectral_locus,
    xy_distance,
)
from .constellation import (
    BlueTarget,
    build_constellation,
    constellation_document,
    document_to_constellation,
    read_constellation_json,
    write_constellation_json,
)
from .linksim import (
    InfeasibleConstellationError,
    LinkConfig,
    NoiseLevelError,
    build_hypotheses,
    config_digest,
    ook_hypotheses,
    rate_curve,
    ser_curves,
    write_curve_csv,
)
from .optimizer import (
    ConvergenceError,
    InfeasibleTargetError,
    OptimizerConfig,
    design_constellation,
)
from .presets import (
    DEFAULT_PRIMARY_WAVELENGTHS,
    TABLE1_FIXTURES,
    blue_target_preset,
    led_triangle_gamut,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

# Fixed seeds for the reproduce bundles.
REPRODUCE_DESIGN_SEED = 2024
REPRODUCE_SIM_SEED = 4242
_REPRODUCE_SER_GRID = "0:3:30"
_REPRODUCE_RATE_GRID = "0:3:45"
_REPRODUCE_SER_SYMBOLS = 100_000
_REPRODUCE_RATE_SAMPLES = 50_000

# Most points one --snr grid may have.
_MAX_SNR_POINTS = 10_000

_OOK_WAVELENGTHS = dict(zip(("red", "green", "blue"), DEFAULT_PRIMARY_WAVELENGTHS))

# Failures that exit 2: a design that cannot be met, or a constellation
# that the link cannot render.
_DESIGN_FAILED = (InfeasibleTargetError, ConvergenceError)
_UNRENDERABLE = (InfeasibleConstellationError, OutOfGamutError)


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


def _config(cls, **kwargs):
    """Build a validated config; a rejected value is a usage error."""
    with _failing(EXIT_USAGE, "usage error", ValueError):
        return cls(**kwargs)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bundled_digest(name: str) -> str:
    ref = resources.files("ucsk.data").joinpath(name)
    with resources.as_file(ref) as path:
        return _sha256(Path(path))


def _load_water(spec: str) -> tuple[WaterProperties, dict[str, str]]:
    with _failing(EXIT_IO, "cannot read water table", OSError, WaterTableError):
        if spec == "seawater":
            return seawater(), {"seawater (bundled)": _bundled_digest("seawater.csv")}
        path = Path(spec)
        return load_water_csv(path), {str(path): _sha256(path)}


def _check_writable(directory: Path, prefix: str) -> None:
    """Exit 3 with ``prefix`` unless a file can be created in
    ``directory``; commands check before the work whose output would be
    lost."""
    with _failing(EXIT_IO, prefix, OSError):
        with tempfile.TemporaryFile(dir=directory):
            pass


def _write_manifest(
    path: Path, subcommand: str, parameters: dict, inputs: dict[str, str], seed: int
) -> None:
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "tool_version": __version__,
        "seed": seed,
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _gamut_for(name: str):
    return spectral_locus() if name == "horseshoe" else led_triangle_gamut()


def _cmd_design(args) -> None:
    if args.preset is not None:
        target = blue_target_preset(args.preset)
    elif args.target_center and args.target_radius is not None:
        center = _parse_center(args.target_center)
        target = _config(BlueTarget, center=center, radius=args.target_radius)
    else:
        raise _usage("give --preset or both --target-center and --target-radius")
    cfg = _config(OptimizerConfig, multistart_count=args.starts, rng_seed=args.seed)
    gamut = _gamut_for(args.gamut)
    with _failing(EXIT_INFEASIBLE, "design failed", *_DESIGN_FAILED):
        result = design_constellation(target, cfg, gamut)
    provenance = (
        f"ucsk design seed={args.seed} starts={args.starts} gamut={args.gamut}"
    )
    doc = constellation_document(result.constellation, target, provenance)
    out = Path(args.out)
    with _failing(EXIT_IO, "cannot write output", OSError):
        write_constellation_json(out, doc)
        _write_manifest(
            Path(str(out) + ".manifest.json"),
            "design",
            {
                "target_center": [target.center.x, target.center.y],
                "target_radius": target.radius,
                "preset": args.preset,
                "gamut": args.gamut,
                "starts": args.starts,
                "out": out.name,
            },
            {},
            args.seed,
        )
    print(f"achieved d_min: {result.achieved_dmin:.6f}")
    margin = target.margin(result.constellation.x)
    inside = target.contains(result.constellation.x)
    print(f"constraint margin: {margin:+.6f} (inside={inside})")
    print(f"wrote {out}")


def _load_constellation_arg(spec: str):
    """A named bundled fixture or a JSON file path."""
    if spec in TABLE1_FIXTURES:
        fx = TABLE1_FIXTURES[spec]
        c = build_constellation(fx.r, fx.g, fx.b)
        doc = constellation_document(
            c, blue_target_preset(fx.target_id), f"bundled fixture {spec}"
        )
        return c, doc, fx.target_id, {f"fixture:{spec}": ""}
    path = Path(spec)
    with _failing(EXIT_IO, "cannot read constellation", OSError, ValueError):
        doc = read_constellation_json(path)
        c = document_to_constellation(doc)
        return c, doc, None, {str(path): _sha256(path)}


def _cmd_validate(args) -> None:
    c, doc, fixture_target, _ = _load_constellation_arg(args.constellation)
    preset = args.preset if args.preset is not None else fixture_target
    target = None
    if preset is not None:
        target = blue_target_preset(preset)
    elif doc.get("target"):
        t = doc["target"]
        target = BlueTarget(ChromaticityPoint(*t["center"]), t["radius"])
    gamut = spectral_locus()
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


def _curve_payload(doc, water_digests, args, extra) -> dict:
    payload = {
        "constellation": doc["points"] if doc else None,
        "water": sorted(water_digests),
        "distance_m": args.distance,
        "snr": args.snr,
        "seed": args.seed,
    }
    payload.update(extra)
    return payload


def _ub_path(out: Path) -> Path:
    if out.suffix == ".csv":
        return out.with_suffix(".ub.csv")
    return Path(str(out) + ".ub.csv")


def _cmd_ser(args) -> None:
    grid = parse_snr_grid(args.snr)
    if args.symbols < 10_000:
        raise _usage("--symbols must be >= 10000")
    c, doc, _, const_inputs = _load_constellation_arg(args.constellation)
    water, water_inputs = _load_water(args.water)
    link = _config(LinkConfig, water=water, distance_m=args.distance)
    sha = config_digest(
        _curve_payload(doc, water_inputs, args, {"symbols": args.symbols, "kind": "ser"})
    )
    with _failing(EXIT_INFEASIBLE, "infeasible constellation", ValueError):
        hypotheses = build_hypotheses(c, link)
    out = Path(args.out)
    _check_writable(out.parent, "cannot write output")
    with _failing(EXIT_USAGE, "usage error: --snr", NoiseLevelError):
        ((curve, bound),) = ser_curves([hypotheses], grid, args.symbols, args.seed)
    with _failing(EXIT_IO, "cannot write output", OSError):
        write_curve_csv(out, curve, sha)
        write_curve_csv(_ub_path(out), bound, sha)
        _write_manifest(
            Path(str(out) + ".manifest.json"),
            "ser",
            {
                "constellation": args.constellation,
                "water": args.water,
                "distance_m": args.distance,
                "snr": args.snr,
                "symbols": args.symbols,
                "out": out.name,
                "union_bound_out": _ub_path(out).name,
                "config_sha": sha,
            },
            {**const_inputs, **water_inputs},
            args.seed,
        )
    print(f"wrote {out} and {_ub_path(out)}")


def _cmd_rate(args) -> None:
    grid = parse_snr_grid(args.snr)
    if args.samples < 10_000:
        raise _usage("--samples must be >= 10000")
    if args.scheme == "ook" and args.wavelength is None:
        raise _usage("--scheme ook requires --wavelength")
    if args.scheme == "ucsk" and not args.constellation:
        raise _usage("--scheme ucsk requires --constellation")
    water, water_inputs = _load_water(args.water)
    link = _config(LinkConfig, water=water, distance_m=args.distance)
    doc = None
    const_inputs: dict[str, str] = {}
    if args.scheme == "ucsk":
        c, doc, _, const_inputs = _load_constellation_arg(args.constellation)
    with _failing(EXIT_INFEASIBLE, "infeasible configuration", ValueError):
        if args.scheme == "ucsk":
            hypotheses = build_hypotheses(c, link)
        else:
            hypotheses = ook_hypotheses(args.wavelength, link)
    sha = config_digest(
        _curve_payload(
            doc,
            water_inputs,
            args,
            {
                "samples": args.samples,
                "kind": "rate",
                "scheme": args.scheme,
                "wavelength": args.wavelength,
            },
        )
    )
    out = Path(args.out)
    _check_writable(out.parent, "cannot write output")
    with _failing(EXIT_USAGE, "usage error: --snr", NoiseLevelError):
        (curve,) = rate_curve([hypotheses], grid, args.samples, args.seed)
    with _failing(EXIT_IO, "cannot write output", OSError):
        write_curve_csv(out, curve, sha)
        _write_manifest(
            Path(str(out) + ".manifest.json"),
            "rate",
            {
                "scheme": args.scheme,
                "wavelength": args.wavelength,
                "constellation": args.constellation,
                "water": args.water,
                "distance_m": args.distance,
                "snr": args.snr,
                "samples": args.samples,
                "out": out.name,
                "config_sha": sha,
            },
            {**const_inputs, **water_inputs},
            args.seed,
        )
    print(f"wrote {out}")


def _figure_4a(designs, params: dict) -> dict:
    """SER and union-bound curves of the designs at 10 m with their config
    digests, as {file name: (curve, digest)}.  Adds the figure's settings
    to ``params``, which every digest covers."""
    grid = parse_snr_grid(_REPRODUCE_SER_GRID)
    params.update(
        {"snr": _REPRODUCE_SER_GRID, "symbols": _REPRODUCE_SER_SYMBOLS,
         "distance_m": 10.0}
    )
    link = LinkConfig(water=seawater(), distance_m=10.0)
    pairs = ser_curves(
        [build_hypotheses(c, link) for c in designs.values()],
        grid,
        _REPRODUCE_SER_SYMBOLS,
        REPRODUCE_SIM_SEED,
    )
    curves = {}
    for tid, (curve, bound) in zip(designs, pairs):
        sha = config_digest({"figure": "4a", "target": tid, "params": params})
        curves[f"ser-target{tid}.csv"] = (curve, sha)
        curves[f"ser-target{tid}.ub.csv"] = (bound, sha)
    return curves


def _figure_4b(designs, params: dict) -> dict:
    """Rate curves of the designs and of OOK per color with their config
    digests, as {file name: (curve, digest)}.  Adds the figure's settings
    to ``params``, which every digest covers."""
    grid = parse_snr_grid(_REPRODUCE_RATE_GRID)
    params.update({"snr": _REPRODUCE_RATE_GRID, "samples": _REPRODUCE_RATE_SAMPLES})
    link10 = LinkConfig(water=seawater(), distance_m=10.0)
    link50 = LinkConfig(water=seawater(), distance_m=50.0)
    jobs = [
        (f"rate-ucsk-target{tid}-10m.csv", build_hypotheses(c, link10))
        for tid, c in designs.items()
    ]
    jobs += [
        (f"rate-ook-{color}-10m.csv", ook_hypotheses(wl, link10))
        for color, wl in _OOK_WAVELENGTHS.items()
    ]
    blue_nm = _OOK_WAVELENGTHS["blue"]
    jobs.append(("rate-ook-blue-50m.csv", ook_hypotheses(blue_nm, link50)))
    curves = rate_curve(
        [h for _, h in jobs], grid, _REPRODUCE_RATE_SAMPLES, REPRODUCE_SIM_SEED
    )
    return {
        name: (curve, config_digest({"figure": "4b", "curve": name, "params": params}))
        for (name, _), curve in zip(jobs, curves)
    }


def _cmd_reproduce(args) -> None:
    out_dir = Path(args.out)
    with _failing(EXIT_IO, f"cannot write to {out_dir}", OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
    _check_writable(out_dir, f"cannot write to {out_dir}")
    cfg = OptimizerConfig(rng_seed=REPRODUCE_DESIGN_SEED)
    gamut = led_triangle_gamut()
    with _failing(EXIT_INFEASIBLE, "design failed", *_DESIGN_FAILED):
        designs = {
            tid: design_constellation(blue_target_preset(tid), cfg, gamut).constellation
            for tid in (1, 2, 3)
        }
    params: dict = {
        "figure": args.figure,
        "design_seed": REPRODUCE_DESIGN_SEED,
        "sim_seed": REPRODUCE_SIM_SEED,
        "gamut": "led-triangle",
        "water": "seawater",
    }
    figure = _figure_4a if args.figure == "4a" else _figure_4b
    with _failing(EXIT_INFEASIBLE, "infeasible constellation", *_UNRENDERABLE):
        curves = figure(designs, params)
    with _failing(EXIT_IO, "cannot write output", OSError):
        for tid, c in designs.items():
            doc = constellation_document(
                c,
                blue_target_preset(tid),
                f"ucsk reproduce preset {tid} seed={REPRODUCE_DESIGN_SEED} "
                "gamut=led-triangle",
            )
            write_constellation_json(out_dir / f"design-target{tid}.json", doc)
        for name, (curve, sha) in curves.items():
            write_curve_csv(out_dir / name, curve, sha)
        _write_manifest(
            out_dir / "manifest.json",
            "reproduce",
            params,
            {"seawater (bundled)": _bundled_digest("seawater.csv")},
            REPRODUCE_SIM_SEED,
        )
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
    p.add_argument("--starts", type=int, default=32)
    p.add_argument(
        "--gamut",
        choices=("horseshoe", "led-triangle"),
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
        "is checked against the horseshoe",
    )
    p.add_argument("--constellation", required=True,
                   help="JSON file or bundled fixture name (e.g. table1-t3o1)")
    p.add_argument("--preset", type=int, choices=(1, 2, 3))
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
    p.add_argument("--wavelength", type=float, help="OOK wavelength in nm")
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
