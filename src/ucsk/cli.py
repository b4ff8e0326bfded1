"""Command-line front end.

Subcommands: ``design`` (constrained maximin placement), ``validate``
(report a constellation against a blue target), ``ser`` (Monte Carlo
symbol error rate plus union bound), ``rate`` (achievable-rate curves for
UCSK or OOK), and ``reproduce`` (fixed-seed CSV bundles for the standard
SER and rate figures).

Every invocation writes a run manifest next to its outputs; identical
arguments and inputs reproduce outputs byte for byte.  Exit codes:
0 success, 1 usage error, 2 infeasible target or constellation,
3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .channel import WaterTableError, WaterProperties, load_water_csv, seawater
from .colorimetry import (
    ChromaticityPoint,
    OutOfGamutError,
    in_gamut,
    spectral_locus,
    xy_distance,
)
from .constellation import (
    BlueTarget,
    build_constellation,
    constellation_document,
    document_to_constellation,
    read_constellation_json,
    validate_against_target,
    write_constellation_json,
)
from .linksim import (
    Curve,
    InfeasibleConstellationError,
    LinkConfig,
    build_hypotheses,
    config_digest,
    mutual_information,
    noise_sigma,
    ook_hypotheses,
    simulate_ser,
    union_bound_ser,
    write_curve_csv,
)
from .optimizer import (
    ConvergenceError,
    InfeasibleTargetError,
    OptimizerConfig,
    design_constellation,
)
from .presets import TABLE1_FIXTURES, blue_target_preset, led_triangle_gamut

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

_OOK_WAVELENGTHS = {"red": 700.0, "green": 550.0, "blue": 460.0}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise _UsageError(message)


def _config(cls, **kwargs):
    """Build a validated config; a rejected value is a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_center(text: str) -> ChromaticityPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--target-center expects 'x,y', got {text!r}")
    try:
        return ChromaticityPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise _UsageError(f"bad --target-center {text!r}: {exc}")


def parse_snr_grid(text: str) -> list[float]:
    """Parse LO:STEP:HI (dB, inclusive ends)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--snr expects LO:STEP:HI, got {text!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad --snr {text!r}: {exc}")
    if step <= 0 or hi < lo:
        raise _UsageError(f"--snr needs STEP > 0 and HI >= LO, got {text!r}")
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + i * step for i in range(count)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bundled_digest(name: str) -> str:
    ref = resources.files("ucsk.data").joinpath(name)
    with resources.as_file(ref) as path:
        return _sha256(Path(path))


def _load_water(spec: str) -> tuple[WaterProperties, dict[str, str]]:
    if spec == "seawater":
        return seawater(), {"seawater (bundled)": _bundled_digest("seawater.csv")}
    path = Path(spec)
    return load_water_csv(path), {str(path): _sha256(path)}


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


def _cmd_design(args) -> int:
    if args.preset is not None:
        target = blue_target_preset(args.preset)
    elif args.target_center and args.target_radius is not None:
        if args.target_radius < 0:
            raise _UsageError("--target-radius must be >= 0")
        target = BlueTarget(_parse_center(args.target_center), args.target_radius)
    else:
        raise _UsageError(
            "give --preset or both --target-center and --target-radius"
        )
    cfg = _config(OptimizerConfig, multistart_count=args.starts, rng_seed=args.seed)
    gamut = _gamut_for(args.gamut)
    try:
        result = design_constellation(target, cfg, gamut)
    except (InfeasibleTargetError, ConvergenceError) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    report = validate_against_target(result.constellation, target, gamut)
    provenance = (
        f"ucsk design seed={args.seed} starts={args.starts} gamut={args.gamut}"
    )
    doc = constellation_document(result.constellation, target, provenance)
    out = Path(args.out)
    try:
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
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"achieved d_min: {result.achieved_dmin:.6f}")
    print(f"constraint margin: {report.margin:+.6f} (inside={report.inside})")
    print(f"wrote {out}")
    return EXIT_OK


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
    doc = read_constellation_json(path)
    c = document_to_constellation(doc)
    return c, doc, None, {str(path): _sha256(path)}


def _cmd_validate(args) -> int:
    try:
        c, doc, fixture_target, _ = _load_constellation_arg(args.constellation)
    except (OSError, ValueError) as exc:
        print(f"cannot read constellation: {exc}", file=sys.stderr)
        return EXIT_IO
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
    memberships = {lab: in_gamut(p, gamut) for lab, p in c.points().items()}
    print(f"gamut membership: {memberships}")
    if target is not None:
        report = validate_against_target(c, target, gamut)
        state = "inside" if report.inside else "OUTSIDE"
        print(
            f"blue target: |X-center|={report.center_distance:.4f} "
            f"radius={target.radius} margin={report.margin:+.4f} ({state})"
        )
    else:
        print("blue target: none given; disk check skipped")
    return EXIT_OK


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


def _cmd_ser(args) -> int:
    grid = parse_snr_grid(args.snr)
    if args.symbols < 10_000:
        raise _UsageError("--symbols must be >= 10000")
    try:
        c, doc, _, const_inputs = _load_constellation_arg(args.constellation)
    except (OSError, ValueError) as exc:
        print(f"cannot read constellation: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        water, water_inputs = _load_water(args.water)
    except (OSError, WaterTableError) as exc:
        print(f"cannot read water table: {exc}", file=sys.stderr)
        return EXIT_IO
    link = _config(LinkConfig, water=water, distance_m=args.distance)
    sha = config_digest(
        _curve_payload(doc, water_inputs, args, {"symbols": args.symbols, "kind": "ser"})
    )
    try:
        curve = simulate_ser(c, link, grid, args.symbols, args.seed).with_digest(sha)
        bound = Curve(
            tuple(grid),
            tuple(union_bound_ser(c, link, s) for s in grid),
            seed=args.seed,
            n=args.symbols,
            config_sha=sha,
        )
    except (InfeasibleConstellationError, OutOfGamutError) as exc:
        print(f"infeasible constellation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out = Path(args.out)
    try:
        write_curve_csv(out, curve)
        write_curve_csv(_ub_path(out), bound)
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
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out} and {_ub_path(out)}")
    return EXIT_OK


def _cmd_rate(args) -> int:
    grid = parse_snr_grid(args.snr)
    if args.samples < 10_000:
        raise _UsageError("--samples must be >= 10000")
    if args.scheme == "ook" and args.wavelength is None:
        raise _UsageError("--scheme ook requires --wavelength")
    if args.scheme == "ucsk" and not args.constellation:
        raise _UsageError("--scheme ucsk requires --constellation")
    try:
        water, water_inputs = _load_water(args.water)
    except (OSError, WaterTableError) as exc:
        print(f"cannot read water table: {exc}", file=sys.stderr)
        return EXIT_IO
    link = _config(LinkConfig, water=water, distance_m=args.distance)
    doc = None
    const_inputs: dict[str, str] = {}
    try:
        if args.scheme == "ucsk":
            try:
                c, doc, _, const_inputs = _load_constellation_arg(args.constellation)
            except (OSError, ValueError) as exc:
                print(f"cannot read constellation: {exc}", file=sys.stderr)
                return EXIT_IO
            hypotheses = build_hypotheses(c, link)
        else:
            hypotheses = ook_hypotheses(args.wavelength, link)
    except (InfeasibleConstellationError, OutOfGamutError, ValueError) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
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
    # Rate curves reference the SNR knob to transmit power, so path loss
    # shows up as the color- and distance-dependent penalty it is.
    values = []
    for i, snr in enumerate(grid):
        sigma = noise_sigma(hypotheses, snr, "transmit")
        mi = mutual_information(hypotheses, sigma, args.samples, args.seed, stream=i)
        values.append(link.bandwidth_hz * mi)
    curve = Curve(tuple(grid), tuple(values), args.seed, args.samples, sha)
    out = Path(args.out)
    try:
        write_curve_csv(out, curve)
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
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out}")
    return EXIT_OK


def _reproduce_designs(out_dir: Path) -> dict[int, object]:
    cfg = OptimizerConfig(rng_seed=REPRODUCE_DESIGN_SEED)
    gamut = led_triangle_gamut()
    designs = {}
    for tid in (1, 2, 3):
        target = blue_target_preset(tid)
        result = design_constellation(target, cfg, gamut)
        designs[tid] = result.constellation
        doc = constellation_document(
            result.constellation,
            target,
            f"ucsk reproduce preset {tid} seed={REPRODUCE_DESIGN_SEED} gamut=led-triangle",
        )
        write_constellation_json(out_dir / f"design-target{tid}.json", doc)
    return designs


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    water = seawater()
    try:
        designs = _reproduce_designs(out_dir)
    except (InfeasibleTargetError, ConvergenceError) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    params: dict = {
        "figure": args.figure,
        "design_seed": REPRODUCE_DESIGN_SEED,
        "sim_seed": REPRODUCE_SIM_SEED,
        "gamut": "led-triangle",
        "water": "seawater",
    }
    inputs = {"seawater (bundled)": _bundled_digest("seawater.csv")}
    if args.figure == "4a":
        grid = parse_snr_grid(_REPRODUCE_SER_GRID)
        link = LinkConfig(water=water, distance_m=10.0)
        params.update(
            {"snr": _REPRODUCE_SER_GRID, "symbols": _REPRODUCE_SER_SYMBOLS,
             "distance_m": 10.0}
        )
        for tid, c in designs.items():
            sha = config_digest({"figure": "4a", "target": tid, "params": params})
            curve = simulate_ser(
                c, link, grid, _REPRODUCE_SER_SYMBOLS, REPRODUCE_SIM_SEED
            ).with_digest(sha)
            bound = Curve(
                tuple(grid),
                tuple(union_bound_ser(c, link, s) for s in grid),
                REPRODUCE_SIM_SEED,
                _REPRODUCE_SER_SYMBOLS,
                sha,
            )
            write_curve_csv(out_dir / f"ser-target{tid}.csv", curve)
            write_curve_csv(out_dir / f"ser-target{tid}.ub.csv", bound)
    else:
        grid = parse_snr_grid(_REPRODUCE_RATE_GRID)
        params.update(
            {"snr": _REPRODUCE_RATE_GRID, "samples": _REPRODUCE_RATE_SAMPLES}
        )
        link10 = LinkConfig(water=water, distance_m=10.0)
        link50 = LinkConfig(water=water, distance_m=50.0)
        jobs = [
            (f"rate-ucsk-target{tid}-10m.csv", build_hypotheses(designs[tid], link10))
            for tid in (1, 2, 3)
        ]
        jobs += [
            (f"rate-ook-{color}-10m.csv", ook_hypotheses(wl, link10))
            for color, wl in _OOK_WAVELENGTHS.items()
        ]
        jobs.append(("rate-ook-blue-50m.csv", ook_hypotheses(460.0, link50)))
        for name, hypotheses in jobs:
            sha = config_digest({"figure": "4b", "curve": name, "params": params})
            values = []
            for i, snr in enumerate(grid):
                sigma = noise_sigma(hypotheses, snr, "transmit")
                mi = mutual_information(
                    hypotheses, sigma, _REPRODUCE_RATE_SAMPLES,
                    REPRODUCE_SIM_SEED, stream=i,
                )
                values.append(link10.bandwidth_hz * mi)
            write_curve_csv(
                out_dir / name,
                Curve(tuple(grid), tuple(values), REPRODUCE_SIM_SEED,
                      _REPRODUCE_RATE_SAMPLES, sha),
            )
    _write_manifest(
        out_dir / "manifest.json", "reproduce", params, inputs, REPRODUCE_SIM_SEED
    )
    print(f"wrote bundle to {out_dir}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="ucsk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("design", parents=[], help="optimize a constellation")
    p.add_argument("--preset", type=int, choices=(1, 2, 3))
    p.add_argument("--target-center", help="disk center as 'x,y'")
    p.add_argument("--target-radius", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument(
        "--gamut",
        choices=("horseshoe", "led-triangle"),
        default="horseshoe",
        help="design inside the full visible gamut or the LED source "
        "triangle (required for link simulation)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("validate", help="report on a constellation file or fixture")
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("reproduce", help="fixed-seed figure data bundles")
    p.add_argument("--figure", choices=("4a", "4b"), required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
