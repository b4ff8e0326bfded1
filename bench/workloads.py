"""The benchmark's two closed-loop workloads.

Each workload is a fixed sequence of ``ucsk.cli.main(argv)`` calls made
by one client; a call starts when the previous one has returned.  The
benchmark seed only reaches the program through the argv built here.

* ``design`` - maximin design of the three presets over the 62-edge
  horseshoe gamut, where gamut queries are at their most expensive.  No
  Monte Carlo.
* ``reproduce`` - the paper-figure command, ``4a`` then ``4b``: designs
  over the 3-edge LED triangle, where loop overhead dominates, plus Monte
  Carlo (SER in 4a, mutual information in 4b) and curve/manifest output.
  Its inputs are fixed by the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("design", "reproduce")

INPUTS = Path(__file__).resolve().parent / "inputs"
PRESETS = (1, 2, 3)

# What `ucsk reproduce` runs, restated for its checks.
REPRO_SER_GRID = "0:3:30"
REPRO_RATE_GRID = "0:3:45"
REPRO_SER_SYMBOLS = 100_000
REPRO_4B_RATES = [(f"rate-ucsk-target{k}-10m.csv", 4) for k in PRESETS] + [
    (f"rate-ook-{c}-10m.csv", 2) for c in ("red", "green", "blue")
] + [("rate-ook-blue-50m.csv", 2)]

SER_REPORT_DB = 21.0


def grid(spec: str) -> list[float]:
    lo, step, hi = (float(v) for v in spec.split(":"))
    return [lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1)]


@dataclass
class Call:
    """One CLI call: its argv, the directory it writes into, and the check
    of what it wrote.  ``check`` returns (problems, figures)."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[], tuple[list[str], dict[str, list[float]]]]


def input_design(k: int) -> str:
    """A committed constellation: the ``reproduce`` design of preset ``k``."""
    return os.path.relpath(INPUTS / f"design-target{k}.json")


def _design_check(path: Path, preset: int, gamut: str):
    def check():
        doc, problems = checks.read_design(path)
        if doc is None:
            return problems, {}
        problems, ratio = checks.check_design(doc, preset, gamut)
        return problems, {"dmin_cap_ratio": [ratio]}
    return check


def _ser_check(path: Path, grid_spec: str, n: int):
    def check():
        g = grid(grid_spec)
        problems, ser = checks.check_ser(path, path.with_suffix(".ub.csv"), g, n)
        figures = {"ser_21db": [ser[g.index(SER_REPORT_DB)]]} if ser else {}
        return problems, figures
    return check


def _bundle_check(out: Path, figure: str):
    def check():
        problems: list[str] = []
        figures: dict[str, list[float]] = {"dmin_cap_ratio": [], "ser_21db": []}
        for k in PRESETS:
            p, f = _design_check(out / f"design-target{k}.json", k, "led-triangle")()
            problems += p
            figures["dmin_cap_ratio"] += f.get("dmin_cap_ratio", [])
        if figure == "4a":
            for k in PRESETS:
                p, f = _ser_check(out / f"ser-target{k}.csv", REPRO_SER_GRID, REPRO_SER_SYMBOLS)()
                problems += p
                figures["ser_21db"] += f.get("ser_21db", [])
        else:
            for name, m in REPRO_4B_RATES:
                problems += checks.check_rate(out / name, grid(REPRO_RATE_GRID), m)
        if not (out / "manifest.json").is_file():
            problems.append(f"{out}: no manifest.json")
        return problems, {k: v for k, v in figures.items() if v}
    return check


def calls(workload: str, seed: int, base: Path) -> list[Call]:
    """The calls of one pass, writing under ``base``."""
    out = []
    if workload == "design":
        for p in PRESETS:
            d = base / f"design-p{p}"
            path = d / "design.json"
            out.append(Call(
                f"design-p{p}",
                ["design", "--preset", str(p), "--gamut", "horseshoe",
                 "--starts", "32", "--seed", str(seed), "--out", str(path)],
                d, _design_check(path, p, "horseshoe"),
            ))
    elif workload == "reproduce":
        for figure in ("4a", "4b"):
            out.append(reproduce_call(figure, base / f"reproduce-{figure}"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def reproduce_call(figure: str, d: Path, label: str | None = None) -> Call:
    return Call(
        label or f"reproduce-{figure}",
        ["reproduce", "--figure", figure, "--out", str(d)],
        d, _bundle_check(d, figure),
    )


def warmup_calls(base: Path) -> list[Call]:
    """Cheap untimed calls through the optimizer, SER and rate paths, so
    lazy imports and table loads finish before timing.  Fixed inputs: they
    must succeed whatever the benchmark seed."""
    d = base / "warmup"
    design = d / "design.json"
    tiny = ["--water", "seawater", "--distance", "10", "--snr", "21:3:21", "--seed", "0"]
    return [
        Call("warmup-design",
             ["design", "--preset", "1", "--gamut", "led-triangle", "--starts", "1",
              "--seed", "0", "--out", str(design)],
             d, lambda: ([], {})),
        Call("warmup-ser",
             ["ser", "--constellation", input_design(1), *tiny, "--symbols", "10000",
              "--out", str(d / "ser.csv")],
             d, lambda: ([], {})),
        Call("warmup-rate",
             ["rate", "--scheme", "ucsk", "--constellation", input_design(1), *tiny,
              "--samples", "10000", "--out", str(d / "rate.csv")],
             d, lambda: ([], {})),
    ]
