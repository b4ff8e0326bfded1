"""Benchmark for the ucsk package: one closed-loop client per workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload design --seed 0 --seconds 45 --trace 0

The client imports ``ucsk`` from ``src/`` and issues ``ucsk.cli.main(argv)``
calls in sequence, repeating the workload's pass while it fits in
``--seconds`` (at least two passes; one in a traced run).  Every output is
checked.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see spans.py).  UCSK_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are left as found.  Scratch output goes to ``.ucskbench/``
under the checkout.  The exit code is 0 when every call and check
passed, 1 when one failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import workloads

WORK_DIR = Path(".ucskbench")
SETUP_SAMPLES = 5
# Timed passes per run at the least, so each call's fastest time is the
# best of several.
MIN_TIMED_PASSES = 2
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import ucsk.cli; "
    "from ucsk.colorimetry import spectral_locus, photopic_efficacy; "
    "from ucsk.channel import seawater; "
    "spectral_locus(); photopic_efficacy(460.0); seawater()"
)
THREAD_VARS = ("UCSK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Gated end-to-end metrics, reported on every workload: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Attempts (calls and determinism comparisons) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def invoke(main, call: workloads.Call, rec: spans.Recorder | None):
    """One closed-loop call; returns (exit code or None, stderr text)."""
    call.out.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if rec is None:
                rc = main(call.argv)
            else:
                rc = rec.root(call.label, main, call.argv)
    except Exception:  # a traceback is a failed call; the client goes on
        return None, traceback.format_exc()
    return rc, err.getvalue()


def run_calls(main, calls, tally: Tally, rec=None):
    """Run calls back to back, then check them.

    Returns ({label: (wall s, cpu s)}, {label: digest}, {figure: [values]}).
    CPU time is the whole process's, so busy helper threads count."""
    timings = {}
    results = []
    for call in calls:
        w, c = time.perf_counter(), time.process_time()
        results.append(invoke(main, call, rec))
        timings[call.label] = (time.perf_counter() - w, time.process_time() - c)
    digests, figures = {}, {}
    for call, (rc, err) in zip(calls, results):
        if rc != 0:
            tally.add(call.label, [f"exit code {rc}: {err.strip()[-2000:]}"])
            continue
        problems, figs = call.check()
        tally.add(call.label, problems)
        for k, v in figs.items():
            figures.setdefault(k, []).extend(v)
        digests[call.label] = checks.bundle_digest(call.out)
    return timings, digests, figures


def source_digest(root: Path = Path("src")) -> str:
    files = [
        (p.relative_to(root).as_posix(), p)
        for p in root.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    return checks.digest(files)


def _blas(config) -> str:
    try:
        blas = config.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_sha() -> str | None:
    if not Path(".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return (res.stdout.strip() or None) if res.returncode == 0 else None


def run_context(args, src_digest: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(getattr(numpy, "__config__", None)),
        "scipy_blas": _blas(getattr(scipy, "__config__", None)),
        "git_sha": _git_sha(),
        "source_sha256": src_digest,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import ucsk.cli and load
    the bundled tables."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], check=True, timeout=SETUP_TIMEOUT_S
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def repeat(budget_s: float, do_pass, min_passes: int) -> list:
    """Call ``do_pass(index)`` at least ``min_passes`` times, and again while
    the next pass is expected to end within ``budget_s`` seconds of the
    first pass's start."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= budget_s
    ):
        passes.append(do_pass(len(passes)))
    return passes


def compare_to_first(tally: Tally, first: dict, digests: dict) -> None:
    """Record the first digest of each call label; compare later ones."""
    for label, d in digests.items():
        if label in first:
            tally.add(f"{label} rerun", checks.compare_digest(label, first[label], d))
        else:
            first[label] = d


def determinism_pair(main, tally: Tally, run_dir: Path) -> str | None:
    """Untimed reproduce 4a at UCSK_THREADS=1 and =2; bundles must match."""
    saved = os.environ.get("UCSK_THREADS")
    found = {}
    try:
        for threads in ("1", "2"):
            os.environ["UCSK_THREADS"] = threads
            call = workloads.reproduce_call(
                "4a", run_dir / f"pair-threads{threads}", f"reproduce-4a-threads{threads}"
            )
            _, digests, _ = run_calls(main, [call], tally)
            found[threads] = digests.get(call.label)
    finally:
        if saved is None:
            os.environ.pop("UCSK_THREADS", None)
        else:
            os.environ["UCSK_THREADS"] = saved
    if found["1"] and found["2"]:
        tally.add(
            "reproduce-4a UCSK_THREADS=1 vs 2",
            checks.compare_digest("UCSK_THREADS=2 bundle", found["1"], found["2"]),
        )
    return found["1"]


def pass_time(passes, index: int) -> float:
    """A pass's wall (index 0) or CPU (index 1) time: each call's fastest
    time over the passes, summed over the calls.

    The machine this benchmark was built on is shared, and other tenants
    slow a call by up to 2x for stretches of 10 to 80 seconds.  A median
    over a run's few passes follows those stretches; the fastest of them
    does much less (see README.md)."""
    labels = passes[0]["timings"]
    return sum(min(p["timings"][lb][index] for p in passes) for lb in labels)


def workload_figures(workload: str, passes) -> dict[str, tuple[float, str]]:
    """Workload-specific end-to-end figures, printed but not gated."""
    figs = passes[0]["figures"]
    out = {}
    if "dmin_cap_ratio" in figs:
        out["dmin_cap_ratio"] = (statistics.fmean(figs["dmin_cap_ratio"]), "ratio")
    if workload == "reproduce":
        for figure in ("4a", "4b"):
            label = f"reproduce-{figure}"
            out[f"reproduce_{figure}_s"] = (min(p["timings"][label][0] for p in passes), "s")
        if "ser_21db" in figs:
            out["ser_21db_mean"] = (statistics.fmean(figs["ser_21db"]), "prob.")
    return out


def timed_run(main, args, tally, run_dir, src_digest, setup_s) -> dict:
    ledger = checks.DigestLedger(WORK_DIR / "reproduce-digests.json")
    pair_digest = None
    if args.workload == "reproduce" and not ledger.has(f"{src_digest[:16]}:reproduce-4a"):
        # The first reproduce run of this source in the checkout; later
        # runs are held to the bundles it records.
        pair_digest = determinism_pair(main, tally, run_dir)
    first: dict[str, str] = {}

    def do_pass(index):
        base = run_dir / f"pass{index}"
        calls = workloads.calls(args.workload, args.seed, base)
        timings, digests, figures = run_calls(main, calls, tally)
        compare_to_first(tally, first, digests)
        shutil.rmtree(base, ignore_errors=True)
        return {"timings": timings, "figures": figures}

    passes = repeat(args.seconds, do_pass, MIN_TIMED_PASSES)
    if args.workload == "reproduce":
        if pair_digest and "reproduce-4a" in first:
            tally.add("reproduce-4a vs UCSK_THREADS pair", checks.compare_digest(
                "timed reproduce-4a bundle", pair_digest, first["reproduce-4a"]))
        for label in ("reproduce-4a", "reproduce-4b"):
            if label in first:
                tally.add(f"{label} across runs",
                          ledger.check(f"{src_digest[:16]}:{label}", first[label]))
        for label, d in first.items():
            print(f"bundle {label} sha256 {d}")
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_time(passes, 0),
        "cpu_s": pass_time(passes, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    print(f"passes {len(passes)}")
    for label in passes[0]["timings"]:
        wall, cpu = (min(p["timings"][label][i] for p in passes) for i in (0, 1))
        print(f"call {label}: fastest wall {wall:.3f} s  cpu {cpu:.3f} s")
    extra = workload_figures(args.workload, passes)
    extra["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    for name, (value, unit) in extra.items():
        print(f"figure {name} = {value!r} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(main, args, tally, run_dir) -> dict:
    """Passes in which each call runs untraced and then traced, so that the
    two timings behind ``trace.overhead_s`` are seconds apart."""
    first: dict[str, str] = {}
    missing: set[str] = set()

    def do_pass(index):
        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        base = run_dir / f"pass{index}"
        plain, traced = {}, {}
        pairs = zip(workloads.calls(args.workload, args.seed, base / "plain"),
                    workloads.calls(args.workload, args.seed, base / "traced"))
        for plain_call, traced_call in pairs:
            timings, digests, _ = run_calls(main, [plain_call], tally)
            plain.update(timings)
            compare_to_first(tally, first, digests)
            tracer.install()
            try:
                timings, digests, _ = run_calls(main, [traced_call], tally, rec)
            finally:
                tracer.uninstall()
            traced.update(timings)
            compare_to_first(tally, first, digests)
        missing.update(tracer.missing)
        shutil.rmtree(base, ignore_errors=True)
        return {"timings": traced, "plain": plain, "rec": rec}

    traced = repeat(args.seconds, do_pass, 1)
    for name in sorted(missing):
        print(f"warning: {name} not traced", file=sys.stderr)
    per_pass = [spans.layer_metrics(p["rec"].spans, p["rec"].counters) for p in traced]
    counts = [m for m, (unit, _) in spans.LAYER_METRICS.items() if unit == "count"]
    for index, m in enumerate(per_pass[1:], start=1):
        diffs = [f"{k} {per_pass[0][k]} vs {m[k]}" for k in counts if m[k] != per_pass[0][k]]
        tally.add(f"traced pass {index} counts", diffs)
    metrics = spans.median_metrics(per_pass)
    plain = [{"timings": p["plain"]} for p in traced]
    metrics["trace.overhead_s"] = pass_time(traced, 0) - pass_time(plain, 0)
    rec0 = traced[0]["rec"]
    breakdown = spans.per_root(rec0.spans, rec0.root_labels)
    for label in traced[0]["timings"]:
        row = dict(sorted(breakdown.get(label, {}).items()))
        row.update({f"counter.{k}": v for k, v in sorted(rec0.root_counters[label].items())})
        print(f"spans {label} {json.dumps(row)}")
    print(f"passes {len(traced)}")
    span_file = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.write_spans(span_file, [p["rec"] for p in traced])
    print(f"spans written to {span_file}")
    units = {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/ucsk/cli.py").is_file():
        print("bench: run from the root of a ucsk checkout (no src/ucsk/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    try:
        from ucsk.cli import main as cli_main
    except ImportError as exc:
        print(f"bench: cannot import ucsk: {exc}", file=sys.stderr)
        return 2
    src_digest = source_digest()
    context = run_context(args, src_digest)
    print(f"context {json.dumps(context, sort_keys=True)}")
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    tally = Tally()
    try:
        setup_s = measure_setup() if args.trace == 0 else None
        run_calls(cli_main, workloads.warmup_calls(run_dir), tally)
        if args.trace:
            metrics = traced_run(cli_main, args, tally, run_dir)
        else:
            metrics = timed_run(cli_main, args, tally, run_dir, src_digest, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, context=context, problems=tally.problems)
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
