"""Run one whirly-lab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload whirl-deep --seed 31415926 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
A run repeats passes of the workload (see ``workloads.py``) until ``--seconds``
are used, checks every output, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
spends half the time on untraced passes and half on passes with the tracer
installed, and reports the per-layer metrics of the traced ones.  A full record
of the run (provenance, every pass, and in a traced run every span) is written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# workloads.py and tracer.py import whirly_lab, so functions import them only
# after main() has checked that src/ holds the package and put it on sys.path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 31415926
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120

# On a shared virtual machine the hypervisor can take a vCPU away for long
# stretches, and neighbours on the host slow each instruction, for minutes at
# a time.  Time to verdict is therefore gated as verdict_rel: each pass's wall
# time, less its stolen share, divided by the same time of a fixed NumPy
# reference kernel run right before and after it.  The plain times and sample
# rates are printed in the summary and kept in the record, but not gated.
END_TO_END = (
    ("setup_s", "s"),
    ("verdict_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Size of the reference kernel: about 0.13 s per thread on the Xeon vCPUs of
# the README's noise table.  A chunk of complex draws is 2 MB, the size of L2,
# and the whole kernel holds under 8 MB, so it does not raise peak_rss_mb.
REFERENCE_CHUNKS = 16
REFERENCE_DRAWS = 125_000
REFERENCE_SMALL_CALLS = 1500
REFERENCE_SEED = 20120118


@dataclass
class Pass:
    index: int
    seed: int
    wall_s: float
    cpu_s: float
    # wall_s less the share of it the hypervisor stole from the CPUs.
    verdict_s: float
    outputs: list[str | None] = field(default_factory=list)
    # Mean time of the reference kernel runs right before and after, measured
    # as verdict_s is.
    reference_s: float = 0.0

    @property
    def verdict_rel(self) -> float:
        return self.verdict_s / self.reference_s


@dataclass
class Tally:
    """Operations attempted and failed, and pinned verdicts that did not pass."""

    attempted: int = 0
    failed: int = 0
    verdicts_failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def cpu_ticks() -> tuple[int, int]:
    """Busy and stolen clock ticks of all CPUs since boot, from ``/proc/stat``;
    ``(0, 0)`` where the kernel does not report them."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (int(x) for x in f.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def unstolen(wall_s: float, before: tuple[int, int], after: tuple[int, int]) -> float:
    """Wall time less the share of it that was stolen.

    Of the time the CPUs wanted to run, ``steal / (busy + steal)`` went to
    other guests of the host.  With one busy thread that is the share of the
    wall time it waited; with every CPU busy it is the mean CPU's share.
    """
    busy, steal = after[0] - before[0], after[1] - before[1]
    if busy + steal <= 0:
        return wall_s
    return wall_s * busy / (busy + steal)


def _reference_body(seed: int) -> int:
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(REFERENCE_CHUNKS):
        z = rng.standard_normal(2 * REFERENCE_DRAWS).view(np.complex128)
        w = z * (0.6 + 0.8j)
        w += 0.5j * z[::-1]
        hits += int(np.count_nonzero(np.abs(w) < 1.0))
    for _ in range(REFERENCE_SMALL_CALLS):
        a = rng.standard_normal(64)
        hits += int(np.sum(a * a) < 64.0)
    return hits


def reference_kernel(threads: int) -> float:
    """Wall seconds, less their stolen share, of a fixed NumPy workload that
    does not touch whirly_lab.

    It mixes what the workloads spend their time on: large arrays of complex
    normals, complex arithmetic, moduli and comparisons, and many calls on
    small arrays.  It runs in as many threads as the workload has workers, so
    it uses the same CPUs.  The time it takes moves with the speed the shared
    host gives this process, so dividing a pass's time by it takes most of
    that out.
    """
    ticks = cpu_ticks()
    start = time.perf_counter()
    if threads == 1:
        # A pool thread would get a malloc arena of its own, whose pages
        # would raise the single-worker workloads' peak_rss_mb.
        hits = [_reference_body(REFERENCE_SEED)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = list(pool.map(_reference_body, range(REFERENCE_SEED, REFERENCE_SEED + threads)))
    elapsed = time.perf_counter() - start
    if min(hits) <= 0:
        raise RuntimeError("reference kernel computed nothing")
    return unstolen(elapsed, ticks, cpu_ticks())


def run_pass(workload, index: int, seed: int, tally: Tally, tracer=None, reference: Pass | None = None) -> Pass:
    """Issue every call of the workload once, then check the outputs.

    ``wall_s``, ``cpu_s`` and ``verdict_s`` run from the first call to the
    last verdict; the checks run after it.  With a ``reference`` pass of the
    same index, every output must also equal the reference's.
    """
    from workloads import canonical, pass_seed

    master = pass_seed(seed, index)
    results = []
    ticks = cpu_ticks()
    start, cpu_start = time.perf_counter(), time.process_time()
    for call in workload.calls:
        try:
            if tracer is None:
                results.append((call.run(master), None))
            else:
                with tracer.operation(index, call.name):
                    results.append((call.run(master), None))
        except Exception:  # a raising call is a failed operation, not a crash
            results.append((None, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    done = Pass(index, master, wall_s, cpu_s, unstolen(wall_s, ticks, cpu_ticks()))
    for i, (call, (report, error)) in enumerate(zip(workload.calls, results)):
        label = f"pass {index} {call.name}"
        if report is None:
            tally.record(label, [error])
            done.outputs.append(None)
            continue
        done.outputs.append(canonical(report))
        problems = call.check(report)
        if reference is not None and reference.outputs[i] != done.outputs[i]:
            problems.append("output differs from the untraced pass with the same seed")
        tally.record(label, problems)
        if not call.verdict(report):
            tally.verdicts_failed += 1
    return done


def warm(passes: list[Pass]) -> list[Pass]:
    """Passes that count: the first one warms the allocator and caches."""
    return passes[1:] if len(passes) > 1 else passes


def run_passes(workload, seed: int, seconds: float, tally: Tally, tracer=None,
               references: list[Pass] = ()) -> list[Pass]:
    """Closed loop: start passes while one more is expected to end in time.

    The reference kernel runs before the first pass and after every pass.
    """
    passes: list[Pass] = []
    began = time.perf_counter()
    before = reference_kernel(workload.workers)
    while True:
        index = len(passes)
        reference = references[index] if index < len(references) else None
        done = run_pass(workload, index, seed, tally, tracer, reference)
        after = reference_kernel(workload.workers)
        done.reference_s, before = (before + after) / 2.0, after
        passes.append(done)
        typical = statistics.median(p.wall_s + p.reference_s for p in passes)
        if time.perf_counter() - began + typical > seconds:
            return passes


def setup_time(name: str) -> tuple[float, float]:
    """Wall and CPU seconds from starting a fresh interpreter to a built workload."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    ready, cpu = (float(x) for x in proc.stdout.split()[-2:])
    return ready - started, cpu


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(ROOT / ".git" / ref)
    if commit != "unknown":
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level") == str(level) and _read(index / "type") in ("Unified", "Data"):
            return _read(index / "size")
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import workloads

    built = {name: workloads.build(name) for name in workloads.WORKLOADS}
    return {
        "nproc": workloads.nproc(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache(2),
        "l3_cache": _cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "workers": {name: w.workers for name, w in built.items()},
        "stated_samples": {name: w.samples for name, w in built.items()},
    }


def _median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0) -> dict:
    """Run a workload and return its metrics, tally and full record."""
    import tracer as tracing
    import workloads

    workload = workloads.build(name, scale)
    tally = Tally()
    record: dict = {"workload": name, "trace": int(trace), "provenance": provenance(seed)}

    if not trace:
        setups = [setup_time(name) for _ in range(SETUP_RUNS)]
        passes = run_passes(workload, seed, seconds, tally)
        verdict_s = statistics.median(p.verdict_s for p in warm(passes))
        metrics = {
            "setup_s": statistics.median(cpu for _, cpu in setups),
            "verdict_rel": statistics.median(p.verdict_rel for p in warm(passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_runs_wall_cpu_s"] = setups
        record["not_gated"] = {
            "verdict_s": (verdict_s, "s"),
            "reference_s": (statistics.median(p.reference_s for p in warm(passes)), "s"),
            "samples_per_s": (workload.samples / verdict_s, "1/s"),
            "verdict_wall_s": (statistics.median(p.wall_s for p in warm(passes)), "s"),
            "verdict_cpu_s": (statistics.median(p.cpu_s for p in warm(passes)), "s"),
            "setup_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
        }
    else:
        passes = run_passes(workload, seed, seconds / 2.0, tally)
        tr = tracing.Tracer()
        tr.install()
        try:
            unwrapped = tr.unwrapped_bindings()
            traced = run_passes(workload, seed, seconds / 2.0, tally, tracer=tr, references=passes)
        finally:
            tr.uninstall()
        rows = []
        for p in warm(traced):
            ops = {op for op, (index, _) in tr.ops.items() if index == p.index}
            rows.append(tracing.layer_metrics(
                [s for s in tr.spans if s.op in ops], [r for r in tr.sampled if r.op in ops]
            ))
        metrics = _median_metrics(rows)
        metrics["trace_overhead_share"] = (
            statistics.median(p.cpu_s for p in warm(traced))
            / statistics.median(p.cpu_s for p in warm(passes)) - 1.0
        )
        missing = [m for m in workload.expected if not metrics[m] > 0.0]
        tally.record("trace coverage", [f"span {m} stayed empty" for m in missing] +
                     [f"binding {b} was not wrapped" for b in unwrapped])
        record["traced_passes"] = [vars(p) | {"verdict_rel": p.verdict_rel} for p in traced]
        record["spans"] = tr.dump()

    tally.record("determinism probe", workloads.determinism_probe(seed, workloads.nproc()))
    record["passes"] = [vars(p) | {"verdict_rel": p.verdict_rel} for p in passes]
    record["metrics"] = metrics
    record["tally"] = vars(tally)
    return {"metrics": metrics, "tally": tally, "passes": passes, "record": record, "workload": workload}


def _units(trace: bool) -> dict[str, str]:
    import tracer as tracing

    if trace:
        return {name: unit for name, unit, _ in tracing.PER_LAYER}
    return dict(END_TO_END)


def _summary(name: str, seed: int, result: dict, trace: bool) -> list[str]:
    tally: Tally = result["tally"]
    passes = result["passes"]
    times = sorted(p.wall_s for p in passes)
    lines = [
        f"workload {name}  seed {seed}  workers {result['workload'].workers}  "
        f"stated samples per pass {result['workload'].samples}  untraced passes {len(passes)}  "
        f"wall time of a pass min {times[0]:.4f} max {times[-1]:.4f}",
    ]
    for key, unit in _units(trace).items():
        lines.append(f"  {key:<44} {result['metrics'][key]:>16.6g} {unit}")
    for key, (value, unit) in result["record"].get("not_gated", {}).items():
        lines.append(f"  {key + ' (not gated)':<44} {value:>16.6g} {unit}")
    lines.append(f"  {'fail_share':<44} {tally.failed / tally.attempted:>16.6g} ratio "
                 f"({tally.failed} of {tally.attempted} operations)")
    lines.append(f"  {'verdicts_failed':<44} {tally.verdicts_failed:>16d} count "
                 "(pinned 3-sigma verdicts that did not pass; not failures)")
    lines.append("provenance " + json.dumps(result["record"]["provenance"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 <= args.seed < 1 << 63:
        parser.error("--seconds must be positive and --seed a non-negative 63-bit integer")

    if not (SRC / "whirly_lab" / "__init__.py").is_file():
        print(f"benchmark: {SRC / 'whirly_lab'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import whirly_lab
    import workloads

    if Path(whirly_lab.__file__).resolve().parent != SRC / "whirly_lab":
        print(f"benchmark: imported whirly_lab from {whirly_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    tally: Tally = result["tally"]
    for problem in tally.problems:
        print(f"benchmark: failed: {problem}", file=sys.stderr)
    for line in _summary(args.workload, args.seed, result, trace):
        print(line)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result["record"]))
    units = _units(trace)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": result["metrics"][key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
