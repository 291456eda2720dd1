"""End-to-end benchmark of the weaktensor pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's pass (see ``workloads.py``) again and again for about
``S`` seconds against the ``src/`` of this checkout, each invocation in a
fresh child process, and checks every output. The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
the run's passes: ``wall_s`` (spawn to exit, summed over a pass), ``cpu_s``
(user plus sys of those children), ``peak_rss_mb`` (largest per-child peak
RSS) and ``setup_s`` (median spawn-to-exit time of a fresh interpreter that
only imports the package). With ``--trace 1`` one untraced pass is followed
by traced passes through ``driver.py trace``, and the metrics are per-layer
self times and call counts (see :data:`PER_LAYER`), the computed counts and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from driver import TRACED

ROOT = workloads.ROOT
BENCH = Path(__file__).resolve().parent
DRIVER = BENCH / "driver.py"
CACHE = BENCH / ".cache"
PACKAGE_INIT = ROOT / "src" / "weaktensor" / "__init__.py"

#: Timed set-up probes per run (after one untimed warm-up that also
#: compiles bytecode in a fresh checkout).
SETUP_REPEATS = 5

#: Every child is killed if it is still running this long after the run
#: started, so a hung program cannot hold the run past its limit.
RUN_DEADLINE_S = 170.0

#: Spans whose self time per component is reported: numpy-speed layers read
#: in ns per component, Python-per-element layers in microseconds.
PER_COMPONENT = (
    "schemefile.read_ket_file",
    "hilbert.make_ket",
    "weakvalues.weak_tensor",
    "weakvalues.marginalize",
    "schemefile.scheme_document",
    "schemefile.document_to_json",
    "render.render_grid",
    "cli",
    "dynamics.evolve",
    "dynamics.phase_report",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "import.weaktensor_s": "s",
    "cli.self_s": "s",
    **{
        f"{name}.{kind}": unit
        for name in TRACED
        if name != "cli"
        for kind, unit in (("self_s", "s"), ("calls", "count"))
    },
    "components": "count",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    **{f"{name}.ns_per_component": "ns" for name in PER_COMPONENT},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns children one at a time with this checkout's ``src`` first on
    ``PYTHONPATH`` and measures each with its own ``wait4`` rusage
    (``RUSAGE_CHILDREN`` would be a high-water mark over every child)."""

    def __init__(self, work: Path):
        self.work = work
        self.started = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))

    def spawn(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            left = RUN_DEADLINE_S - (start - self.started)
            watchdog = threading.Timer(max(left, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Child(
            code,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # Linux reports KiB
            out_path.read_bytes(),
            err_path.read_bytes(),
        )


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)


def setup_times(runner: Runner, kind: str) -> list[float]:
    """Spawn-to-exit times of fresh interpreters importing the package; each
    must resolve ``weaktensor`` to this checkout's ``src``."""
    if kind == "cli":
        argv = [sys.executable, "-c", "import weaktensor.cli, weaktensor; print(weaktensor.__file__)"]
    else:
        argv = [sys.executable, str(DRIVER), "import"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        child = runner.spawn(argv)
        where = child.stdout.decode(errors="replace").strip()
        if child.code != 0 or Path(where).resolve() != PACKAGE_INIT.resolve():
            raise SystemExit(
                f"weaktensor does not import from {PACKAGE_INIT} (got {where!r}, exit {child.code}):\n"
                + child.stderr.decode(errors="replace")
            )
        times.append(child.wall_s)
    return times[1:]


def argv_for(inv: workloads.Invocation, prefix: str, spans: str | None) -> list[str]:
    if inv.kind == "cli":
        if spans is None:
            return [sys.executable, "-m", "weaktensor", *inv.args]
        return [sys.executable, str(DRIVER), "trace", spans, "cli", *inv.args]
    if spans is None:
        return [sys.executable, str(DRIVER), "dynamics", *inv.args, prefix]
    return [sys.executable, str(DRIVER), "trace", spans, "dynamics", *inv.args, prefix]


def self_times(spans: list) -> dict[str, list]:
    """Span name -> [self seconds, calls]; self time is the span's duration
    minus that of its direct children (one thread, so children never overlap)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += end - start - covered[index]
        entry[1] += 1
    return out


def layer_metrics(records: list[dict], components: int, bytes_in: int, bytes_out: int, wall: float) -> dict:
    totals = {name: [0.0, 0] for name in TRACED}
    for record in records:
        for name, (self_s, calls) in self_times(record["spans"]).items():
            totals[name][0] += self_s
            totals[name][1] += calls
    layers = {
        "import.weaktensor_s": sum(r["import_s"] for r in records),
        "cli.self_s": totals["cli"][0],
    }
    for name, (self_s, calls) in totals.items():
        if name != "cli":
            layers[f"{name}.self_s"] = self_s
            layers[f"{name}.calls"] = calls
    layers.update({"components": components, "io.bytes_in": bytes_in, "io.bytes_out": bytes_out})
    for name in PER_COMPONENT:
        layers[f"{name}.ns_per_component"] = totals[name][0] / components * 1e9 if components else 0.0
    layers["trace.wall_s"] = wall
    return layers


def run_pass(runner: Runner, workload: workloads.Workload, traced: bool, failures: list) -> Pass:
    result, records, bytes_out = Pass(), [], 0
    for index, inv in enumerate(workload.invocations):
        prefix = str(runner.work / f"out{index}")
        for stale in runner.work.glob(f"out{index}.*"):  # a check must never read an earlier pass
            stale.unlink()
        spans = runner.work / f"spans{index}.json" if traced else None
        child = runner.spawn(argv_for(inv, prefix, spans and str(spans)))
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        bytes_out += len(child.stdout) + sum(p.stat().st_size for p in runner.work.glob(f"out{index}.*"))
        if child.code != 0:
            reason = f"exit {child.code}: " + child.stderr.decode(errors="replace").strip()[-300:]
        else:
            reason = inv.check(child.stdout, prefix)
        if reason is not None:
            failures.append(f"{' '.join(inv.args)}: {reason}")
        if traced:
            try:
                records.append(json.loads(spans.read_bytes()))
                spans.unlink()
            except FileNotFoundError:  # the child died before writing; already counted as failed
                pass
    if traced:
        components = sum(inv.components for inv in workload.invocations)
        bytes_in = sum(inv.bytes_in for inv in workload.invocations)
        result.layers = layer_metrics(records, components, bytes_in, bytes_out, result.wall_s)
    return result


def measure(workload: workloads.Workload, seconds: float, trace: bool, runner: Runner):
    """Passes until ``seconds`` have elapsed (at least one). In trace mode
    the first pass is untraced, the rest traced. Returns (untraced passes,
    traced passes, attempted, failures)."""
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and bool(plain)
        (traced if use_trace else plain).append(run_pass(runner, workload, use_trace, failures))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    attempted = (len(plain) + len(traced)) * len(workload.invocations)
    return plain, traced, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE_INIT.is_file():
        print(f"no package to measure: {PACKAGE_INIT} is missing", file=sys.stderr)
        return 1
    work = CACHE / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, CACHE)
        runner = Runner(work)
        setup = setup_times(runner, workload.setup)
        plain, traced, attempted, failures = measure(workload, args.seconds, bool(args.trace), runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    median = statistics.median
    if args.trace:
        names = PER_LAYER
        values = {name: median(p.layers[name] for p in traced) for name in traced[0].layers}
        values["trace.overhead_s"] = values["trace.wall_s"] - median(p.wall_s for p in plain)
        count = f"{len(traced)} traced passes after 1 untraced"
    else:
        names = END_TO_END
        values = {
            "wall_s": median(p.wall_s for p in plain),
            "cpu_s": median(p.cpu_s for p in plain),
            "peak_rss_mb": median(p.peak_rss_mb for p in plain),
            "setup_s": median(setup),
        }
        count = f"{len(plain)} passes, {len(setup)} set-up probes"
    print(f"# {args.workload} seed {args.seed}: medians over {count}; "
          f"{len(workload.invocations)} invocations per pass")
    print("# pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in plain + traced))
    for name, unit in names.items():
        print(f"{name:42s} {values[name]:16.6f} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
