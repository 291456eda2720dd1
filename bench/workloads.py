"""The four workloads: seeded inputs, the invocations of one pass, and the
check each invocation's output must pass.

Every workload is a closed loop with one client: one child process at a
time, the next started when the previous has exited. Inputs are made from
the seed only; the program receives nothing but the generated files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: The post state is ``pre + SIGMA * noise``: a relative overlap near
#: ``1/sqrt(1 + SIGMA**2)``. Two independent Gaussian vectors would have one
#: near ``1/sqrt(D)``, so rejection sampling for a fixed floor never ends at
#: these sizes.
SIGMA = 1.0
MIN_RELATIVE_OVERLAP = 0.1

#: Amplitudes of size ``sqrt(D)`` at a few labels make those components
#: visible at the text renderer's 4 decimals, so the text check also checks
#: where each cell is printed, not only that every cell reads 0.0000.
SPIKES = 4

QUBITS_18 = (2,) * 18
GRID_512 = (512, 512)
MIXED = (2, 3, 5, 7, 11)
QUBITS_20 = (2,) * 20


@dataclass
class Invocation:
    """One child run: ``kind`` is ``cli`` (``python -m weaktensor ARGS``) or
    ``dynamics`` (the benchmark driver's library pass over ARGS)."""

    kind: str
    args: list[str]
    check: Callable[[bytes, str], str | None]  # (stdout, output prefix) -> reason
    components: int
    bytes_in: int = 0


@dataclass
class Workload:
    invocations: list[Invocation]
    setup: str  # "cli": import weaktensor.cli; "driver": the driver's import


# ------------------------------------------------------------------ inputs


def selected_pair(rng: np.random.Generator, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex Gaussian ``pre`` with a few large spikes, and ``post = pre +
    SIGMA * noise``; returns ``(pre, post, spike_indices)``."""
    d = math.prod(dims)
    pre = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    spikes = rng.choice(d, size=min(SPIKES, d), replace=False)
    pre[spikes] = math.sqrt(d) * np.exp(1j * rng.uniform(0, 2 * math.pi, spikes.size))
    post = pre + SIGMA * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    relative = abs(np.vdot(post, pre)) / (np.linalg.norm(pre) * np.linalg.norm(post))
    if relative < MIN_RELATIVE_OVERLAP:
        raise RuntimeError(f"generated selection is ill-conditioned: {relative}")
    return pre, post, np.sort(spikes)


def ket_json(dims, amps: np.ndarray) -> str:
    """Single-state file. ``json`` writes floats with ``repr``, so the oracle
    sees the exact doubles."""
    pairs = np.stack([amps.real, amps.imag], axis=1).tolist()
    return json.dumps({"shape": list(dims), "amps": pairs}) + "\n"


def cached_dir(cache: Path, workload: str, seed: int, write: Callable[[Path], None]) -> Path:
    """Directory of one seed's input files, written once and reused.

    Only the newest seed of each workload is kept, so a long series of
    seeds does not fill the disk with copies of ~11 MB files.
    """
    target = cache / f"{workload}-{seed}"
    if not target.is_dir():
        for old in cache.glob(f"{workload}-*"):
            shutil.rmtree(old, ignore_errors=True)
        staging = cache / f".staging-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        write(staging)
        os.replace(staging, target)
    return target


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _tensor_inputs(cache, workload, seed, specs):
    """``specs``: ``(file stem, dims, stream)``; returns per stem the oracle,
    the spike indices and the two file paths."""
    made = {stem: (dims, *selected_pair(_rng(seed, stream), dims)) for stem, dims, stream in specs}

    def write(directory: Path) -> None:
        for stem, (dims, pre, post, _) in made.items():
            (directory / f"{stem}.pre.json").write_text(ket_json(dims, pre), encoding="utf-8")
            (directory / f"{stem}.post.json").write_text(ket_json(dims, post), encoding="utf-8")

    directory = cached_dir(cache, workload, seed, write)
    out = {}
    for stem, (dims, pre, post, spikes) in made.items():
        paths = [str(directory / f"{stem}.{side}.json") for side in ("pre", "post")]
        out[stem] = (checks.weak_oracle(dims, pre, post), spikes, paths)
    return out


def _tensor_invocation(oracle, spikes, paths, fmt: str) -> Invocation:
    if fmt == "json":
        check = lambda out, _: checks.check_tensor_json(out, oracle)  # noqa: E731
    else:
        check = lambda out, _: checks.check_tensor_text(out, oracle, tuple(spikes))  # noqa: E731
    return Invocation(
        "cli",
        ["tensor", "--pre", paths[0], "--post", paths[1], "--format", fmt],
        check,
        components=oracle.components.size,
        bytes_in=sum(os.path.getsize(p) for p in paths),
    )


# ------------------------------------------------------------------ workloads


def tensor_json(seed: int, cache: Path) -> Workload:
    inputs = _tensor_inputs(cache, "tensor-json", seed, [("q18", QUBITS_18, 0)])
    return Workload([_tensor_invocation(*inputs["q18"], "json")], "cli")


def tensor_text(seed: int, cache: Path) -> Workload:
    inputs = _tensor_inputs(cache, "tensor-text", seed, [("g512", GRID_512, 0), ("q18", QUBITS_18, 1)])
    return Workload(
        [_tensor_invocation(*inputs[stem], "text") for stem in ("g512", "q18")], "cli"
    )


def dynamics_lib(seed: int, cache: Path) -> Workload:
    rng = _rng(seed, 0)
    dims = QUBITS_20
    d = math.prod(dims)
    pre = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    post = pre + SIGMA * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    terms = []
    for _ in range(24):  # multiwise projector products on 2 to 5 qubits
        qubits = rng.choice(len(dims), size=int(rng.integers(2, 6)), replace=False)
        factors = [[int(q), int(rng.integers(2))] for q in sorted(qubits)]
        terms.append([float(rng.normal()), factors])
    times = sorted(float(t) for t in rng.uniform(0.05, 2.0, size=8))

    def write(directory: Path) -> None:
        np.save(directory / "pre.npy", pre)
        np.save(directory / "post.npy", post)
        spec = {"dims": list(dims), "terms": terms, "times": times}
        (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    directory = cached_dir(cache, "dynamics-lib", seed, write)
    oracle = checks.dynamics_oracle(dims, pre, post, terms, times)

    def check(_: bytes, prefix: str) -> str | None:
        try:
            summary = Path(prefix + ".json").read_bytes()
            phases = np.load(prefix + ".npy")
        except (OSError, ValueError) as exc:
            return f"dynamics outputs unreadable: {exc}"
        return checks.check_dynamics(summary, phases, oracle)

    size = sum(os.path.getsize(directory / f) for f in ("pre.npy", "post.npy", "spec.json"))
    return Workload([Invocation("dynamics", [str(directory)], check, d, size)], "driver")


#: Built-in scenario -> shape; goldens exist for GOLDEN_SCENARIOS.
SCENARIOS = {
    "bell-psi-plus": (2, 2),
    "bell-psi-minus": (2, 2),
    "bell-phi-plus": (2, 2),
    "bell-phi-minus": (2, 2),
    "ghz": (2, 2, 2),
    "cheshire": (2, 2),
    "hardy": (2, 2),
    "hardy-overlap": (2, 2),
    "hardy-gamma": (2, 2),
    "ghz3-selected": (3, 3, 3),
}
GOLDEN_SCENARIOS = ("cheshire", "hardy-overlap", "ghz3-selected")

#: evolve family -> (required parameters, qubit count).
FAMILIES = {
    "psit1": (("eps",), 4),
    "E111": (("eps",), 6),
    "Hamm2": (("eps", "eps2"), 6),
    "GHZ2": (("phi",), 6),
    "PsiGHZ11": (("phi", "eps"), 9),
    "exact": (("eps",), 4),
}

REALIZE = ((2, 12), (3, 7))


def _scenario_invocation(name: str, fmt: str, extra: list[str]) -> Invocation:
    dims = SCENARIOS[name]
    if fmt == "svg" and name in GOLDEN_SCENARIOS:
        golden = (GOLDEN / f"{name}.svg").read_bytes()
        check = lambda out, _: checks.check_equal(out, golden)  # noqa: E731
    elif fmt == "svg":
        check = lambda out, _: checks.check_svg(out, math.prod(dims))  # noqa: E731
    elif fmt == "text" and name in GOLDEN_SCENARIOS:
        golden = (GOLDEN / f"{name}.txt").read_bytes()
        check = lambda out, _: checks.check_contains(out, golden)  # noqa: E731
    elif fmt == "text":
        check = lambda out, _: checks.check_scenario_text(out, name)  # noqa: E731
    else:
        check = lambda out, _: checks.check_completeness_json(out, dims)  # noqa: E731
    return Invocation("cli", ["run", name, *extra, "--format", fmt], check, math.prod(dims))


def catalog_cli(seed: int, cache: Path) -> Workload:
    """About 40 short calls covering every subcommand."""
    rng = _rng(seed, 0)
    gamma = float(rng.uniform(0.3, 3.0))
    values = {p: float(rng.uniform(0.2, 2.0)) for p in ("eps", "eps2", "phi")}
    t = float(rng.uniform(0.1, 3.0))
    inputs = _tensor_inputs(cache, "catalog-cli", seed, [("mixed", MIXED, 1)])

    invocations = [
        Invocation("cli", ["scenario", "list"], lambda out, _: checks.check_lines_include(out, SCENARIOS), 0)
    ]
    for name in SCENARIOS:
        extra = ["--gamma", repr(gamma)] if name == "hardy-gamma" else []
        invocations += [_scenario_invocation(name, fmt, extra) for fmt in ("text", "json", "svg")]
    for family, (params, qubits) in FAMILIES.items():
        kwargs = {p: values[p] for p in params}
        flags = [x for p in params for x in (f"--{p}", repr(values[p]))]
        invocations.append(
            Invocation(
                "cli",
                ["evolve", "--family", family, *flags, "--time", repr(t), "--compare"],
                lambda out, _, f=family, kw=kwargs: checks.check_evolve(out, f, t, **kw),
                2**qubits,
            )
        )
    for levels, axes in REALIZE:
        invocations.append(
            Invocation(
                "cli",
                ["realize", "--levels", str(levels), "--axes", str(axes)],
                lambda out, _, l=levels, a=axes: checks.check_realize(out, l, a),
                levels**axes,
            )
        )
    invocations += [_tensor_invocation(*inputs["mixed"], fmt) for fmt in ("text", "json")]
    return Workload(invocations, "cli")


WORKLOADS = {
    "tensor-json": tensor_json,
    "tensor-text": tensor_text,
    "dynamics-lib": dynamics_lib,
    "catalog-cli": catalog_cli,
}
