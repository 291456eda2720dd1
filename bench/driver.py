"""Child program of the benchmark: one fresh interpreter per invocation.

Usage::

    python bench/driver.py import
    python bench/driver.py dynamics INPUT_DIR OUT_PREFIX
    python bench/driver.py trace SPANS_PATH cli ARG...
    python bench/driver.py trace SPANS_PATH dynamics INPUT_DIR OUT_PREFIX

``import`` imports the package and prints ``weaktensor.__file__`` (the
set-up probe). ``dynamics`` runs one library pass at the input's shape and
writes its results next to ``OUT_PREFIX``. ``trace`` first times the package
import, then wraps the public functions listed in :data:`TRACED` in every
``weaktensor`` namespace that imported them, runs ``cli_main(ARG...)`` or the
dynamics pass, and writes the recorded spans to ``SPANS_PATH`` as JSON.

Spans are recorded from here, around the calls into each module; the
library itself is never edited.
"""

import sys
import time

#: Span name -> (module, function). A span's name is ``<module>.<function>``,
#: except ``cli`` for ``cli_main``, whose self time is the CLI's own work
#: (argparse, the listing for ranks other than 2 and 3, output).
TRACED = {
    "cli": ("cli", "cli_main"),
    **{
        f"{module}.{function}": (module, function)
        for module, functions in (
            ("schemefile", ("read_ket_file", "scheme_document", "document_to_json",
                            "render_document")),
            ("hilbert", ("make_ket", "tensor_product")),
            ("scenarios", ("custom", "build_named")),
            ("weakvalues", ("selection_overlap", "weak_tensor", "expectation_tensor",
                            "marginalize", "total_sum")),
            ("render", ("render_grid", "render_cube", "render_svg")),
            ("dynamics", ("build_hamiltonian", "evolve", "product_form", "exact_counterpart",
                          "compare_states", "phase_report")),
            ("realization", ("diagonal_cells",)),
        )
        for function in functions
    },
}


def dynamics_pass(input_dir: str, out_prefix: str) -> None:
    """Evolve a seeded state over a sweep of times and summarise each step.

    Per time: ``compare_states`` against the initial state, ``weak_tensor``
    against the fixed post state with every marginal and its total, and
    ``expectation_tensor`` with its total. One ``phase_report`` at the last
    time closes the pass.
    """
    import json
    import os

    import numpy as np

    import weaktensor as wt

    with open(os.path.join(input_dir, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    dims = tuple(spec["dims"])
    pre = wt.make_ket(dims, np.load(os.path.join(input_dir, "pre.npy")))
    post = wt.make_ket(dims, np.load(os.path.join(input_dir, "post.npy")))
    terms = [
        wt.HamiltonianTerm(coupling, wt.ProjectorProduct(tuple(map(tuple, factors))))
        for coupling, factors in spec["terms"]
    ]
    hamiltonian = wt.build_hamiltonian(dims, terms)

    def pair(value):
        return [value.real, value.imag]

    steps = []
    for t in spec["times"]:
        state = wt.evolve(pre, hamiltonian, t)
        report = wt.compare_states(state, pre)
        weak = wt.weak_tensor(state, post)
        marginals = [[pair(v) for v in wt.marginalize(weak, axis)] for axis in range(len(dims))]
        expectation = wt.expectation_tensor(state)
        steps.append(
            {
                "fidelity": report.fidelity,
                "max_component_diff": report.max_component_diff,
                "marginals": marginals,
                "weak_total": pair(wt.total_sum(weak)),
                "expectation_total": pair(wt.total_sum(expectation)),
            }
        )
    phases = wt.phase_report(state, pre)
    labels = list(phases)
    np.save(out_prefix + ".npy", np.fromiter(phases.values(), dtype=np.float64, count=len(labels)))
    with open(out_prefix + ".json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "steps": steps,
                "phase_count": len(labels),
                "phase_first_last": [list(labels[0]), list(labels[-1])] if labels else [],
            },
            handle,
        )


def _install_tracing(spans: list) -> None:
    """Replace each traced function, in every namespace that holds it, by a
    wrapper that appends ``[name, start, end, parent]`` to ``spans``."""
    import functools

    stack = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    wrappers = {}
    for name, (module, function) in TRACED.items():
        fn = getattr(sys.modules.get(f"weaktensor.{module}"), function, None)
        if fn is not None:
            wrappers[id(fn)] = wrap(name, fn)
    for module_name, module in list(sys.modules.items()):
        if module_name == "weaktensor" or module_name.startswith("weaktensor."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def _trace(spans_path: str, mode: str, args: list) -> int:
    start = time.perf_counter()
    import weaktensor.cli  # noqa: F401  (timed: the import every invocation pays)

    import_s = time.perf_counter() - start
    import json

    spans = []
    _install_tracing(spans)
    try:
        if mode == "cli":
            code = sys.modules["weaktensor.cli"].cli_main(args)
        else:
            dynamics_pass(*args)
            code = 0
        sys.stdout.flush()
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": spans}, handle)
    return code


def main(argv: list) -> int:
    mode, args = (argv[0], argv[1:]) if argv else ("", [])
    if mode == "import":
        import weaktensor.cli  # noqa: F401

        print(sys.modules["weaktensor"].__file__)
        return 0
    if mode == "dynamics" and len(args) == 2:
        dynamics_pass(*args)
        return 0
    if mode == "trace" and len(args) >= 2 and args[1] in ("cli", "dynamics"):
        return _trace(args[0], args[1], args[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
