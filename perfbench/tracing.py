"""Spans around sspflow's public functions, recorded from outside the package.

The tracer replaces a function at the module attribute its caller looks it
up by (``sspflow.cli.solve``, ``sspflow.lowerbound.run_ssp``, ...), so the
package itself stays unedited and untraced runs execute the original code.
Each call records a span: name, start, end and parent. A span's self time
is its duration minus the time its child spans cover; the benchmark calls
run on one thread, so child spans never overlap.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name). The span name's prefix is the layer.
TARGETS = (
    ("sspflow.cli", "solve", "solver.solve"),
    ("sspflow.cli", "run_ssp", "solver.run_ssp"),
    ("sspflow.cli", "trace_csv_rows", "solver.trace_csv_rows"),
    ("sspflow.cli", "check_lemmas", "analysis.check_lemmas"),
    ("sspflow.cli", "check_reconstruction", "analysis.check_reconstruction"),
    ("sspflow.cli", "harvest_reconstruction_cases",
     "analysis.harvest_reconstruction_cases"),
    ("sspflow.cli", "transform", "network.transform"),
    ("sspflow.cli", "as_transformed", "network.as_transformed"),
    ("sspflow.solver", "run_ssp", "solver.run_ssp"),
    ("sspflow.analysis", "run_ssp", "solver.run_ssp"),
    ("sspflow.analysis", "replay_flows", "analysis.replay_flows"),
    ("sspflow.analysis", "verify_optimality", "analysis.verify_optimality"),
    ("sspflow.analysis", "classify", "analysis.classify"),
    ("sspflow.analysis", "reconstruct", "analysis.reconstruct"),
    ("sspflow.lowerbound", "run_ssp", "solver.run_ssp"),
    ("sspflow.lowerbound", "build_worstcase", "lowerbound.build_worstcase"),
    ("sspflow.lowerbound", "build_hard_instance", "lowerbound.build_hard_instance"),
    ("sspflow.lowerbound", "verify_count", "lowerbound.verify_count"),
    ("sspflow.generators", "random_topology", "generators.random_topology"),
    ("sspflow.generators", "sample_costs", "generators.sample_costs"),
    ("sspflow.generators", "adversarial_spec", "generators.adversarial_spec"),
    ("sspflow.generators", "perturbed_integer", "generators.perturbed_integer"),
    ("sspflow.dimacs", "read_instance", "dimacs.read_instance"),
    ("sspflow.dimacs", "write_instance", "dimacs.write_instance"),
)

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    # run_ssp: the AugmentationTrace it returned; dimacs.read_instance: the
    # text size in bytes (the format is ASCII, so characters are bytes).
    payload: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _payload(name: str, args: tuple, result):
    if name == "solver.run_ssp":
        return result
    if name == "dimacs.read_instance":
        return len(args[0])
    return None


class Tracer:
    """Installs the wrappers and collects the spans of one call at a time."""

    def __init__(self):
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    def _wrap(self, original, name: str):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            span.payload = _payload(name, args, result)
            return result

        return traced

    def call(self, fn, *args):
        """Run fn under a root span; returns (result, spans of this call)."""
        self.spans = []
        root = self._open(ROOT_SPAN)
        try:
            result = fn(*args)
        finally:
            self._close(root)
        return result, self.spans


def _distances(d) -> str:
    return "-" if d is None else repr(sorted(d.items()))


def steps_digest(spans: list[Span]) -> str:
    """Hash of what every run_ssp call returned, in call order.

    Per step: path arcs, length, amount and the recorded distances from s
    and to t; per trace: the initial distances and every intermediate flow.
    The CLI's output files cannot tell apart two paths of the same length,
    and no output file carries the distances; this digest can.
    """
    h = hashlib.sha256()
    for span in spans:  # spans are listed in the order they were opened
        if span.name == "solver.run_ssp" and span.payload is not None:
            trace = span.payload
            h.update(f"{_distances(trace.initial_distances_from_s)}|"
                     f"{_distances(trace.initial_distances_to_t)}\n".encode())
            for s in trace.steps:
                h.update(f"{s.path_arcs}|{s.length!r}|{s.amount!r}|"
                         f"{_distances(s.distances_from_s)}|"
                         f"{_distances(s.distances_to_t)}\n".encode())
            for f in trace.intermediate_flows or ():
                h.update(f"{f.values!r}|{f.value!r}\n".encode())
            h.update(b"--\n")
    return h.hexdigest()[:16]
