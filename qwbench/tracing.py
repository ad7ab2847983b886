"""Per-module tracing for the qwalk benchmark.

``Tracer.install`` wraps the public functions of ``core``, ``evolve``,
``spectral``, ``asymptotics``, ``stats`` and ``cli``, plus the two named
inner stages ``spectral._propagate`` and ``cli._emit`` and the
``core.WaveFunction`` constructor.  A wrapper is installed on every name a
caller looks up: a function imported by name into another module (say
``cli.evolve_line``) is replaced there too, not only where it is defined.

Each call becomes a span (name, start, end, parent).  Spans, self times,
counts and ``tracemalloc`` peaks stay in memory until ``write`` dumps them
to one JSON file.  ``layer_metrics`` reduces them to the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("core", "evolve", "spectral", "asymptotics", "stats", "cli")
INNER_STAGES = {"spectral": ("_propagate",), "cli": ("_emit",)}

#: Bytes the line step kernel reads and writes per input row: the zeroed
#: output (32), two (n, 2) @ (2, 2) products read and written (2 x 64) and
#: two in-place adds reading both operands and writing one (2 x 96).
LINE_KERNEL_BYTES_PER_ROW = 352
LINE_KERNEL_BYTES_PER_STEP = 64  # the two extra zeroed output rows

MB = 1e6


class _Frame:
    __slots__ = ("name", "start", "child", "span", "mem_start", "peak", "stime")

    def __init__(self, name, start, span, mem_start, stime):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.mem_start = mem_start
        self.peak = mem_start
        self.stime = stime


class Tracer:
    """Spans and per-name aggregates for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.count = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sys_s = defaultdict(float)
        self.peak_b = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str, want_sys: bool) -> _Frame:
        mem = 0
        if tracemalloc.is_tracing():
            mem, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        stime = resource.getrusage(resource.RUSAGE_SELF).ru_stime if want_sys else 0.0
        parent_span = self._stack[-1].span if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent_span])
        frame = _Frame(name, time.perf_counter(), len(self.spans) - 1, mem, stime)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, want_sys: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        name = frame.name
        span = self.spans[frame.span]
        span[1] = frame.start - self._origin
        span[2] = end - self._origin
        self.count[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame.child
        if want_sys:
            self.sys_s[name] += resource.getrusage(resource.RUSAGE_SELF).ru_stime - frame.stime
        if tracemalloc.is_tracing():
            peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            self.peak_b[name] = max(self.peak_b[name], peak - frame.mem_start)
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
        if self._stack:
            self._stack[-1].child += dur

    def _wrap(self, name: str, fn, count=None, want_sys=False):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name, want_sys)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, want_sys)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self, package) -> None:
        """Wrap the traced callables of ``package`` (the imported ``qwalk``)."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            names = [
                attr for attr, value in vars(module).items()
                if not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ] + list(INNER_STAGES.get(layer, ()))
            for attr in names:
                original = getattr(module, attr)
                hook = _COUNTERS.get(f"{layer}.{attr}")
                wrapper = self._wrap(f"{layer}.{attr}", original, hook,
                                     want_sys=attr == "evolve_line")
                if attr == "_emit":
                    wrapper = _emit_counting(self, wrapper)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, value))
                            setattr(mod, key, wrapper)
        wavefunction = package.core.WaveFunction
        self._patches.append((wavefunction, "__init__", wavefunction.__init__))
        wavefunction.__init__ = self._wrap("core.WaveFunction", wavefunction.__init__)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- reduction -----------------------------------------------------
    def layer_metrics(self, memory: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
        """The benchmark's per-layer metrics as ``name -> (value, unit)``.

        Times and counts come from this tracer; peaks from ``memory``, the
        tracer of a pass run under ``tracemalloc``.
        """
        c, s = self.count, self.self_s
        line_s = self.total_s["evolve.evolve_line"]
        mix_s = self.total_s["stats.mixing_time"]
        emit_s = self.total_s["cli._emit"]
        command_s = sum(v for k, v in s.items() if k.startswith("cli.cmd_"))
        return {
            "core.wavefunction.count": (c["core.WaveFunction"], "count"),
            "core.wavefunction.self_s": (s["core.WaveFunction"], "s"),
            "core.step_matrices.count": (c["core.step_matrices"], "count"),
            "evolve.line.self_s": (s["evolve.evolve_line"], "s"),
            "evolve.line.sys_s": (self.sys_s["evolve.evolve_line"], "s"),
            "evolve.line.site_steps_per_s": (
                _rate(self.counters["line_site_steps"], line_s), "1/s"),
            "evolve.line.bytes_computed_mb": (self.counters["line_bytes"] / MB, "MB"),
            "evolve.line.peak_mb": (memory.peak_b["evolve.evolve_line"] / MB, "MB"),
            "evolve.circle.self_s": (s["evolve.evolve_circle"], "s"),
            "evolve.circle.count": (c["evolve.evolve_circle"], "count"),
            "evolve.distribution.self_s": (s["evolve.distribution"], "s"),
            "evolve.distribution.count": (c["evolve.distribution"], "count"),
            "spectral.evolve.self_s": (s["spectral.evolve_spectral"], "s"),
            "spectral.propagate.self_s": (s["spectral._propagate"], "s"),
            "spectral.propagate.count": (c["spectral._propagate"], "count"),
            "spectral.evolve.peak_mb": (memory.peak_b["spectral.evolve_spectral"] / MB, "MB"),
            "spectral.dft_computed_mb": (self.counters["dft_bytes"] / MB, "MB"),
            "asymptotics.p_asymptotic.count": (c["asymptotics.p_asymptotic"], "count"),
            "asymptotics.p_asymptotic.self_s": (s["asymptotics.p_asymptotic"], "s"),
            "asymptotics.density_moment.self_s": (s["asymptotics.density_moment"], "s"),
            "stats.mixing_time.self_s": (s["stats.mixing_time"], "s"),
            "stats.mixing_time.steps": (self.counters["mix_steps"], "count"),
            "stats.mixing_time.steps_per_s": (_rate(self.counters["mix_steps"], mix_s), "1/s"),
            "stats.tv_distance.count": (c["stats.tv_distance"], "count"),
            "stats.tv_distance.self_s": (s["stats.tv_distance"], "s"),
            "stats.cesaro_average.self_s": (s["stats.cesaro_average"], "s"),
            "stats.moment.self_s": (s["stats.moment"], "s"),
            "cli.command.self_s": (command_s, "s"),
            "cli.emit.self_s": (s["cli._emit"], "s"),
            "cli.emit.out_mb": (self.counters["emit_bytes"] / MB, "MB"),
            "cli.emit.rows_per_s": (_rate(self.counters["emit_rows"], emit_s), "1/s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def write(self, path, memory: Tracer, header: dict) -> None:
        """Dump spans and aggregates as one JSON file, with the peaks of ``memory``."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["names"] = names
        doc["spans"] = [[index[n], a, b, p] for n, a, b, p in self.spans]
        doc["aggregates"] = {
            name: {"count": self.count[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name], "peak_mb": memory.peak_b[name] / MB}
            for name in names
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _line_counts(args, kwargs, result):
    psi, steps = args[0], args[2] if len(args) > 2 else kwargs["steps"]
    width = psi.amplitudes.shape[0]
    rows_read = steps * width + steps * (steps - 1)  # input rows over all steps
    return {
        "line_site_steps": rows_read + 2 * steps,  # rows written
        "line_bytes": LINE_KERNEL_BYTES_PER_ROW * rows_read
        + LINE_KERNEL_BYTES_PER_STEP * steps,
    }


def _spectral_counts(args, kwargs, result):
    width = args[0].amplitudes.shape[0]
    n_out = result.amplitudes.shape[0]
    n_samples = args[3] if len(args) > 3 else kwargs.get("n_samples")
    grid = n_samples if n_samples is not None else n_out + n_out % 2
    # the forward (grid x width) and inverse (n_out x grid) complex128 DFT matrices
    return {"dft_bytes": 16 * grid * (width + n_out)}


def _mixing_counts(args, kwargs, result):
    return {"mix_steps": len(result.tv_trace)}


def _emit_counting(tracer: Tracer, traced):
    """Count rows and output bytes around ``cli._emit``."""

    def emit(args, header, rows, extra=None):
        before = sys.stdout.tell() if args.output == "-" else 0
        traced(args, header, rows, extra)
        written = sys.stdout.tell() - before if args.output == "-" else 0
        tracer.counters["emit_rows"] += len(rows)
        tracer.counters["emit_bytes"] += written

    return emit


_COUNTERS = {
    "evolve.evolve_line": _line_counts,
    "spectral.evolve_spectral": _spectral_counts,
    "stats.mixing_time": _mixing_counts,
}
