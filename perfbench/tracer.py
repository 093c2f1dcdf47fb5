"""Spans around the program's public functions, installed from outside.

Each traced function is replaced, for the length of the traced run, at every
module attribute that holds it, so callers that look it up as ``core.X``,
``cli.X`` or a module global all go through the wrapper. ``SampledCurve`` is
traced through its ``__init__``, because replacing the class would break the
``isinstance`` checks that use it. Nothing under ``src/`` changes.

A span records its name, start, end, parent span and request id. Totals and
self times are aggregated for every span; the span records themselves are
kept in memory, up to a cap, and written out when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter

LAYERS = {
    "cli": ("cli.run", "cli.emit_csv", "cli.emit_json", "cli.emit_svg"),
    "sampling": (
        "sampling.sample_uniform_theta",
        "sampling.SampledCurve",
        "sampling.arc_length",
        "sampling.resample_by_arclength",
        "sampling.convergence_gap",
        "sampling.polyline_hausdorff",
    ),
    "oracle": ("oracle.oracle_polyline", "oracle.bisect_radial_factor"),
    "core": (
        "core.radial_factor",
        "core.curve_speed",
        "core.curve_velocity",
        "core.affine_curve_point",
        "core.residual_log",
        "core.theta_of_point",
        "core.square_point",
    ),
}
SPANS = tuple(name for names in LAYERS.values() for name in names)
SPAN_RECORD_CAP = 100_000


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps the short names core, sampling, oracle, cli and
        fermatcurves to the imported modules."""
        self._modules = modules
        self._patches: list[tuple[object, str, object]] = []
        k = len(SPANS)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self.open = [0] * k
        self.request = 0
        self._stack: list[list] = []
        self.speed_in_arc = 0
        self.arc_in_resample = 0
        self.resample_samples = 0
        self.curve_in_sample = 0.0
        self.records_i = array("q")  # name, parent record, request per span
        self.records_t = array("d")  # start, end per span
        self.dropped = 0

    def install(self) -> None:
        idx = {name: i for i, name in enumerate(SPANS)}
        sampled_curve = self._modules["sampling"].SampledCurve
        init = sampled_curve.__init__
        self._patches.append((sampled_curve, "__init__", init))
        sampled_curve.__init__ = self._wrap(idx["sampling.SampledCurve"], init)
        for name in SPANS:
            if name == "sampling.SampledCurve":
                continue
            module, attr = name.split(".")
            original = getattr(self._modules[module], attr)
            wrapper = self._wrap(idx[name], original)
            for mod in self._modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, i: int, fn):
        stack = self._stack
        calls, total, self_time, opened = self.calls, self.total, self.self_time, self.open
        rec_i, rec_t = self.records_i, self.records_t
        speed, arc = SPANS.index("core.curve_speed"), SPANS.index("sampling.arc_length")
        resample = SPANS.index("sampling.resample_by_arclength")
        curve, sample = SPANS.index("sampling.SampledCurve"), SPANS.index("sampling.sample_uniform_theta")
        tracer = self

        def wrapper(*args, **kwargs):
            if i == speed and opened[arc]:
                tracer.speed_in_arc += 1
            elif i == arc and opened[resample]:
                tracer.arc_in_resample += 1
            if len(rec_t) < 2 * SPAN_RECORD_CAP:
                rec = len(rec_i) // 3
                rec_i.extend((i, stack[-1][2] if stack else -1, tracer.request))
                rec_t.extend((0.0, 0.0))
            else:
                rec = -1
                tracer.dropped += 1
            frame = [0.0, perf_counter(), rec]
            stack.append(frame)
            opened[i] += 1
            try:
                result = fn(*args, **kwargs)
                if i == resample:
                    tracer.resample_samples += len(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                opened[i] -= 1
                dur = end - frame[1]
                calls[i] += 1
                total[i] += dur
                self_time[i] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if rec >= 0:
                    rec_t[2 * rec] = frame[1]
                    rec_t[2 * rec + 1] = end
                if i == curve and opened[sample]:
                    tracer.curve_in_sample += dur

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for i, name in enumerate(SPANS):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.total_s"] = (self.total[i], "s")
            out[f"{name}.self_s"] = (self.self_time[i], "s")
        arc = self.calls[SPANS.index("sampling.arc_length")]
        sample_total = self.total[SPANS.index("sampling.sample_uniform_theta")]
        out["sampling.arc_length.speed_evals_per_call"] = (self.speed_in_arc / arc if arc else 0.0, "count")
        out["sampling.resample_by_arclength.arc_length_calls_per_sample"] = (
            self.arc_in_resample / self.resample_samples if self.resample_samples else 0.0, "count")
        out["sampling.SampledCurve.share"] = (
            self.curve_in_sample / sample_total if sample_total else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Write the recorded spans as tab-separated text, one span a line."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(f"# spans kept {len(self.records_i) // 3}, dropped {self.dropped}\n")
            handle.write("span\tname\tparent\trequest\tstart_s\tend_s\n")
            for k in range(len(self.records_i) // 3):
                name, parent, request = self.records_i[3 * k : 3 * k + 3]
                start, end = self.records_t[2 * k : 2 * k + 2]
                handle.write(f"{k}\t{SPANS[name]}\t{parent}\t{request}\t{start!r}\t{end!r}\n")
