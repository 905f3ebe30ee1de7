"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps every public bnseries function or class at each
place another bnseries module imported it (``bnseries.cli.build_chain``,
``bnseries.chains.nonempty_criterion``, ``bnseries.oracle.rref_matrices``,
...).  A few calls that stay inside one module are wrapped in that module too,
because a per-layer count needs them: ``chains.split_once``,
``oracle.count_series``, ``oracle.dim_fit`` and the CLI's ``_dump``.  The
layer of a span is the module that defines the wrapped object.

Every span holds a name, start, end, parent span and request id.  Spans stay
in memory and ``write`` saves them when the pass ends.  Self time (a span's
duration minus the time its child spans cover) is summed per layer as spans
close.  A call into a generator function counts once; each ``next`` on the
generator is its own span, so time spent by the consumer between items is not
charged to the generator's layer.
"""

import inspect
import json
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter_ns

LAYERS = ("cli", "core", "strata", "chains", "realize", "gf", "oracle", "elliptic")
SERIALIZE = "serialize"

# Calls inside their own module that a per-layer count depends on.
INTRA_MODULE = (
    ("bnseries.chains", "split_once"),
    ("bnseries.oracle", "count_series"),
    ("bnseries.oracle", "dim_fit"),
)

# Per-layer metrics with their units, in report order.
METRICS = {
    "cli.busy_s": "s",
    "cli.serialize_s": "s",
    "cli.output_bytes": "bytes",
    "core.calls": "count",
    "core.busy_s": "s",
    "chains.built": "count",
    "chains.splits": "count",
    "chains.busy_s": "s",
    "strata.scanned": "count",
    "strata.busy_s": "s",
    "strata.ns_per_stratum": "ns",
    "realize.calls": "count",
    "realize.busy_s": "s",
    "gf.subspaces": "count",
    "gf.busy_s": "s",
    "gf.ns_per_subspace": "ns",
    "oracle.count_calls": "count",
    "oracle.histograms_built": "count",
    "oracle.hist_reuse_ratio": "ratio",
    "oracle.histogram_s": "s",
    "oracle.count_s": "s",
    "oracle.dim_fit_s": "s",
    "oracle.refusals": "count",
    "elliptic.calls": "count",
    "elliptic.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly between passes over the same stream.
COUNTS = tuple(
    name for name, unit in METRICS.items() if unit in ("count", "bytes")
) + ("oracle.hist_reuse_ratio",)


class _TracedClass:
    """Callable stand-in for a wrapped class.

    It still answers isinstance, so tracing cannot change a type check made
    through the imported name.
    """

    def __init__(self, cls, traced_call):
        self.__wrapped__ = cls
        self._call = traced_call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __instancecheck__(self, obj):
        return isinstance(obj, self.__wrapped__)


class Tracer:
    def __init__(self):
        self.enabled = True
        self.request = -1
        self.names = []
        self._name_ids = {}
        self.col_name = array("I")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("i")
        self.col_request = array("i")
        self._stack = []  # frames [span index, ns covered by child spans]
        self.self_ns = Counter()
        self.calls = Counter()  # per layer
        self.name_calls = Counter()
        self.name_ns = Counter()  # inclusive time per span name
        self.yields = Counter()
        self.extra = Counter()  # built, histograms_built, histogram_ns, count_ns, refusals
        self._hist_keys = set()
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id):
        index = len(self.col_name)
        self.col_name.append(name_id)
        self.col_parent.append(self._stack[-1][0] if self._stack else -1)
        self.col_request.append(self.request)
        self.col_end.append(0)
        frame = [index, 0]
        self._stack.append(frame)
        self.col_start.append(perf_counter_ns())
        return frame

    def _exit(self, frame, layer):
        end = perf_counter_ns()
        self._stack.pop()
        index = frame[0]
        self.col_end[index] = end
        duration = end - self.col_start[index]
        self.self_ns[layer] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside one span; used for the benchmark's top-level calls."""
        frame = self._enter(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self._exit(frame, layer)
            self.name_calls[name] += 1
            self.name_ns[name] += duration

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, obj, layer, name):
        if inspect.isgeneratorfunction(obj):
            return self._wrap_generator(obj, layer, name)
        hook = self._hooks().get(name)
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return obj(*args, **kwargs)
            self.calls[layer] += 1
            self.name_calls[name] += 1
            frame = self._enter(name_id)
            try:
                result = obj(*args, **kwargs)
            except BaseException as exc:
                duration = self._exit(frame, layer)
                self.name_ns[name] += duration
                if hook is not None:
                    hook(args, kwargs, None, exc, duration)
                raise
            duration = self._exit(frame, layer)
            self.name_ns[name] += duration
            if hook is not None:
                hook(args, kwargs, result, None, duration)
            return result

        if isinstance(obj, type):
            return _TracedClass(obj, traced)
        return traced

    def _wrap_generator(self, fn, layer, name):
        name_id = self._name_id(name)

        def items(it):
            while True:
                frame = self._enter(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    self.name_ns[name] += self._exit(frame, layer)
                    return
                except BaseException:
                    self.name_ns[name] += self._exit(frame, layer)
                    raise
                self.name_ns[name] += self._exit(frame, layer)
                self.yields[name] += 1
                yield item

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.enabled:
                return it
            self.calls[layer] += 1
            self.name_calls[name] += 1
            return items(it)

        return traced

    def _hooks(self):
        return {
            "chains.build_chain": self._on_build_chain,
            "oracle.count_series": self._on_count_series,
        }

    def _on_build_chain(self, args, kwargs, result, exc, duration):
        if result is not None:
            self.extra["built"] += 1

    def _on_count_series(self, args, kwargs, result, exc, duration):
        # count_series(q, profile, r, a1, a2, budget=None); its private
        # histogram is keyed by (q, profile table, r + 1), so the first call
        # per key is the one that built the histogram.
        names = ("q", "profile", "r")
        q, profile, r = (args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names))
        if exc is not None:
            if type(exc).__name__ == "InfeasibleSize":
                self.extra["refusals"] += 1
            return
        key = (q, profile.h, r + 1)
        if r + 1 <= profile.n and key not in self._hist_keys:
            self._hist_keys.add(key)
            self.extra["histograms_built"] += 1
            self.extra["histogram_ns"] += duration
        else:
            self.extra["count_ns"] += duration

    def install(self):
        """Wrap the bnseries call sites; undo with uninstall."""
        modules = {layer: import_module(f"bnseries.{layer}") for layer in LAYERS}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or owner == module.__name__:
                    continue
                layer = owner.rpartition(".")[2]
                if not owner.startswith("bnseries.") or layer not in LAYERS:
                    continue
                if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
                    continue
                self._replace(module, attr, self._wrap(obj, layer, f"{layer}.{attr}"))
        for module_name, attr in INTRA_MODULE:
            module = import_module(module_name)
            layer = module_name.rpartition(".")[2]
            self._replace(module, attr, self._wrap(getattr(module, attr), layer, f"{layer}.{attr}"))
        cli = modules["cli"]
        if hasattr(cli, "_dump"):
            self._replace(cli, "_dump", self._wrap(cli._dump, SERIALIZE, "cli.serialize"))

    def _replace(self, module, attr, wrapper):
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def raw(self):
        """Additive totals of this tracer; sum them over processes with merge_raw."""
        out = {f"self_ns.{layer}": self.self_ns[layer] for layer in LAYERS + (SERIALIZE,)}
        out.update({f"calls.{layer}": self.calls[layer] for layer in LAYERS})
        out["splits"] = self.name_calls["chains.split_once"]
        out["count_calls"] = self.name_calls["oracle.count_series"]
        out["dim_fit_ns"] = self.name_ns["oracle.dim_fit"]
        out["scanned"] = self.yields["strata.enumerate_refined_strata"]
        out["subspaces"] = self.yields["gf.rref_matrices"]
        for key in ("built", "histograms_built", "histogram_ns", "count_ns", "refusals"):
            out[key] = self.extra[key]
        out["spans"] = len(self.col_name)
        return out

    def write(self, path):
        """Save all spans: one JSON header line, then the raw columns in order."""
        columns = (
            ("name", self.col_name),
            ("start_ns", self.col_start),
            ("end_ns", self.col_end),
            ("parent", self.col_parent),
            ("request", self.col_request),
        )
        header = {
            "names": self.names,
            "spans": len(self.col_name),
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(f)


def merge_raw(totals, raw):
    for key, value in raw.items():
        totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(raw, output_bytes):
    """Per-layer metrics of one pass from its additive totals (overhead excluded)."""

    def seconds(ns):
        return ns / 1e9

    def per_item(ns, items):
        return ns / items if items else 0.0

    count_calls = raw["count_calls"]
    built = raw["histograms_built"]
    return {
        "cli.busy_s": seconds(raw["self_ns.cli"]),
        "cli.serialize_s": seconds(raw[f"self_ns.{SERIALIZE}"]),
        "cli.output_bytes": output_bytes,
        "core.calls": raw["calls.core"],
        "core.busy_s": seconds(raw["self_ns.core"]),
        "chains.built": raw["built"],
        "chains.splits": raw["splits"],
        "chains.busy_s": seconds(raw["self_ns.chains"]),
        "strata.scanned": raw["scanned"],
        "strata.busy_s": seconds(raw["self_ns.strata"]),
        "strata.ns_per_stratum": per_item(raw["self_ns.strata"], raw["scanned"]),
        "realize.calls": raw["calls.realize"],
        "realize.busy_s": seconds(raw["self_ns.realize"]),
        "gf.subspaces": raw["subspaces"],
        "gf.busy_s": seconds(raw["self_ns.gf"]),
        "gf.ns_per_subspace": per_item(raw["self_ns.gf"], raw["subspaces"]),
        "oracle.count_calls": count_calls,
        "oracle.histograms_built": built,
        "oracle.hist_reuse_ratio": (count_calls - built) / count_calls if count_calls else 0.0,
        "oracle.histogram_s": seconds(raw["histogram_ns"]),
        "oracle.count_s": seconds(raw["count_ns"]),
        "oracle.dim_fit_s": seconds(raw["dim_fit_ns"]),
        "oracle.refusals": raw["refusals"],
        "elliptic.calls": raw["calls.elliptic"],
        "elliptic.busy_s": seconds(raw["self_ns.elliptic"]),
    }
