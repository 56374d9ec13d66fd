"""In-memory spans around every call that crosses into a ucrga module.

``Tracer.install`` replaces, in the namespace of each ucrga module, every
public function defined in the package by a wrapper that records a span:
name, start, end, parent span and operation id. Because each module calls
the layer below through the names it imported (``ucrga.rga.svd``,
``ucrga.inverse.balance``, ``ucrga.cli.parse_csv``, ...), the spans nest
exactly as the calls do. ``uninstall`` puts the original functions back, so
untraced operations run the unmodified program.

A layer's self time is the duration of its spans minus that of their child
spans. The operation's own span is the root; its self time is the part of the
operation spent outside every ucrga function.
"""

import contextlib
import inspect
import time
from array import array

import numpy as np
import ucrga
import ucrga.balance
import ucrga.cli
import ucrga.inverse
import ucrga.matrix
import ucrga.rga
import ucrga.svd

LAYERS = ("matrix", "balance", "svd", "inverse", "rga", "cli")
MODULES = (ucrga, ucrga.matrix, ucrga.balance, ucrga.svd, ucrga.inverse, ucrga.rga, ucrga.cli)
OPERATION = "op"


# a count recorded with the span of these functions, from their result
EXTRA = {
    "balance.balance": lambda result: result.iterations,
    "svd.svd": lambda result: result.u.nbytes + result.v.nbytes,
}


class Tracer:
    """Spans kept in memory, one column per field."""

    def __init__(self):
        self.names = [OPERATION]
        self.name_id = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self._stack = []
        self._op = -1
        self._originals = {}
        self._wrappers = {}

    def _record_start(self, name_id):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0)
        self.extra.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        record_start = self._record_start
        stack = self._stack
        end = self.end
        extra = self.extra
        count = EXTRA.get(name)

        def traced(*args, **kwargs):
            index = record_start(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                extra[index] = count(result)
            return result

        return traced

    def install(self):
        for module in MODULES:
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("ucrga.")
                ):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj)
                self._originals[(module, attr)] = obj
                setattr(module, attr, self._wrappers[obj])

    def uninstall(self):
        for (module, attr), obj in self._originals.items():
            setattr(module, attr, obj)
        self._originals.clear()

    @contextlib.contextmanager
    def operation(self, op_id):
        """The root span of one traced operation."""
        self._op = op_id
        index = self._record_start(0)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "extra": np.frombuffer(self.extra, dtype=np.int64),
        }

    def dump(self, path):
        """Write every span, and the span names, to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def median_operation_ms(self):
        """Median duration of the traced operations' root spans."""
        a = self.arrays()
        root = a["parent"] < 0
        return float(np.median((a["end_ns"][root] - a["start_ns"][root]) / 1e6))

    def layer_metrics(self):
        """The per-layer metrics, as means per traced operation."""
        a = self.arrays()
        operations = int(np.count_nonzero(a["parent"] < 0))
        duration = (a["end_ns"] - a["start_ns"]) / 1e6
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        self_ms = duration - child
        name_id = a["name_id"]
        layer_of = [name.split(".", 1)[0] for name in self.names]

        def per_op(values, mask):
            return float(values[mask].sum()) / operations

        def named(*wanted):
            return np.isin(name_id, [i for i, name in enumerate(self.names) if name in wanted])

        def in_layer(wanted):
            return np.isin(name_id, [i for i, layer in enumerate(layer_of) if layer == wanted])

        metrics = {f"{name}.self_ms": per_op(self_ms, in_layer(name)) for name in LAYERS}
        metrics.update(
            {
                "matrix.validate_calls": per_op(np.ones_like(duration), named("matrix.as_matrix")),
                "matrix.parse_ms": per_op(duration, named("matrix.parse_csv")),
                "balance.calls": per_op(np.ones_like(duration), named("balance.balance")),
                "balance.sweeps": per_op(a["extra"], named("balance.balance")),
                "svd.calls": per_op(np.ones_like(duration), named("svd.svd")),
                "svd.pinv_self_ms": per_op(self_ms, named("svd.pinv_from_factors", "svd.pinv")),
                "svd.factor_mb": per_op(a["extra"] / 1e6, named("svd.svd")),
                "inverse.gi_check_ms": per_op(duration, named("inverse.check_gi_identities")),
                "rga.summary_ms": per_op(duration, named("rga.rga_summary")),
                "rga.scaling_residual_ms": per_op(duration, named("rga.scaling_invariance_residual")),
                "cli.main_ms": per_op(duration, named("cli.main")),
                "trace.op_ms": per_op(duration, in_layer(OPERATION)),
                "trace.residual_ms": per_op(self_ms, in_layer(OPERATION)),
            }
        )
        return metrics
