"""Per-layer tracing of clpartitions, installed from outside the package.

A *layer* is one module of the package, found by walking the package
path, so a module added later becomes a layer without editing this file.
Every public function and method defined in a layer is wrapped: names
without a leading underscore, plus arithmetic operator methods such as
``__matmul__``.  Each wrapper is rebound under every name that refers to
the original in any module namespace, so ``from .x import f`` in another
module is traced too.  A function belongs to the layer that defines it.

A span is recorded only where the calling layer differs from the called
layer, plus one root span per CLI call.  Self time of a span is its
duration minus the durations of its child spans; a layer's self time is
the sum over its spans.  Unwrapped code, such as dataclass-generated
``__init__`` methods, generator bodies and Fraction arithmetic, is
charged to the layer of the span it runs in.  Aggregates are exact over
all spans; the first ``SPAN_LOG_CAP`` spans are kept in memory for
``write_spans``.

Some metrics time or count named groups of functions inside one layer
(``GROUP_TIMERS`` and ``GROUP_COUNTERS``); a group timer counts only the
outermost call, so recursion and nesting are not double counted.
Work counters (``WORK_RULES``) are computed from the arguments of calls
that enter a layer, matched by parameter name.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import pkgutil
import time

ROOT = "(root)"
SPAN_LOG_CAP = 5_000  # spans kept for write_spans; aggregates cover every span

_BINARY = (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow",
    "and", "or", "xor", "lshift", "rshift",
)
OPERATOR_METHODS = frozenset(
    [f"__{op}__" for op in _BINARY]
    + [f"__r{op}__" for op in _BINARY]
    + ["__neg__", "__pos__", "__abs__", "__invert__"]
)

# metric -> (layer, qualname patterns): inclusive time of the outermost call
GROUP_TIMERS = {
    "verify.rhs_s": ("verify", ("*rhs*",)),
    "sampler.draw_s": ("sampler", ("*.sample", "*.sample_many")),
    "sampler.exact_s": (
        "sampler",
        ("kernel_row*", "cor1_part*", "u_over_q_infinite_value"),
    ),
}

# metric -> (layer, qualname patterns): number of calls, from any caller
GROUP_COUNTERS = {
    "oracle.matmul_calls": ("oracle", ("*.__matmul__",)),
    "partitions.aut_order_calls": ("partitions", ("aut_order",)),
    "sampler.draws": ("sampler", ("*.sample",)),
    "sampler.kernel_rows": ("sampler", ("kernel_row*",)),
}


@functools.lru_cache(maxsize=None)
def partition_count(s: int) -> int:
    """p(s) by Euler's pentagonal recurrence (independent of the program)."""
    if s < 0:
        return 0
    if s == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > s:
            return total
        sign = 1 if k % 2 else -1
        total += sign * (partition_count(s - g1) + partition_count(s - g1 - k))
        k += 1


# metric -> (layer, parameter names, work per call entering the layer)
WORK_RULES = {
    "oracle.matrices": ("oracle", ("n", "p"), lambda n, p: p ** (n * n)),
    "partitions.terms": (
        "partitions",
        ("order",),
        lambda order: sum(partition_count(s) for s in range(order + 1)),
    ),
}


def _argument_getter(sig: inspect.Signature, names: tuple[str, ...]):
    """Return f(args, kwargs) -> values of *names*, or None if *sig* lacks one."""
    params = list(sig.parameters.values())
    slots = []
    for name in names:
        if name not in sig.parameters:
            return None
        param = sig.parameters[name]
        index = params.index(param)
        positional = param.kind in (
            param.POSITIONAL_ONLY,
            param.POSITIONAL_OR_KEYWORD,
        )
        slots.append((name, index if positional else None, param.default))

    def get(args, kwargs):
        values = []
        for name, index, default in slots:
            if index is not None and index < len(args):
                values.append(args[index])
            else:
                values.append(kwargs.get(name, default))
        return values

    return get


class Tracer:
    """Wraps a package's layers and aggregates spans of the calls between them."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.names: list[str] = []  # function id -> "layer:qualname"
        self.fn_calls: list[int] = []  # function id -> number of calls
        self._fn_groups: list[tuple[str, ...]] = []  # function id -> timer metrics
        self._fn_work: list[list] = []  # function id -> [(metric, getter, rule)]
        self._restore: list[tuple[object, str, object]] = []
        self.layer = ROOT
        self._stack: list[list] = []
        self.self_time: dict[str, float] = {}
        self.entries: dict[str, int] = {}  # layer -> calls entering it
        self.group_time = {metric: 0.0 for metric in GROUP_TIMERS}
        self._group_open = {metric: False for metric in GROUP_TIMERS}
        self.work = {metric: 0 for metric in WORK_RULES}
        # "layer n=3,p=3" -> inclusive time of calls entering the layer with
        # those WORK_RULES arguments
        self.time_by_args: dict[str, float] = {}
        self.spans = 0
        self.root_s = 0.0
        self._log: list[tuple[int, int, float, float, int]] = []

    # -- installation -------------------------------------------------
    def install(self, package) -> None:
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[f"{package.__name__}.{info.name}"] = importlib.import_module(
                f"{package.__name__}.{info.name}"
            )
        self.layers = [name.rsplit(".", 1)[1] for name in modules]
        for layer in [ROOT, *self.layers]:
            self.self_time[layer] = 0.0
            self.entries[layer] = 0

        wrappers: dict[int, object] = {}
        for modname, module in modules.items():
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__ == modname:
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, modname.rsplit(".", 1)[1])
                elif (
                    callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == modname
                    and not getattr(obj, "__name__", "_").startswith("_")
                    and id(obj) not in wrappers
                ):
                    wrappers[id(obj)] = self._wrap(
                        obj, modname.rsplit(".", 1)[1], obj.__qualname__
                    )
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATOR_METHODS:
                continue
            qualname = f"{cls.__qualname__}.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, layer, qualname))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(value.__func__, layer, qualname))
            elif isinstance(value, property):
                if value.fget is None:
                    continue
                new = property(
                    self._wrap(value.fget, layer, qualname),
                    value.fset,
                    value.fdel,
                    value.__doc__,
                )
            elif inspect.isfunction(value):
                new = self._wrap(value, layer, qualname)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def _wrap(self, fn, layer: str, qualname: str):
        fid = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        self.fn_calls.append(0)
        self._fn_groups.append(
            tuple(
                metric
                for metric, (glayer, patterns) in GROUP_TIMERS.items()
                if glayer == layer
                and any(fnmatch.fnmatchcase(qualname, pat) for pat in patterns)
            )
        )
        work = []
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if sig is not None:
            for metric, (wlayer, names, rule) in WORK_RULES.items():
                getter = _argument_getter(sig, names) if wlayer == layer else None
                if getter is not None:
                    work.append((metric, getter, rule))
        self._fn_work.append(work)

        calls = self.fn_calls
        plain = not self._fn_groups[fid]
        traced_call = self._traced_call
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if plain and tracer.layer == layer:
                return fn(*args, **kwargs)
            return traced_call(fn, fid, layer, args, kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------
    def _traced_call(self, fn, fid, layer, args, kwargs):
        if not self._stack:  # outside run_root: not part of a measured call
            return fn(*args, **kwargs)
        clock = time.perf_counter
        groups = [g for g in self._fn_groups[fid] if not self._group_open[g]]
        for g in groups:
            self._group_open[g] = True
        cross = self.layer != layer
        arg_keys = []
        if cross:
            for metric, getter, rule in self._fn_work[fid]:
                values = getter(args, kwargs)
                self.work[metric] += rule(*values)
                names = WORK_RULES[metric][1]
                arg_keys.append(
                    layer + " " + ",".join(f"{n}={v}" for n, v in zip(names, values))
                )
            self.entries[layer] += 1
            parent = self._stack[-1]
            caller_layer = self.layer
            frame = [self.spans, layer, 0.0]  # span id, layer, child time
            self.spans += 1
            self._stack.append(frame)
            self.layer = layer
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            duration = end - start
            for g in groups:
                self.group_time[g] += duration
                self._group_open[g] = False
            if cross:
                self._stack.pop()
                self.layer = caller_layer
                self.self_time[layer] += duration - frame[2]
                parent[2] += duration
                for key in arg_keys:
                    self.time_by_args[key] = self.time_by_args.get(key, 0.0) + duration
                if len(self._log) < SPAN_LOG_CAP:
                    self._log.append((frame[0], fid, start, end, parent[0]))

    def run_root(self, fn, *args):
        """Call fn(*args) inside a root span; returns its result."""
        if self._stack:
            raise RuntimeError("root span already open")
        frame = [self.spans, ROOT, 0.0]
        self.spans += 1
        self._stack.append(frame)
        self.layer = ROOT
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.root_s += duration
            self.self_time[ROOT] += duration - frame[2]
            self._log.append((frame[0], -1, start, end, -1))

    # -- output -------------------------------------------------------
    def counted(self, metric: str) -> int:
        layer, patterns = GROUP_COUNTERS[metric]
        total = 0
        for name, calls in zip(self.names, self.fn_calls):
            fn_layer, qualname = name.split(":", 1)
            if fn_layer == layer and any(
                fnmatch.fnmatchcase(qualname, pat) for pat in patterns
            ):
                total += calls
        return total

    def summary(self) -> dict:
        return {
            "layers": self.layers,
            "root_s": self.root_s,
            "untracked_s": self.self_time[ROOT],
            "self_s": {k: v for k, v in self.self_time.items() if k != ROOT},
            "calls": {k: v for k, v in self.entries.items() if k != ROOT},
            "groups_s": dict(self.group_time),
            "counters": {metric: self.counted(metric) for metric in GROUP_COUNTERS},
            "work": dict(self.work),
            "time_by_args_s": dict(self.time_by_args),
            "spans": self.spans,
            "function_calls": {
                name: calls for name, calls in zip(self.names, self.fn_calls) if calls
            },
        }

    def write_spans(self, path: str) -> None:
        """Write the logged spans as one JSON object.

        ``names`` maps a name index to "layer:qualname" (index -1 is the
        root span); each row of ``spans`` is [id, name index, start, end,
        parent id], times in seconds of ``time.perf_counter``.
        """
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "root": f"{ROOT}:cli-call",
                    "spans_total": self.spans,
                    "spans": [list(row) for row in self._log],
                },
                fh,
            )
