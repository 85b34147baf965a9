"""In-memory span recorder that wraps a package's public functions.

A span is (name, start, end, parent, amount): ``parent`` is the index of the
enclosing span (-1 for a root) and ``amount`` is what an optional hook
computed from the call's arguments and result, such as bytes moved. Hooks
run after the span's end time is taken. Spans stay in memory until
``write`` is called once at the end of a run. The recorder keeps a single
call stack, so it assumes the traced code runs on one thread, as the
pipeline does with ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][4] = hook(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "amount"],
                       "spans": self.spans}, fh)


def _is_function(obj) -> bool:
    # jit-compiled kernels are callables that are neither classes nor
    # Python functions
    return callable(obj) and not inspect.isclass(obj)


def public_functions(module) -> dict:
    """Function -> attribute name, for the public functions a module defines.
    A function bound to several names takes the shortest one, so a kernel is
    named by its dispatch alias (loss_grad, not loss_grad_numpy)."""
    found = {}
    for attr, obj in sorted(vars(module).items(), key=lambda kv: (len(kv[0]), kv[0])):
        if (not attr.startswith("_") and _is_function(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            found.setdefault(obj, attr)
    return found


def install(tracer: Tracer, package: str, layers, methods=(), hooks=None):
    """Wrap the public functions of each ``package.layer`` module, at every
    module attribute of the package they are looked up through, plus the
    listed ``(layer, "Class.method")`` methods. Span names are
    ``layer.function``. Returns a function that restores the originals."""
    hooks = hooks or {}
    root = importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in layers}
    wrappers = {}
    for layer, module in modules.items():
        for fn, attr in public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, hooks.get(name))
    restore = []
    for module in (root, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if _is_function(obj) and obj in wrappers:
                restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    for layer, dotted in methods:
        cls_name, meth = dotted.split(".")
        cls = getattr(modules[layer], cls_name)
        fn = vars(cls)[meth]
        name = f"{layer}.{dotted}"
        restore.append((cls, meth, fn))
        setattr(cls, meth, tracer.wrap(name, fn, hooks.get(name)))

    def uninstall():
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)

    return uninstall
