"""Spans around istruct's public functions, recorded from outside the package.

`Tracer.install` replaces each target function in every `istruct.*` module
namespace that holds it (``from .spaces import norm_batch`` copies the
binding, so patching only the defining module would miss those callers) and
`Tracer.restore` puts every original back.  Spans stay in memory as
``(name, start, end, parent, attrs)`` tuples until the caller reads them.

Spans nest through a single stack, so trace serial code only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("spaces", "structures", "morphisms", "theory", "ideals",
          "pelczynski", "corpus", "cli")


def public_functions(module) -> list[str]:
    """Names of the functions a module defines itself and does not mark private."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == module.__name__)


def istruct_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "istruct" or name.startswith("istruct."))]


def istruct_callables() -> dict:
    """(module, attribute) -> object for every callable in an istruct namespace."""
    return {(mod.__name__, attr): value for mod in istruct_modules()
            for attr, value in vars(mod).items() if callable(value)}


class Tracer:
    """Wraps ``(module name, function name)`` targets with span recorders.

    ``annotate`` maps a span name to ``f(args, kwargs, result) -> dict`` whose
    output is stored with the span.  A target that no longer exists is listed
    in ``absent`` instead of raising.
    """

    def __init__(self, targets, annotate=None):
        self.targets = list(targets)
        self.annotate = annotate or {}
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []  # (namespace object, attribute, original)

    def install(self) -> "Tracer":
        modules = istruct_modules()
        for mod_name, fn_name in self.targets:
            owner = sys.modules.get(mod_name)
            original = getattr(owner, fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, f"{mod_name.rsplit('.', 1)[-1]}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def wrap_imported(self, importer, module_attr: str, fn_name: str, name: str) -> None:
        """Wrap ``importer.<module_attr>.<fn_name>`` for that importer alone.

        The importer gets a copy of the module's namespace with the function
        wrapped, so other users of the module are not traced.
        """
        module = getattr(importer, module_attr, None)
        original = getattr(module, fn_name, None)
        if not isinstance(module, types.ModuleType) or not callable(original):
            self.absent.append(name)
            return
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        setattr(proxy, fn_name, self._wrap(original, name))
        self._patch(importer, module_attr, proxy)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, namespace, attr, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        annotate = self.annotate.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate else None
                spans[index] = (name, start, end, parent, attrs)

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
