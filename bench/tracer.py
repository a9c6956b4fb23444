"""Outside-in tracer for the tropjac layers.

The tracer patches the running interpreter, never the source: every public
function of each layer module and every method of each public class defined
there is replaced by a timing wrapper, and every other binding of the same
function object in a ``tropjac`` module namespace (the ``from .x import f``
copies, and the re-exports in the package) is rebound to that wrapper, so
calls that cross modules are seen too.  ``uninstall`` puts every original
binding back.

Spans are aggregated as they close rather than stored: a stack holds, for
each open span, the time covered by its children, so a span's self time is
its duration minus that.  Per layer the tracer keeps total self time and
calls; per callable it keeps calls.
"""

import functools
import sys
import time
import types
from collections import Counter

LAYERS = (
    "cli",
    "cover_analysis",
    "split_jacobian",
    "tav",
    "torus_category",
    "curves_covers",
    "exact_lattice",
)

PACKAGE = "tropjac"


def _max_bits(matrices, entries):
    return max(
        (abs(x.numerator).bit_length() for m in matrices for row in entries(m) for x in row),
        default=0,
    )


class Tracer:
    """Per-layer self time and call counts of everything tropjac runs while
    installed.  Use as a context manager around the code to trace."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = Counter()  # "layer.name" -> calls
        self.snf_max_bits = 0
        self._entries = None
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    # -- results ------------------------------------------------------------

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        # the unpatched accessor, for reading SNF results from outside
        self._entries = sys.modules[f"{PACKAGE}.exact_lattice"].Matrix.entries
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif isinstance(obj, type):
                    self._patch_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, name, obj, entry[1])

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _set(self, owner, name, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _patch_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr == "__new__":
                continue
            label = f"{cls.__name__}.{'new' if attr == '__init__' else attr}"
            if isinstance(raw, types.FunctionType):
                self._set(cls, attr, raw, self._wrap(layer, label, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrap(layer, label, raw.__func__)
                self._set(cls, attr, raw, type(raw)(wrapped))

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        snf = self if key == "exact_lattice.smith_normal_form" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if snf is not None:
                # read the size of U, S, V from outside; the parent span
                # counts this as child time, so it lands in no layer
                begin = clock()
                snf.snf_max_bits = max(snf.snf_max_bits, _max_bits(result, snf._entries))
                if stack:
                    stack[-1] += clock() - begin
            return result

        return wrapper
