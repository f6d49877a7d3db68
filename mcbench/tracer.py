"""Call tracing for the benchmark's traced run, applied from outside the library.

`Tracer.install` replaces every function and method defined in the given
layer modules with a wrapper that records one `Span` per call, and then
rebinds every name under which another loaded module of the package
imported one of those functions (`sampler.suffix_ranks`,
`channel.row_reduce`, ...).  `Tracer.remove` puts every original back.
Spans stay in memory; the benchmark aggregates them when the run ends.
"""

import functools
import inspect
import sys
import time

_MARK = "__mcbench_traced__"
# dunder methods worth a span; the rest (__eq__, __repr__, ...) are noise
_TRACED_DUNDERS = ("__init__", "__post_init__", "__call__")


class Span:
    """One call: name, layer, start/end (perf_counter s), parent and root span."""

    __slots__ = ("name", "layer", "parent", "root", "start", "end", "child",
                 "info", "error")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.child = 0.0         # time covered by direct children
        self.info = None         # probe output, see Tracer.install
        self.error = None        # exception type name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def is_traced(obj) -> bool:
    return getattr(obj, _MARK, False)


def layer_functions(module):
    """(owner, attribute, qualified name, function) for everything `module` defines.

    Module-level functions and the functions, `__init__`/`__post_init__`/
    `__call__` and classmethods of module-level classes count; properties and
    code generated by `dataclass` (which has no source file) do not.
    """
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, f"{short}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                    continue
                fn = val.__func__ if isinstance(val, classmethod) else val
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    out.append((obj, attr, f"{short}.{name}.{attr}", val))
    return out


class Tracer:
    """Records spans for calls into the layer modules while installed."""

    def __init__(self, modules, probes=None):
        """modules: the layer modules; probes: {qualified name: probe}.

        A probe is a function `probe(args) -> after`, called before the
        wrapped call; `after(result) -> dict` is stored as the span's info.
        """
        self.modules = list(modules)
        self.package = self.modules[0].__name__.rsplit(".", 1)[0]
        self.probes = dict(probes or {})
        self.spans = []
        self._stack = []
        self._patches = []
        self._originals = {}

    # -- spans ---------------------------------------------------------------

    def open(self, name, layer="bench") -> Span:
        """Start a span from benchmark code (a trial or a set-up root)."""
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, error=None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def _wrap(self, fn, name, layer):
        probe = self.probes.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = probe(args) if probe is not None else None
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            if after is not None:
                span.info = after(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for owner, attr, qual, val in layer_functions(module):
                if isinstance(val, classmethod):
                    new = classmethod(self._wrap(val.__func__, qual, layer))
                else:
                    new = self._wrap(val, qual, layer)
                    replaced[id(val)] = (val, new)
                self._patches.append((owner, attr, val))
                setattr(owner, attr, new)
        # names bound by `from .module import name` elsewhere in the package
        for mod in self.package_modules():
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        self._originals = {key: fn for key, (fn, _) in replaced.items()}

    def remove(self) -> None:
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    def package_modules(self):
        prefix = self.package + "."
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]

    def missed(self):
        """While installed: package names still bound to an unwrapped layer function."""
        return [f"{mod.__name__}.{attr}" for mod in self.package_modules()
                for attr, val in vars(mod).items()
                if id(val) in self._originals and self._originals[id(val)] is val]

    def left_behind(self):
        """After `remove`: wrappers still bound anywhere in the package."""
        bad = []
        for mod in self.package_modules():
            for attr, val in vars(mod).items():
                if is_traced(val):
                    bad.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    bad += [f"{mod.__name__}.{val.__name__}.{cattr}"
                            for cattr, cval in vars(val).items()
                            if is_traced(getattr(cval, "__func__", cval))]
        return bad
