"""Child process: one `wreathfock` CLI invocation in a fresh interpreter.

    python3 perfbench/child.py SPAWN_NS TRACE [CLI ARGS...]

SPAWN_NS is `time.monotonic_ns()` read by the parent just before it
spawned this process, so that set-up time (spawn to `import
wreathfock.cli` returning) can be measured across the two processes; both
read the same system-wide monotonic clock. TRACE is 0 or 1. With 1, every
public function and method of each `wreathfock` module is wrapped before
`cli.main` runs, and per-function aggregates are returned.

While `cli.main` runs, a SIGALRM timer runs a short fixed pure-Python
loop (`probe`) every `PROBE_INTERVAL_S`, and a few more times just before
and after; each loop's duration is one sample of how fast the machine runs
Python at that moment. The probes' wall time is taken out of `main_s`, and
their CPU time is reported so that the parent can take it out of the
child's CPU time.

The CLI's stdout is captured, and one JSON line is written to the real
stdout at exit: exit code, captured stdout, set-up and main wall times,
peak RSS, the probe samples and CPU time, the module file actually
imported, and (traced) the aggregates
`{"<layer>.<qualname>": [calls, total_s, self_s]}`.
"""
import sys
import time

import wreathfock.cli  # noqa: E402  (timed: this is the set-up being measured)

_IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402

LAYERS = ("scalars", "groups", "wreath", "fock", "lambda_ops", "heisenberg",
          "gsets", "linalg", "report", "cli")

PROBE_INTERVAL_S = 0.1
EDGE_PROBES = 3          # probes just before and just after `cli.main`

# Dunders that Python calls implicitly as class methods or during class
# creation; wrapping them would change how the class is built.
_SKIP = {"__new__", "__init_subclass__", "__class_getitem__"}


class Tracer:
    """Wraps callables and aggregates (calls, total, self) per function.

    Self time is a call's duration minus the time of wrapped calls made
    inside it, so time spent in the stdlib or in private helpers lands in
    the nearest wrapped caller. Total time counts only the outermost
    activation of a recursive function.
    """

    def __init__(self):
        self.stats = {}          # key -> [calls, total_s, self_s, active]
        self._stack = [0.0]      # per open span: time of its child spans

    def wrap(self, fn, key):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[2] += dt - stack.pop()
                stack[-1] += dt
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dt
        return traced

    def aggregates(self):
        return {k: v[:3] for k, v in sorted(self.stats.items())}


class SpeedProbe:
    """Times a fixed loop (ints, a dict, Fractions: what the library spends
    its time on) on demand and from a SIGALRM timer. `samples` holds each
    loop's wall time; `wall_s` and `cpu_s` are the probes' own cost."""

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._busy = False

    def probe(self, *_):
        if self._busy:                   # a late signal during a probe
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        acc, d = Fraction(0), {}
        for i in range(1, 2000):
            k = i & 255
            d[k] = d.get(k, 0) + i * i % 7
            if not i & 15:
                acc += Fraction(1, i % 9 + 1)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.wall_s += dt
        self.cpu_s += time.process_time() - c0
        self._busy = False

    def edge(self):
        for _ in range(EDGE_PROBES):
            self.probe()

    @contextlib.contextmanager
    def periodic(self):
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def _own(obj, modname):
    return getattr(obj, "__module__", None) == modname


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _wrap_class(tracer, cls, layer):
    modname = cls.__module__
    for name, attr in list(vars(cls).items()):
        if not _is_public(name) or name in _SKIP:
            continue
        key = f"{layer}.{cls.__qualname__}.{name}"
        if isinstance(attr, types.FunctionType) and _own(attr, modname):
            new = tracer.wrap(attr, key)
        elif isinstance(attr, (staticmethod, classmethod)) \
                and _own(attr.__func__, modname):
            new = type(attr)(tracer.wrap(attr.__func__, key))
        elif isinstance(attr, property) and _own(attr.fget, modname):
            new = property(tracer.wrap(attr.fget, key), attr.fset,
                           attr.fdel, attr.__doc__)
        else:
            continue
        setattr(cls, name, new)


def _is_function(obj):
    # plain functions and functools.lru_cache wrappers
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "__wrapped__")
        and not isinstance(obj, type))


def _rebind(namespace, replace):
    """Point every module-level reference to a wrapped function at its
    wrapper: module globals, dict values and list items (also inside
    tuples), e.g. `from .x import f` aliases and builtin-group tables."""
    def sub(v):
        if isinstance(v, tuple):
            return tuple(sub(x) for x in v) if any(
                id(x) in replace for x in v) else v
        return replace.get(id(v), v)

    for name, value in list(namespace.items()):
        if id(value) in replace:
            namespace[name] = replace[id(value)]
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                value[k] = sub(v)
        elif isinstance(value, list):
            value[:] = [sub(v) for v in value]


def install(tracer):
    """Wrap every public function and method of the `wreathfock` layers."""
    modules = {layer: sys.modules[f"wreathfock.{layer}"] for layer in LAYERS}
    replace = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not _own(obj, mod.__name__):
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, obj, layer)
            elif _is_function(obj):
                replace[id(obj)] = tracer.wrap(obj, f"{layer}.{name}")
    for mod in [*modules.values(), sys.modules["wreathfock"]]:
        _rebind(vars(mod), replace)


def run(argv, trace):
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)
    speed = SpeedProbe()
    speed.edge()
    out = io.StringIO()
    error = None
    probe_wall_s = speed.wall_s
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), speed.periodic():
            rc = wreathfock.cli.main(argv)
    except SystemExit as exc:            # argparse: bad arguments or --help
        rc = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    except Exception:                    # report the job as failed, not crash
        rc, error = 1, traceback.format_exc()
    main_s = time.perf_counter() - t0 - (speed.wall_s - probe_wall_s)
    speed.edge()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, "stdout": out.getvalue(), "error": error,
            "main_s": main_s, "maxrss_kb": ru.ru_maxrss,
            "probe_s": speed.samples, "probe_cpu_s": speed.cpu_s,
            "module": wreathfock.cli.__file__,
            "trace": tracer.aggregates() if tracer else None}


if __name__ == "__main__":
    spawn_ns, trace = int(sys.argv[1]), sys.argv[2] == "1"
    result = run(sys.argv[3:], trace)
    result["setup_s"] = (_IMPORTED_NS - spawn_ns) / 1e9
    sys.stdout.write(json.dumps(result) + "\n")
