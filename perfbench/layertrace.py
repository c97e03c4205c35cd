"""Per-layer tally of a traced pass: calls and self time of each public function.

`Tracer.install` wraps every public function of each `poolregions` module
and puts the wrapper in every `poolregions.*` namespace that binds the
original.  That catches calls through a module's own globals (`polyalg`,
`oracle`, `cli`) and through names imported from another module (`seq1d`,
`seq2d` and `verify` import `polyalg` functions, `oracle` imports `faces`
functions).  Self time is a call's duration minus the duration of the
wrapped calls it made; methods and private helpers count towards the
public function that called them.  Durations come from the tracer's
clock, which the worker stops while its speed probe runs.  The tally
lives in memory and is written to a file when the pass ends.
"""

import functools
import inspect
import json
import os
import platform
import sys
import time

MODULES = ("cli", "faces", "facets1d", "model", "oracle", "polyalg", "seq1d", "seq2d", "verify")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# work done by one call, counted where the work happens: name -> (counter, amount)
WORK = {
    "oracle.enumerate_faces": ("faces", lambda a, kw, r: r.total()),
    "oracle.enumerate_vertices": ("vertices", lambda a, kw, r: len(r)),
    "oracle.sample_regions": ("trials", lambda a, kw, r: _arg(a, kw, 1, "trials")),
    # the scan visits 2^(d-1) - 1 partitions; counted as 2^(d-1)
    "oracle.facet_count_two_classes": (
        "partitions", lambda a, kw, r: 2 ** (_arg(a, kw, 0, "family").ambient_size - 1)),
    "polyalg.det_poly": ("size_sum", lambda a, kw, r: _arg(a, kw, 0, "m").size),
    "polyalg.series_coeffs": ("terms", lambda a, kw, r: _arg(a, kw, 1, "upto") + 1),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # "module.function" -> [calls, self seconds, work]
        self.checks = {}  # verify check name -> inclusive seconds
        self._stack = []  # per open call: seconds spent in wrapped callees

    def install(self):
        from poolregions import cli  # noqa: F401  (loads every module)

        wrappers = {}
        for modname in MODULES:
            mod = sys.modules[f"poolregions.{modname}"]
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{modname}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "poolregions" or modname.startswith("poolregions."):
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit and hit[0] is value:
                        setattr(mod, attr, hit[1])
        checks = sys.modules["poolregions.verify"].CHECKS
        self.checks = dict.fromkeys(checks, 0.0)
        for name, check in list(checks.items()):
            checks[name] = self._time_check(name, check)

    def _wrap(self, name, fn):
        stat = self.stats[name] = [0, 0.0, 0]
        stack = self._stack
        clock = self.clock
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if work:
                stat[2] += work(args, kwargs, result)
            return result

        return wrapper

    def _time_check(self, name, check):
        def timed(*args):
            t0 = self.clock()
            try:
                return check(*args)
            finally:
                self.checks[name] += self.clock() - t0

        return timed

    def write(self, path, workload, seed, records, speed):
        functions = {}
        modules = dict.fromkeys(MODULES, 0.0)
        for name, (calls, self_s, work) in sorted(self.stats.items()):
            functions[name] = {"calls": calls, "self_s": self_s}
            if name in WORK:
                functions[name][WORK[name][0]] = work
            modules[name.split(".")[0]] += self_s
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({
                "workload": workload,
                "seed": seed,
                "python": platform.python_version(),
                "speed": speed,
                "functions": functions,
                "modules_self_s": modules,
                "verify_checks_s": self.checks,
                "queries": records,
            }, f, indent=1)
