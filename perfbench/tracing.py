"""Spans around the package's public layer functions, recorded from outside the package.

Modules bind names with ``from .x import y``, so a function is wrapped
at every module of the package that binds it, not only where it is
defined; each wrapper records which binding (the calling module) it sits
at.  Spans are kept in memory (name, binding, start, end, parent span
and operation id) and written out when the run ends.  A span's self time
is its duration minus the durations of its child spans; the package is
single-threaded on these workloads, so children never overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import subprocess
import sys
import time

#: (module, function) of every layer function the per-layer metrics name.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("cli", "compute_force"),
    ("compare", "consistency_report"),
    ("friction", "dissipation_general"),
    ("friction", "force_linear"),
    ("friction", "force_zero_t"),
    ("friction", "force_plasmon"),
    ("response", "im_r_dissipation_integral"),
    ("material", "surface_response"),
    ("numerics", "integrate_finite"),
    ("numerics", "integrate_semi_infinite"),
)

#: Spans kept in memory per function (surface_response alone makes about
#: 1e5 calls per force); calls beyond this are still counted and timed.
SPANS_PER_FUNCTION = 50_000


class Tracer:
    """Installs wrappers on the package's module attributes and aggregates their spans."""

    def __init__(self, package: str = "casimir_friction"):
        self.package = package
        self.op = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        # (function, binding) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []
        self._kept: dict[str, list] = {}

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        }
        for layer, fname in LAYER_FUNCTIONS:
            fn = getattr(mods[f"{self.package}.{layer}"], fname)
            for modname, mod in mods.items():
                if vars(mod).get(fname) is fn:
                    site = modname.rpartition(".")[2] if modname != self.package else "package"
                    setattr(mod, fname, self._wrap(f"{layer}.{fname}", site, fn))
                    self._patched.append((mod, fname, fn))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._patched):
            setattr(mod, fname, fn)
        self._patched.clear()

    def _wrap(self, name: str, site: str, fn):
        key = (name, site)
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        kept = self._kept.setdefault(name, [0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if kept[0] < SPANS_PER_FUNCTION:
                    kept[0] += 1
                    spans.append((span_id, parent, key, start, end, self.op))
                else:
                    self.dropped += 1

        return traced

    def calls(self, name: str, site: str | None = None) -> int:
        return sum(s[0] for (n, b), s in self.stats.items() if n == name and site in (None, b))

    def total_s(self, name: str) -> float:
        """Inclusive time summed over calls; the traced functions never call themselves."""
        return sum(s[1] for (n, _), s in self.stats.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(s[2] for (n, _), s in self.stats.items() if n == name)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "site", "start", "end", "op"],
                                 "dropped": self.dropped}) + "\n")
            for span_id, parent, (name, site), start, end, op in self.spans:
                fh.write(json.dumps([span_id, parent, name, site, start, end, op]) + "\n")


def import_times(src: str) -> dict[str, float]:
    """Import cost of ``casimir_friction.cli`` in a fresh interpreter.

    ``total`` is the wall time of the whole process (interpreter start,
    imports, exit); the others come from ``-X importtime``: ``numerics``
    is the cumulative time of ``casimir_friction.numerics``, and
    ``numpy``/``scipy`` sum the self times of every numpy/scipy module.
    """
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casimir_friction.cli"],
                          env=env, capture_output=True, text=True, check=True)
    total = time.perf_counter() - start
    out = {"total": total, "numerics": 0.0, "numpy": 0.0, "scipy": 0.0}
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")
    for line in proc.stderr.splitlines():
        m = line_re.match(line)
        if not m:
            continue
        self_us, cumulative_us, module = int(m[1]), int(m[2]), m[3]
        top = module.split(".")[0]
        if top in ("numpy", "scipy"):
            out[top] += self_us * 1e-6
        if module == "casimir_friction.numerics":
            out["numerics"] = cumulative_us * 1e-6
    return out
