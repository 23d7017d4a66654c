"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules by
a wrapper, under each name a module of the package binds it to: the
wrapper for ``energy.imag_axis_log_ratio`` is the one that ``energy``'s
quadrature callbacks call, ``spectrum.dispersion_two_piece`` the one that
the scan, the root polish and the winding integrals call.  The core
module's own namespace is left alone, so helpers the kernels call among
themselves count as kernel time.

Each call records a span (name, layer, start, end, parent, points, tag).
``points`` is the size of the first argument for kernels and eta, the
number of modes for ``find_spectrum``; ``tag`` tells scalar (s), real
array (r) and complex array (c) arguments apart.  Spans stay in memory
until ``layer_metrics`` derives self times and counts from them.
"""

import importlib
import inspect
import json
import math
import time

import numpy as np

LAYERS = ("core", "energy", "thermal", "spectrum", "cutoff", "modular", "quantum")
KERNELS = ("imag_axis_log_ratio", "imag_axis_log_ratio_2n", "dispersion_two_piece", "dispersion_2n")
_SIZED = KERNELS + ("log_abs_dedekind_eta", "dedekind_eta", "dedekind_eta_with_bound")


def _tag(arg):
    if np.ndim(arg) == 0:
        return "s"
    return "c" if np.iscomplexobj(arg) else "r"


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, binding, layer, fn):
        spans, stack = self.spans, self._stack
        name = f"{binding}.{fn.__name__}"
        sized = fn.__name__ in _SIZED
        spectrum = fn.__name__ == "find_spectrum"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            points, tag = (np.size(args[0]), _tag(args[0])) if sized and args else (0, "")
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if spectrum:
                    points = len(out.entries)
                return out
            finally:
                spans[index] = (name, layer, start, clock(), parent, points, tag)
                stack.pop()

        return traced

    def install(self):
        modules = {"stringcasimir": self.pkg}
        for name in LAYERS + ("cli",):
            modules[name] = importlib.import_module(f"{self.pkg.__name__}.{name}")
        public = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    public[id(obj)] = (layer, obj)
        for binding, mod in modules.items():
            if binding == "core":
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in public:
                    layer, fn = public[id(obj)]
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(binding, layer, fn))

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def write(self, path):
        """Spans as JSON: ``names`` lists each (binding.function, layer) once
        and every span is [name index, start, end, parent, points, tag],
        start and end in microseconds from the first span's start."""
        names = {}
        origin = self.spans[0][2] if self.spans else 0.0
        rows = []
        for name, layer, start, end, parent, points, tag in self.spans:
            key = names.setdefault((name, layer), len(names))
            rows.append([key, round((start - origin) * 1e6), round((end - origin) * 1e6),
                         parent, points, tag])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer counts and self times from the recorded spans."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, points, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    results = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    kernel = {"calls": 0, "points": 0, "self": 0.0}
    bound_points = {"energy": 0, "thermal": 0}
    scan = polish = winding = modes = damped = 0
    eta = {"calls": 0, "points": 0, "self": 0.0}
    for i, (name, layer, start, end, parent, points, tag) in enumerate(spans):
        own = end - start - child[i]
        self_s[layer] += own
        calls[layer] += 1
        if parent < 0 or spans[parent][1] != layer:
            results[layer] += 1
        binding, fn = name.rsplit(".", 1)
        if fn in KERNELS:
            kernel["calls"] += 1
            kernel["points"] += points
            kernel["self"] += own
            if binding in bound_points:
                bound_points[binding] += points
            if binding == "spectrum" and fn == "dispersion_two_piece":
                if tag == "s":
                    polish += 1
                elif tag == "r":
                    scan += points
                else:
                    winding += points
        elif fn == "find_spectrum":
            modes += points
        elif fn == "damped_mode_sum":
            damped += 1
        if layer == "modular" and "eta" in fn:
            eta["calls"] += 1
            eta["points"] += points
            eta["self"] += own
    return {
        "core.kernel_calls": (kernel["calls"], "count"),
        "core.kernel_points": (kernel["points"], "count"),
        "core.kernel_self_s": (kernel["self"], "s"),
        "core.kernel_points_per_s": (_ratio(kernel["points"], kernel["self"]), "1/s"),
        "energy.results": (results["energy"], "count"),
        "energy.self_s": (self_s["energy"], "s"),
        "energy.kernel_points_per_result": (_ratio(bound_points["energy"], results["energy"]), "count"),
        "thermal.results": (results["thermal"], "count"),
        "thermal.self_s": (self_s["thermal"], "s"),
        "thermal.terms_per_result": (_ratio(bound_points["thermal"], results["thermal"]), "count"),
        "spectrum.calls": (calls["spectrum"], "count"),
        "spectrum.self_s": (self_s["spectrum"], "s"),
        "spectrum.modes": (modes, "count"),
        "spectrum.scan_points": (scan, "count"),
        "spectrum.polish_evals": (polish, "count"),
        "spectrum.winding_points": (winding, "count"),
        "spectrum.winding_points_per_mode": (_ratio(winding, modes), "count"),
        "cutoff.results": (results["cutoff"], "count"),
        "cutoff.self_s": (self_s["cutoff"], "s"),
        "cutoff.damped_sums": (damped, "count"),
        "modular.eta_calls": (eta["calls"], "count"),
        "modular.eta_points": (eta["points"], "count"),
        "modular.eta_self_s": (eta["self"], "s"),
        "quantum.results": (results["quantum"], "count"),
        "quantum.self_s": (self_s["quantum"], "s"),
        "quantum.eta_points_per_result": (_ratio(eta["points"], results["quantum"]), "count"),
    }


def parse_importtime(text):
    """Cumulative milliseconds of ``stringcasimir``, ``numpy`` and the
    outermost ``scipy`` modules from ``python -X importtime`` output."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    out = {"package": math.nan, "numpy": math.nan, "scipy": 0.0}
    enclosing = {}
    # a module is printed after the modules it imports: walk backwards
    for depth, name, ms in reversed(entries):
        enclosing[depth] = name
        parent = enclosing.get(depth - 1, "") if depth else ""
        if name == "stringcasimir":
            out["package"] = ms
        elif name == "numpy" and math.isnan(out["numpy"]):
            out["numpy"] = ms
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy"] += ms
    return out
