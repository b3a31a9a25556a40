"""Span tracing of rdbw's public functions, installed from outside the package.

`Tracer.install()` replaces each listed function with a timing wrapper in
every loaded ``rdbw`` module that holds it, so calls made through any
import site (``selector.assemble_pilots``, ``pilot.fit_boundary`` ...)
are recorded.  `Tracer.uninstall()` puts the originals back.  Spans are
(id, parent, name, start, end) tuples kept in memory.  Only calls made in
this process are recorded: the benchmark traces serial rounds only.
"""

import functools
import sys
from time import perf_counter

# layer -> public functions wrapped in that layer; `errors` is not a layer
LAYERS = {
    "simlab": ("draw_sample", "run_monte_carlo"),
    "pilot": (
        "assemble_pilots",
        "estimate_density",
        "estimate_derivatives",
        "estimate_variances",
        "estimate_tauD",
    ),
    "local_poly": ("fit_boundary", "estimate_level"),
    "kernels": ("eval_kernel",),
    "selector": (
        "select_bandwidths",
        "compute_coefficients",
        "default_bounds",
        "minimize_mmse",
        "mmse_objective",
    ),
    "estimator": ("frd_estimate",),
    "cli": ("main", "load_csv"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _rdbw_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "rdbw" or name.startswith("rdbw."))
    ]


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._originals = {}  # span name -> original function
        self._patched = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))

        return functools.update_wrapper(traced, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function at every rdbw import site holding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of an original -> its wrapper
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"rdbw.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                orig = self._originals[name] = getattr(mod, fn_name)
                wrappers[id(orig)] = self._wrap(name, orig)
        for mod in _rdbw_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def leftovers(self):
        """Import sites that disagree with the install state.

        While installed: sites still holding an original.  After
        uninstall: sites still holding a wrapper.  Both should be empty.
        """
        originals = {id(f) for f in self._originals.values()}
        out = []
        for mod in _rdbw_modules():
            for attr, value in vars(mod).items():
                if self._patched and id(value) in originals:
                    out.append(f"{mod.__name__}.{attr} not wrapped")
                elif not self._patched and id(getattr(value, "__wrapped__", None)) in originals:
                    out.append(f"{mod.__name__}.{attr} still wrapped")
        return out


def aggregate(spans):
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which run one after another inside it.
    """
    in_children = {}
    for _sid, parent, _name, t0, t1 in spans:
        in_children[parent] = in_children.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, _parent, name, t0, t1 in spans:
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0), self_s + (t1 - t0) - in_children.get(sid, 0.0))
    return out


def counts(spans):
    out = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0) + 1
    return out


def write_spans(spans, path):
    """One tab-separated line per span: id, parent, name, start, end (s)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for sid, parent, name, t0, t1 in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
