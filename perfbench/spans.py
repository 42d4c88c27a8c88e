"""Span recorder for the traced benchmark runs.

`install()` wraps every public function of the chowops modules, in every
module namespace (and module-level dict, such as the suite table) that holds
it, plus `CellularVariety.__init__` and `ChowClass.__mul__`.  Each call
records a span: name, start, end, parent and whether it raised.  Spans stay
in compact arrays in memory; `raw_metrics()` reduces them to additive counts
and times when the run ends, and `finish()` turns merged counts into the
per-layer metrics.
"""
import functools
import gzip
import importlib
import json
import sys
import types
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "verify", "steenrod", "ktheory", "char_classes",
          "varieties", "core", "series")
METHODS = (("core", "CellularVariety", "__init__"),
           ("core", "ChowClass", "__mul__"))
BUILDERS = ("varieties.projective_space", "varieties.odd_quadric",
            "varieties.product", "varieties.variety_from_spec")
ACCESSORS = ("char_classes.todd_class", "char_classes.todd_inv_class",
             "char_classes.theta_minus_tangent", "char_classes.w_tangent",
             "char_classes.w_minus_tangent")
INIT = "core.CellularVariety.__init__"
MUL = "core.ChowClass.__mul__"
MULT_CLASS = "char_classes.multiplicative_class"
MORPHISM = "varieties.build_morphism"

# Named span counts: metric name -> span name.  A span whose function no
# longer exists is reported absent, not as zero.
COUNTS = {
    "series.smul.calls": "series.smul",
    "core.variety_init.calls": INIT,
    "core.mul.calls": MUL,
    "varieties.morphism.calls": MORPHISM,
    "char_classes.multiplicative_class.calls": MULT_CLASS,
    "ktheory.adams_lower.calls": "ktheory.adams_lower",
    "ktheory.k0_from_chow_lift.calls": "ktheory.k0_from_chow_lift",
    "steenrod.atiyah_decompose.calls": "steenrod.atiyah_decompose",
}
# Named inclusive times: metric name -> span name.
TIMES = {
    "core.variety_init_s": INIT,
    "core.mul_s": MUL,
}


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.max_den_bits = 0
        self.checks = 0
        self.suite_of = {}  # span name of a suite function -> suite name

    def wrap(self, name, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        failed, stack, clock = self.failed, self.stack, perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return span

    # -- result hooks ---------------------------------------------------------

    def _adams_lower(self, out):
        for v in out.tau.coeffs.values():
            if isinstance(v, Fraction):
                self.max_den_bits = max(self.max_den_bits,
                                        v.denominator.bit_length())

    def _run_suite(self, report):
        self.checks += report["checks"]

    # -- reduction ------------------------------------------------------------

    def raw_metrics(self):
        """Additive counts and times of everything recorded so far."""
        n = len(self.start)
        names = self.names
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        under_init = [False] * n     # a CellularVariety.__init__ span below
        under_mc = [False] * n       # a multiplicative_class span below
        init_id = names.index(INIT) if INIT in names else -1
        mc_id = names.index(MULT_CLASS) if MULT_CLASS in names else -1
        for i in range(n - 1, -1, -1):   # children start after their parent
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_init[p] = under_init[p] or under_init[i] or name_of[i] == init_id
                under_mc[p] = under_mc[p] or under_mc[i] or name_of[i] == mc_id

        builder_ids = {names.index(b) for b in BUILDERS if b in names}
        accessor_ids = {names.index(a) for a in ACCESSORS if a in names}
        morphism_id = names.index(MORPHISM) if MORPHISM in names else -1
        in_builder = [False] * n
        in_morphism = [False] * n
        raw = {}
        per_name_calls = [0] * len(names)
        per_name_incl = [0.0] * len(names)
        for layer in self.layers:
            for key in ("calls", "self_s", "failed"):
                raw["%s.%s" % (layer, key)] = 0
        raw.update({"varieties.build_s": 0.0, "varieties.build.calls": 0,
                    "varieties.build.hits": 0, "varieties.morphism_s": 0.0,
                    "char_classes.accessor.calls": 0,
                    "char_classes.accessor.hits": 0})
        for i in range(n):
            nid = name_of[i]
            p = parent[i]
            layer = names[nid].split(".", 1)[0]
            raw[layer + ".calls"] += 1
            raw[layer + ".self_s"] += dur[i] - child[i]
            raw[layer + ".failed"] += self.failed[i]
            per_name_calls[nid] += 1
            per_name_incl[nid] += dur[i]
            if nid in builder_ids:
                if p < 0 or not in_builder[p]:
                    raw["varieties.build_s"] += dur[i]
                    raw["varieties.build.calls"] += 1
                    raw["varieties.build.hits"] += not under_init[i]
                in_builder[i] = True
            elif p >= 0:
                in_builder[i] = in_builder[p]
            if nid == morphism_id:
                if p < 0 or not in_morphism[p]:
                    raw["varieties.morphism_s"] += dur[i]
                in_morphism[i] = True
            elif p >= 0:
                in_morphism[i] = in_morphism[p]
            if nid in accessor_ids:
                raw["char_classes.accessor.calls"] += 1
                raw["char_classes.accessor.hits"] += not under_mc[i]

        for metric, span in COUNTS.items():
            if span in names:
                raw[metric] = per_name_calls[names.index(span)]
        for metric, span in TIMES.items():
            if span in names:
                raw[metric] = per_name_incl[names.index(span)]
        for span, suite in self.suite_of.items():
            raw["verify.%s_s" % suite] = per_name_incl[names.index(span)]
        if "ktheory.adams_lower" in names:
            raw["ktheory.max_den_bits"] = self.max_den_bits
        if "verify.run_suite" in names:
            raw["verify.checks"] = self.checks
        return raw

    def dump(self, path):
        """Write the spans, gzipped: a JSON header, then one row per span.

        Rows are tab-separated parent index, name index, start, end and
        raised flag, in start order; the header names the columns and spans.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["parent", "name", "start", "end",
                                             "failed"],
                                 "names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%.9f\t%.9f\t%d\n" % (
                    self.parent[i], self.name_of[i], self.start[i], self.end[i],
                    self.failed[i]))


def install():
    """Wrap the chowops layers in place and return the recording Tracer."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module("chowops." + layer)
        except ModuleNotFoundError:   # a layer removed by a refactor is absent
            continue
    tr = Tracer(list(modules))
    hooks = {"ktheory.adams_lower": tr._adams_lower,
             "verify.run_suite": tr._run_suite}
    wrapped = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in sorted(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = "%s.%s" % (layer, attr)
                wrapped[id(obj)] = tr.wrap(name, obj, hooks.get(name))
    suites = getattr(modules.get("verify"), "SUITES", {})
    for suite, fn in suites.items():
        if id(fn) in wrapped:
            tr.suite_of["verify.%s" % fn.__name__] = suite
    namespaces = [sys.modules["chowops"]] + list(modules.values())
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                setattr(ns, attr, wrapped[id(obj)])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules.get(layer), cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, tr.wrap("%s.%s.%s" % (layer, cls_name, meth),
                                       vars(cls)[meth]))
    return tr


def merge(raws):
    """Sum raw metrics of several traced processes (max for denominator size)."""
    out = {}
    for raw in raws:
        for k, v in raw.items():
            if k == "ktheory.max_den_bits":
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def finish(raw):
    """Per-layer metrics from merged raw counts: ratios replace their parts."""
    out = dict(raw)
    for layer, part in (("varieties", "build"), ("char_classes", "accessor")):
        calls = out.pop("%s.%s.calls" % (layer, part))
        hits = out.pop("%s.%s.hits" % (layer, part))
        out["%s.cache_hit_ratio" % layer] = hits / calls if calls else 0.0
    return out
