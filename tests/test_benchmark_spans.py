"""The benchmark's named spans must name public chowops functions.

`perfbench/spans.py` reports a span whose function no longer exists as
absent, so deleting or renaming a function it names would pass unnoticed
outside a benchmark run.  The file is loaded by path and only read.
"""
import importlib
import importlib.util
import inspect
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(spans, name):
    """True iff install() would wrap something under this span name."""
    layer, *path = name.split(".")
    mod = importlib.import_module("chowops." + layer)
    if len(path) == 1:
        fn = vars(mod).get(path[0])
        return (isinstance(fn, types.FunctionType) and not path[0].startswith("_")
                and fn.__module__ == mod.__name__)
    cls_name, meth = path
    cls = vars(mod).get(cls_name)
    return ((layer, cls_name, meth) in spans.METHODS and inspect.isclass(cls)
            and meth in vars(cls))


def test_every_named_span_resolves():
    spans = _load_spans()
    names = (list(spans.COUNTS.values()) + list(spans.TIMES.values())
             + list(spans.BUILDERS) + list(spans.ACCESSORS)
             + [spans.MULT_CLASS, spans.MORPHISM])
    missing = [name for name in names if not _resolves(spans, name)]
    assert not missing, missing


def test_every_layer_imports():
    # install() skips a layer that does not import, and its metrics vanish
    for layer in _load_spans().LAYERS:
        importlib.import_module("chowops." + layer)


def test_every_suite_is_a_public_verify_function():
    # the verify.<suite>_s metrics time a suite through the wrapper install()
    # puts on the public function of chowops.verify that SUITES holds
    from chowops import verify
    for suite, fn in verify.SUITES.items():
        assert isinstance(fn, types.FunctionType), suite
        assert fn.__module__ == verify.__name__, suite
        assert not fn.__name__.startswith("_"), suite
        assert vars(verify).get(fn.__name__) is fn, suite
