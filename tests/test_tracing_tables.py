"""The benchmark tracer's tables name what the library defines.

perfbench/tracing.py keeps its own copy of the layer kinds, the kind -> class
table and the train-module names it wraps.  A kind missing from that copy is
never wrapped, so its time would fold silently into layers.network.self_*.
The module is loaded from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

from lightcnn import layers
from lightcnn import train as train_mod

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_classes_are_the_library_types():
    classes = _tracing().LAYER_CLASSES
    assert set(classes) == set(layers.KINDS)
    for kind in layers.KINDS:
        assert classes[kind] is layers._TYPES[kind], kind


def test_eval_kinds_cover_every_kind():
    assert set(layers.KINDS) <= set(_tracing().EVAL_KINDS)


def test_wrapped_names_exist_in_the_library():
    tracing = _tracing()
    for name in tracing.TRAIN_FUNCTIONS:
        assert callable(getattr(train_mod, name, None)), name
    for cls, attr, _ in tracing.METHODS:
        assert getattr(sys.modules[cls.__module__], cls.__name__) is cls, cls
        assert callable(getattr(cls, attr, None)), (cls.__name__, attr)
