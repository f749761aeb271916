"""The reachability census maps a called code object onto its ``def``.

``benchmarks/census.py`` records each called code object by file and
``co_firstlineno`` and looks it up among the ``def`` statements it
parsed; a decorated function's code starts at its first decorator.
"""

import importlib.util
from pathlib import Path

CENSUS = Path(__file__).resolve().parents[2] / "benchmarks" / "census.py"

TOY = '''\
import functools


def plain():
    return 1


@functools.lru_cache(
    maxsize=None,
)
def decorated():
    return 2


def outer():
    def inner():
        return 3
    return inner


class Box:
    def method(self):
        return 4

    @property
    def size(self):
        return 5

    @size.setter
    def size(self, value):
        pass
'''


def _census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_def_starts_where_its_code_object_starts():
    namespace = {}
    exec(compile(TOY, "toy.py", "exec"), namespace)
    box = namespace["Box"]
    codes = {
        "plain": namespace["plain"].__code__,
        "decorated": namespace["decorated"].__wrapped__.__code__,
        "outer": namespace["outer"].__code__,
        "outer.<locals>.inner": namespace["outer"]().__code__,
        "Box.method": box.method.__code__,
        "Box.size": box.size.fget.__code__,
        "Box.size#2": box.size.fset.__code__,
    }
    defs = {d.qualname: d for d in _census().definitions(TOY)}
    assert sorted(defs) == sorted(codes)
    for name, code in codes.items():
        assert defs[name].first == code.co_firstlineno, name
    assert defs["decorated"].first == 8  # the first decorator's line
    assert (defs["outer"].first, defs["outer"].last) == (15, 18)
