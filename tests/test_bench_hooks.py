"""The benchmark's span table must keep naming functions that exist.

bench/spans.py wraps phinmod functions by module and attribute path, looking
class members up in the class ``__dict__``; a rename or a move would
otherwise only show up as a broken traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for span, (modname, path) in _traced_table().items():
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        found = owner is not None and (attr in vars(owner) if cls_path else hasattr(owner, attr))
        if not found:
            missing.append(f"{span}: {modname}.{path}")
    assert not missing
