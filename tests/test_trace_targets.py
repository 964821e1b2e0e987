"""The benchmark's tracer wraps knnrex functions by name; a rename or a
deletion of one of them breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert ("knnrex.evaluation", "BinningSpec.assign") in {(t[0], t[1]) for t in targets}
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} is traced but does not exist"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"
