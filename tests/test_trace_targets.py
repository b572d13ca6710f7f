"""Every layer the benchmark traces still exists in the package.

perfbench/layers.py names its targets by module and attribute path; the
traced run exits 1 when one is missing. Resolving them here, the way the
tracer does, makes a rename fail the test suite as well.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_target_resolves():
    targets = _load_layers().TARGETS
    assert targets
    missing = []
    for module, name, path in targets:
        mod = importlib.import_module(f"polobstruct.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{name}")
    assert missing == []
