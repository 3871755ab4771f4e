"""The benchmark's traced bindings resolve against the package.

perfbench/tracing.py replaces module attributes by name; a traced run aborts
with a LookupError when one no longer exists.  This test only reads
perfbench/, so a rename or removal in the package fails here first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    for modules, attr in tracing.BINDINGS.values():
        for module_name in modules:
            tracing._resolve(module_name, attr)
