"""Every function the traced benchmark run wraps exists in the package.

`perfbench/trace_child.py` rebinds the functions named in its LAYERS table
and reports a missing one only at run time, so a change that deletes or
renames one of them fails here first.  Loading the file runs no package
code: it imports gaussvariants only inside its entry point.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "name", [f"{m}.{fn}" for m, functions in LAYERS.items() for fn in functions]
)
def test_traced_function_exists(name):
    module_name, fn_name = name.split(".")
    module = importlib.import_module(f"gaussvariants.{module_name}")
    assert callable(getattr(module, fn_name, None)), name
