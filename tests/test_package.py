"""The package namespace: `import uqgraph` loads nothing, each name loads
its own submodule on first use and is that submodule's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqgraph

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("chi", "construction", "errors", "field", "graph", "spectral")


def fresh(code: str):
    """Run `code` in a new interpreter on src/ and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(done.stdout)


LOADED = "sorted(m for m in sys.modules if m == 'uqgraph' or m.startswith('uqgraph.'))"


def test_import_loads_no_submodule_and_not_numpy():
    loaded, numpy = fresh(
        f"import json, sys; import uqgraph; print(json.dumps([{LOADED}, 'numpy' in sys.modules]))"
    )
    assert loaded == ["uqgraph"]
    assert numpy is False


def test_make_field_loads_field_and_errors_alone():
    loaded = fresh(
        f"import json, sys; import uqgraph; uqgraph.make_field(11, 2); print(json.dumps({LOADED}))"
    )
    assert loaded == ["uqgraph", "uqgraph.errors", "uqgraph.field"]


def test_star_import_binds_each_submodules_own_object():
    names = fresh(
        "import importlib, json\n"
        "import uqgraph\n"
        "namespace = {}\n"
        "exec('from uqgraph import *', namespace)\n"
        "same = [name for name in uqgraph.__all__ if namespace[name] is getattr(\n"
        "    importlib.import_module('uqgraph.' + uqgraph._OWNER[name]), name)]\n"
        "print(json.dumps([len(uqgraph.__all__), same]))"
    )
    count, same = names
    assert count == len(set(uqgraph.__all__)) == 47
    assert same == list(uqgraph.__all__)


def test_dir_covers_all_and_submodules_resolve():
    listed, missing, resolved = fresh(
        "import importlib, json\n"
        "import uqgraph\n"
        "listed = dir(uqgraph)\n"
        f"names = {SUBMODULES!r}\n"
        "resolved = [n for n in names if getattr(uqgraph, n) is importlib.import_module('uqgraph.' + n)]\n"
        "print(json.dumps([listed, sorted(set(uqgraph.__all__) - set(listed)), resolved]))"
    )
    assert missing == []
    assert set(SUBMODULES) <= set(listed)
    assert resolved == list(SUBMODULES)
    assert uqgraph.__version__ == "0.1.0"


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'uqgraph' has no attribute 'no_such_name'$"):
        uqgraph.no_such_name
    assert not hasattr(uqgraph, "cli_main")
    with pytest.raises(ImportError):
        exec("from uqgraph import no_such_name", {})
