import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gtmprod


def test_public_names_are_their_defining_modules_objects():
    for name in gtmprod.__all__:
        value = getattr(gtmprod, name)
        assert value.__module__.startswith("gtmprod."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_lists_the_public_names():
    assert set(gtmprod.__all__) <= set(dir(gtmprod))
    assert len(set(gtmprod.__all__)) == len(gtmprod.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gtmprod.no_such_name
    assert not hasattr(gtmprod, "telescoping_limit")


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from gtmprod import *", scope)
    assert {name for name in scope if not name.startswith("__")} == set(gtmprod.__all__)


def test_a_name_loads_only_its_module():
    # a fresh interpreter: the package itself loads no module of its own
    script = textwrap.dedent("""
        import json, sys
        import gtmprod
        first = sorted(m for m in sys.modules if m.startswith("gtmprod."))
        gtmprod.parse_seq_spec
        print(json.dumps([first, sorted(m for m in sys.modules if m.startswith("gtmprod."))]))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["gtmprod.sequences"]]
