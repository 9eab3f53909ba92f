"""The shipped package stands alone: no module of ``repro`` needs the test
oracles or the optional networkx extra just to import.

Under pytest ``tests/`` is on ``sys.path``, so a ``src`` module that
imported :mod:`oracles` would still work here.  The check therefore runs
in a child process that sees only the directory holding ``repro``, with
networkx blocked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

from env_helpers import child_env

CHILD = textwrap.dedent("""
    import importlib, importlib.util, json, pkgutil, sys
    sys.modules["networkx"] = None
    import repro

    names, failed = [], {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
        try:
            importlib.import_module(info.name)
        except Exception as exc:
            failed[info.name] = repr(exc)
    print(json.dumps({
        "names": names,
        "failed": failed,
        "oracles_visible": importlib.util.find_spec("oracles") is not None,
    }))
""")


def test_every_repro_module_imports_without_oracles_or_networkx(tmp_path):
    env = child_env()
    env["PYTHONPATH"] = env["PYTHONPATH"].split(os.pathsep)[0]
    done = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert not report["oracles_visible"]
    assert report["failed"] == {}
    assert "repro.graphs.buckets" in report["names"]
    assert not [name for name in report["names"]
                if name.rsplit(".", 1)[-1] == "reference"]
