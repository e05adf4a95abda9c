"""Importing the package loads only what parsing runs.

``logsieve parse`` pays for every module it imports, on every start. The
checks compare ``sys.modules`` before and after the import in a fresh
interpreter started without ``site``, so modules that a ``.pth`` file
preloads (``typing``, ``random``) are not hidden by being loaded already.
The test's own ``sys.path`` is handed over, so the interpreter finds the
package and PyYAML where this one does.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NEW_MODULES = """
import sys
sys.path[:0] = sys.argv[2:]
before = set(sys.modules)
__import__(sys.argv[1])
print(" ".join(sorted(set(sys.modules) - before)))
"""


def new_modules(name: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NEW_MODULES, name, str(SRC), *sys.path],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_imports_no_dataclasses_argparse_random_or_synth():
    loaded = new_modules("logsieve.cli")
    assert "logsieve.dag" in loaded and "yaml" in loaded
    unwanted = {"dataclasses", "inspect", "typing", "argparse", "random", "logsieve.synth"}
    assert loaded & unwanted == set()


def test_package_imports_no_yaml_or_cli():
    loaded = new_modules("logsieve")
    assert "logsieve.dag" in loaded
    assert loaded & {"yaml", "logsieve.cli"} == set()
