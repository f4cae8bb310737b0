"""Child interpreters started by the tests import rpv from this source tree.

pyproject.toml puts src/ on sys.path for the test process only; exporting it
on PYTHONPATH too lets a plain ``python -m pytest`` run the subprocess tests.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p
)
