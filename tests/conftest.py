"""Child interpreters started by the command-line tests import quivercert
from this checkout, as the suite itself does through pytest's
``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
