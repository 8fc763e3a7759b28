"""Session setup: the report header names the softmatch under test."""

import os
from pathlib import Path


def pytest_report_header(config):
    """The path of the imported softmatch package, and a warning for each
    PYTHONPATH entry that holds another one. pytest's `pythonpath = ["src"]`
    goes ahead of PYTHONPATH, so a run meant for another checkout's code
    tests this one's, and only this header shows it."""
    import softmatch

    here = Path(softmatch.__file__).resolve().parent
    lines = [f"softmatch: {here}"]
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        other = Path(entry, "softmatch", "__init__.py")
        if other.is_file() and other.resolve().parent != here:
            lines.append(
                f"WARNING: PYTHONPATH entry {entry} holds another softmatch"
                f" ({other.resolve().parent}); these tests import {here}"
            )
    return lines
