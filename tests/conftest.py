"""Session setup: the report header names the softmatch under test, and
the ratio-lemma checks that several tests read run once."""

import inspect
import os
from pathlib import Path

import pytest


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


@pytest.fixture(scope="session")
def ratio_check():
    """check_ratio_lemma(n_max, **options) as (report, the ascent it
    compared), run once per set of arguments in a session. Criterion 07
    and the supremum test both read its 1000-row, 3-restart, 250-step
    ascent at seed 707, which takes about 3 s."""
    from softmatch import probes

    runs = {}

    def run(n_max, **options):
        bound = inspect.signature(probes.check_ratio_lemma).bind(n_max, **options)
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        if key not in runs:
            real, seen = probes._ratio_ascent, []

            def spy(*args):
                seen.append(real(*args))
                return seen[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(probes, "_ratio_ascent", spy)
                report = probes.check_ratio_lemma(n_max, **options)
            (ascent,) = seen
            ascent.flags.writeable = False
            runs[key] = (report, ascent)
        return runs[key]

    return run
