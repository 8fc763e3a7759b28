"""The mutation check's table stays applicable (`tests/mutants.py`)."""

from mutants import MUTANTS, ROOT


def test_every_fragment_occurs_exactly_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment and m.nodes, m.name
