"""The mutation check's table stays applicable (`tests/mutants.py`)."""

import ast

from mutants import MUTANTS, ROOT


def test_every_fragment_occurs_exactly_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment and m.nodes, m.name


def test_every_node_id_resolves():
    # read with ast, without running pytest: a renamed test fails here and
    # not as a pytest usage error in the mutation run
    modules = {}
    for m in MUTANTS:
        for node in m.nodes:
            path, *names = node.split("::")
            assert (ROOT / path).is_file(), (m.name, node)
            if path not in modules:
                modules[path] = ast.parse((ROOT / path).read_text()).body
            scope = modules[path]
            for name in names:
                name = name.split("[")[0]  # a parametrize id
                found = [
                    s for s in scope
                    if isinstance(s, (ast.ClassDef, ast.FunctionDef)) and s.name == name
                ]
                assert found, (m.name, node)
                scope = found[0].body
