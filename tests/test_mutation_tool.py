"""The mutation tool's own contract: mutants that compile and differ from the
unmutated module, and a sample that a seed fixes."""

import ast

import pytest

import mutation

MODULES = sorted(path.name for path in mutation.PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_each_mutant_compiles_and_differs_from_the_unmutated_module(module):
    plain = ast.unparse(ast.parse((mutation.PACKAGE / module).read_text(encoding="utf-8")))
    for m in mutation.mutants(module):
        text = m.text()
        compile(text, module, "exec")
        assert text != plain + "\n", (m.line, m.operator)


def test_one_seed_gives_one_sample_and_another_seed_another():
    first = [(m.module, m.line, m.operator) for m in mutation.sample(7, 5, MODULES)]
    assert first == [(m.module, m.line, m.operator) for m in mutation.sample(7, 5, MODULES)]
    assert first != [(m.module, m.line, m.operator) for m in mutation.sample(8, 5, MODULES)]


def test_the_equivalent_list_names_live_sites():
    sites = {m.key() for module in MODULES for m in mutation.mutants(module)}
    assert set(mutation.load_equivalent()) <= sites
