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


def test_an_if_is_replaced_by_its_else_branch_or_by_pass(tmp_path, monkeypatch):
    def unparsed(text):
        return ast.unparse(ast.parse(text)) + "\n"

    guard = "if x < 0:\n    raise ValueError(x)\n"
    chain = "if x:\n    a()\nelif x is None:\n    b()\nelse:\n    c()\n"
    (tmp_path / "m.py").write_text(guard + chain, encoding="utf-8")
    monkeypatch.setattr(mutation, "PACKAGE", tmp_path)
    ifs = [m for m in mutation.mutants("m.py") if m.operator == "if->else"]
    assert [(m.line, m.source_line) for m in ifs] == [
        (1, "if x < 0:"), (3, "if x:"), (5, "elif x is None:")]
    # a guard's raise is dropped; an elif chain loses one test at a time
    assert [m.text() for m in ifs] == [
        unparsed("pass\n" + chain),
        unparsed(guard + "if x is None:\n    b()\nelse:\n    c()\n"),
        unparsed(guard + "if x:\n    a()\nelse:\n    c()\n"),
    ]
