"""Seeded single-site mutation testing of ``src/kgmarkov``, standard library only.

A mutant changes one site of one module: a comparison swapped for its
neighbour (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and
``not in``, ``is`` and ``is not``), ``+`` for ``-`` or back, ``and`` for ``or``
or back, an integer from 0 to 10 made one larger, or a ``not`` dropped.  The change is
made in the module's parsed tree, which ``ast.unparse`` writes back as source
without its comments; the report names each site by its line in the module
as written.

Each mutant runs in a temporary copy of ``src/`` and ``tests/``, never in the
working tree, against its module's tests plus the acceptance, golden and CLI
tests.  A mutant is killed when that run fails.  Hypothesis draws from a fixed
seed in every copy, so one ``--seed`` gives one score.  Survivors on
``tests/mutation_equivalent.tsv``, each with the reason it was judged
equivalent, are listed apart; every other survivor is a gap in the tests or
an equivalent not yet judged.  The process exits 0 whatever survives, as a
report and not a gate, and 2 when the unmutated copy fails its tests.

    python tests/mutation.py --seed 1 --per-module 30
    python tests/mutation.py --seed 7 --per-module 4 --summary report.md

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kgmarkov"
EQUIVALENT = Path(__file__).with_name("mutation_equivalent.tsv")
COMMON_TESTS = ("test_acceptance.py", "test_golden.py", "test_cli.py")
SMALL_INT = range(11)  # a negative literal is a minus applied to one of these
TIMEOUT_S = 300  # per mutant; a mutant that loops forever is killed by it
JOBS = 2  # mutants tested at once, each in its own pytest process

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
# loaded in every copy with -p: a fixed seed per test, no deadline and no
# example database, so a run's outcome depends on the mutant alone
_PROFILE = """from hypothesis import settings
settings.register_profile("mutation", derandomize=True, deadline=None, database=None)
settings.load_profile("mutation")
"""
# pytest under a memory limit, which its subprocesses inherit: a mutant that
# grows a loop must fail, not take the host's memory.  The child sets it
# itself, since preexec_fn is unsafe beside the pool's threads.
_PYTEST = """import resource, sys, pytest
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))
sys.exit(pytest.main(sys.argv[1:]))
"""


@dataclass(frozen=True)
class Mutant:
    module: str      # file name, such as "markov.py"
    function: str    # enclosing qualified name, "" at module level
    line: int
    column: int      # 1-based, where the mutated node starts
    operator: str    # such as "GtE->Gt", "Add->Sub", "int 0->1", "drop not"
    source_line: str  # the original line, stripped
    occurrence: int  # 1 for the first site with this function, operator and line, then 2, ...
    index: int       # its position among the module's sites

    def key(self) -> tuple[str, str, str, str, str]:
        """What names this site in the equivalent list; line numbers shift with edits above."""
        return self.module, self.function, self.operator, str(self.occurrence), self.source_line

    def text(self) -> str:
        """The whole mutated module, as ``ast.unparse`` writes it."""
        tree = ast.parse((PACKAGE / self.module).read_text(encoding="utf-8"))
        return ast.unparse(_Sites(self.index).visit(tree)) + "\n"


def _name(op: ast.AST) -> str:
    return type(op).__name__


class _Sites(ast.NodeTransformer):
    """Lists every mutation site of one tree in source order, as (node,
    function, operator), and mutates the site numbered ``target``."""

    def __init__(self, target: int = -1):
        self.target = target
        self.scope: list[str] = []
        self.found: list[tuple[ast.AST, str, str]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _site(self, node, operator) -> bool:
        """Record a site; whether it is the one to mutate."""
        self.found.append((node, ".".join(self.scope), operator))
        return len(self.found) - 1 == self.target

    def visit_JoinedStr(self, node):
        return node  # positions inside f-strings are unreliable before Python 3.12

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                new = _SWAPS[type(op)]()
                if self._site(node, f"{_name(op)}->{_name(new)}"):
                    node.ops[i] = new
                    return node
        return self.generic_visit(node)

    def _swap_op(self, node):
        if type(node.op) in _SWAPS:
            new = _SWAPS[type(node.op)]()
            if self._site(node, f"{_name(node.op)}->{_name(new)}"):
                node.op = new
                return node
        return self.generic_visit(node)

    visit_BinOp = visit_AugAssign = visit_BoolOp = _swap_op

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not) and self._site(node, "drop not"):
            return node.operand
        return self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int and node.value in SMALL_INT:
            if self._site(node, f"int {node.value}->{node.value + 1}"):
                node.value += 1
        return node


def mutants(module: str) -> list[Mutant]:
    """Every single-site mutant of one module of the package, in source order."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    lines = source.encode("utf-8").splitlines()  # split where the parser counts lines
    finder = _Sites()
    finder.visit(ast.parse(source))
    found, seen = [], Counter()
    for index, (node, function, operator) in enumerate(finder.found):
        source_line = lines[node.lineno - 1].decode("utf-8").strip()
        seen[function, operator, source_line] += 1
        found.append(Mutant(module, function, node.lineno, node.col_offset + 1, operator,
                            source_line, seen[function, operator, source_line], index))
    return found


def tests_for(module: str) -> list[str]:
    """The tests a mutant of ``module`` runs: its own file, then the common ones."""
    own = f"test_{module[:-3]}.py"
    names = ([own] if (ROOT / "tests" / own).is_file() else []) + list(COMMON_TESTS)
    return list(dict.fromkeys(names))


def load_equivalent(path: Path = EQUIVALENT) -> dict[tuple[str, str, str, str, str], str]:
    """Survivors judged equivalent: tab-separated module, function, operator,
    occurrence, source line and reason; '#' starts a comment line."""
    judged = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            *key, reason = raw.split("\t")
            judged[tuple(key)] = reason
    return judged


def run_tests(files: list[str], module: str = "", text: str = "") -> bool:
    """Whether the test ``files`` pass in a fresh copy of the working tree,
    with ``module`` holding ``text`` if one is given."""
    with tempfile.TemporaryDirectory(prefix="kgmarkov-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        (copy / "mutation_profile.py").write_text(_PROFILE, encoding="utf-8")
        if module:
            (copy / "src" / "kgmarkov" / module).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy}",
                   PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
        command = [sys.executable, "-c", _PYTEST, "-q", "-x", "-p", "no:cacheprovider",
                   "-p", "mutation_profile", *(f"tests/{name}" for name in files)]
        try:
            done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def sample(seed: int, per_module: int, modules: list[str]) -> list[Mutant]:
    """``per_module`` mutants of each module (all of them if it has fewer), in source order."""
    chosen = []
    for module in modules:
        found = mutants(module)
        rng = random.Random(f"{seed}:{module}")  # a str seed does not depend on the hash seed
        picked = sorted(rng.sample(range(len(found)), min(per_module, len(found))))
        chosen.extend(found[i] for i in picked)
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--per-module", type=int, default=30)
    parser.add_argument("--summary", help="also append the report, as Markdown, to this file")
    args = parser.parse_args(argv)
    names = sorted(path.name for path in PACKAGE.glob("*.py"))
    chosen = sample(args.seed, args.per_module, names)
    # the unmutated copy must pass every file a mutant runs, or a kill would mean nothing
    every_file = sorted({f for c in chosen for f in tests_for(c.module)})
    if chosen and not run_tests(every_file):
        print("the unmutated copy fails " + " ".join(every_file), file=sys.stderr)
        return 2
    with ThreadPoolExecutor(JOBS) as pool:
        survived = list(pool.map(
            lambda c: run_tests(tests_for(c.module), c.module, c.text()), chosen))
    judged = load_equivalent()
    report = [f"mutation score, seed {args.seed}, up to {args.per_module} mutants per module:", ""]
    for name in names:
        mine = [(c, s) for c, s in zip(chosen, survived) if c.module == name]
        killed = sum(not s for _, s in mine)
        report.append(f"- {name}: {killed}/{len(mine)} killed" if mine else f"- {name}: no sites")
    killed = len(chosen) - sum(survived)
    alive = [c for c, s in zip(chosen, survived) if s]
    gaps = [c for c in alive if c.key() not in judged]
    report += ["", f"total: {killed}/{len(chosen)} killed; {len(alive) - len(gaps)} of the "
               f"{len(alive)} survivors are on the equivalent list", "",
               f"survivors not on the equivalent list: {len(gaps)}", ""]
    report += [f"- {c.module}:{c.line}:{c.column} {c.function or '<module>'} {c.operator} "
               f"`{c.source_line}`" for c in gaps]
    print("\n".join(report))
    for c in alive:
        if c.key() in judged:
            print(f"equivalent: {c.module}:{c.line}:{c.column} {c.operator}: "
                  f"{judged[c.key()]}")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write("\n".join(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
