"""The four workloads: set-up, a seeded op plan, one timed op, its checks.

Each workload object is driven by run.py: ``prepare`` computes the oracle's
expectations (untimed), ``setup`` builds the program state the ops need
(timed as set-up, repeated), ``plan`` returns the seeded op sequence the
closed loop cycles through, ``run`` performs one op (timed) and ``check``
compares its output with the oracle (untimed).  ``kinds`` names the op
kinds; a run covers at least ``min_rounds`` ops of each kind.  An op made
of several long steps times each one with ``Context.step``.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import oracle
import spans

# The checkout's own code: run.py puts src/ first on sys.path before this
# module is imported.
from kgmarkov import datagen, dot, ingest, markov, query, rdf, vocab, writeback

CLI_TIMEOUT_S = 170


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    tracer: Optional[spans.Tracer] = None
    # wall time of each step of the op in progress, by step name
    steps: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.steps[name] = time.perf_counter() - t0

    @property
    def src(self) -> Path:
        return self.root / "src"

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env


@dataclass
class Op:
    kind: str
    state: str = ""
    day: int = 0
    steps: int = 0


def run_cli(ctx: Context, args: list[str], traced: bool, cwd: Path, op_id: int = 0):
    """One kgmarkov CLI subprocess: ``python -m kgmarkov.cli`` untraced, or
    perfbench/launcher.py traced, whose spans then join the parent's tree."""
    env = ctx.child_env()
    if not traced:
        cmd = [sys.executable, "-m", "kgmarkov.cli", *args]
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    span_file = ctx.work / "child-spans.jsonl"
    span = ctx.tracer.start("cli." + args[0].replace("-", "_"))
    env.update(PERFBENCH_SPANS=str(span_file), PERFBENCH_PARENT=span["id"],
               PERFBENCH_OP=str(op_id))
    cmd = [sys.executable, str(ctx.root / "perfbench" / "launcher.py"), *args]
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    finally:
        ctx.tracer.end(span)
        if span_file.exists():
            ctx.tracer.spans.extend(spans.read_jsonl(str(span_file)))
            span_file.unlink()


def cli_ok(proc, what: str) -> list[str]:
    if proc.returncode != 0:
        return [f"kgmarkov {what} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    return []


def probe_checkout(ctx: Context) -> None:
    """Run the checkout's kgmarkov in a child interpreter (this also warms
    its bytecode cache) and insist that it comes from ctx.src."""
    proc = subprocess.run(
        [sys.executable, "-c", "import kgmarkov, kgmarkov.cli; print(kgmarkov.__file__)"],
        cwd=ctx.work, env=ctx.child_env(), capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S)
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or ctx.src.resolve() not in where.parents:
        raise RuntimeError(f"child interpreter did not load kgmarkov from {ctx.src}: "
                           f"{proc.stdout.strip() or proc.stderr.strip()}")


def seeded_rounds(rng: random.Random, kinds: tuple[str, ...], rounds: int) -> list[str]:
    """Each round runs every kind once in a seeded order, so the mix stays
    balanced and op-latency percentiles do not hop between kinds."""
    plan = []
    for _ in range(rounds):
        order = list(kinds)
        rng.shuffle(order)
        plan.extend(order)
    return plan


def parsed_graph(days: int, seed: int):
    """A generated graph loaded by parsing its N-Triples text, and its counts."""
    rows = datagen.generate(datagen.GenConfig(days=days, seed=seed))
    graph = rdf.parse_ntriples(rdf.serialize_ntriples(ingest.ingest_rows(rows)))
    labels = [loc.local_name() for _, loc in ingest.location_sequence(graph)]
    return graph, markov.count_transitions(labels)


class QueryRead:
    """Read ops against one parsed 1,000-day graph."""

    in_process = True
    name = "query_read"
    days = 1000
    min_rounds = 10
    kinds = ("location_sequence", "transitions", "transition_pairs", "day_dot",
             "read_probabilities")

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def sizes(self) -> dict:
        return {"days": self.days}

    def prepare(self) -> None:
        self.rows = oracle.expected_rows(self.days, self.ctx.seed)
        self.states = sorted(set(oracle.locations(self.rows)))

    def setup(self) -> None:
        self.graph, counts = parsed_graph(self.days, self.ctx.seed)
        self.written = self.graph.copy()
        for state in counts.space.states:
            writeback.writeback_profile_model(self.written, counts, state, self.days)
        self.transitions_text = ingest.load_bundled_query("transitions")

    def plan(self) -> list[Op]:
        rng = random.Random(self.ctx.seed)
        return [Op(kind, state=rng.choice(self.states), day=rng.randint(1, self.days))
                for kind in seeded_rounds(rng, self.kinds, 400)]

    def run(self, op: Op, traced: bool, op_id: int):
        if op.kind == "location_sequence":
            return ingest.location_sequence(self.graph)
        if op.kind == "transitions":
            parsed = query.parse_query(self.transitions_text, vocab.Vocab().prefixes)
            return query.evaluate(parsed, self.graph).rows
        if op.kind == "transition_pairs":
            return ingest.transition_pairs(self.graph)
        if op.kind == "day_dot":
            fragment = dot.day_subgraph(self.graph, op.day)
            return dot.graph_to_dot(fragment, f"day{op.day}")
        return writeback.read_probabilities(self.written, op.state, "profile").as_pairs()

    def check(self, op: Op, out) -> list[str]:
        if op.kind == "location_sequence":
            return oracle.check_timeline(out, self.rows)
        if op.kind == "transitions":
            return oracle.check_transition_rows(out, self.rows)
        if op.kind == "transition_pairs":
            return oracle.check_pairs(out, self.rows)
        if op.kind == "day_dot":
            return oracle.check_dot(out, self.rows, op.day)
        return oracle.check_distribution(out, self.rows, op.state)


class WritebackRW:
    """Copy, write back, read back and serialize, on the 1,000-day graph."""

    in_process = True
    name = "writeback_rw"
    days = 1000
    min_rounds = 10
    kinds = ("profile", "profile_link", "cco")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.digests: dict[tuple, str] = {}

    def sizes(self) -> dict:
        return {"days": self.days}

    def prepare(self) -> None:
        self.rows = oracle.expected_rows(self.days, self.ctx.seed)
        self.states = sorted(set(oracle.locations(self.rows)))
        self.base_triples = oracle.graph_triples(self.days, len(self.states))

    def setup(self) -> None:
        self.graph, self.counts = parsed_graph(self.days, self.ctx.seed)

    def plan(self) -> list[Op]:
        rng = random.Random(self.ctx.seed)
        plan = []
        for i, kind in enumerate(seeded_rounds(rng, self.kinds, 400)):
            plan.append(Op(kind, state=rng.choice(self.states), day=self.days + i))
        return plan

    def run(self, op: Op, traced: bool, op_id: int):
        step = self.ctx.step
        with step(op.kind + ".copy"):
            graph = self.graph.copy()
        with step(op.kind + ".writeback"):
            if op.kind == "cco":
                writeback.writeback_cco_model(graph, self.counts, op.state, op.day)
                model = "cco"
            else:
                writeback.writeback_profile_model(graph, self.counts, op.state, op.day,
                                                  link_realizations=op.kind == "profile_link")
                model = "profile"
        with step(op.kind + ".read"):
            pairs = writeback.read_probabilities(graph, op.state, model).as_pairs()
        with step(op.kind + ".serialize"):
            text = rdf.serialize_ntriples(graph)
        return len(graph), pairs, text

    def check(self, op: Op, out) -> list[str]:
        size, pairs, text = out
        model = "cco" if op.kind == "cco" else "profile"
        want = self.base_triples + oracle.writeback_triples(
            self.rows, op.state, model, link=op.kind == "profile_link")
        problems = []
        if size != want or text.count("\n") != want:
            problems.append(f"{op.kind} graph has {size} triples "
                            f"({text.count(chr(10))} lines), expected {want}")
        problems += oracle.check_writeback_nt(text, self.rows, op.state, model, op.day)
        problems += oracle.check_distribution(pairs, self.rows, op.state)
        if model == "profile":
            # the same profile writeback must serialize to the same bytes
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault((op.kind, op.state), digest) != digest:
                problems.append(f"repeated {op.kind} writeback for {op.state} changed bytes")
        return problems


class CliChain:
    """gen-data -> ingest -> estimate -> writeback at 10,000 days, as CLI calls."""

    in_process = False
    name = "cli_chain"
    days = 10000
    kinds = ("chain",)
    # a chain takes about 12 s; three keep a traced run under three minutes
    min_rounds = 3
    files = ("observations.csv", "graph.nt", "matrix.json", "enriched.nt")

    def __init__(self, ctx: Context, days: Optional[int] = None):
        self.ctx = ctx
        self.days = days or self.days
        self.digests: Optional[dict[str, str]] = None

    def sizes(self) -> dict:
        return {"days": self.days}

    def prepare(self) -> None:
        self.rows = oracle.expected_rows(self.days, self.ctx.seed)
        self.states = sorted(set(oracle.locations(self.rows)))
        self.state = random.Random(self.ctx.seed).choice(self.states)
        self.base_triples = oracle.graph_triples(self.days, len(self.states))

    def setup(self) -> None:
        probe_checkout(self.ctx)

    def plan(self) -> list[Op]:
        return [Op(self.kinds[0], state=self.state, day=self.days)]

    def run(self, op: Op, traced: bool, op_id: int):
        out = self.ctx.work / f"chain{op_id}{'t' if traced else ''}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        csv, graph, matrix, enriched = self.files
        steps = [
            ["gen-data", "--days", str(self.days), "--seed", str(self.ctx.seed), "--out", csv],
            ["ingest", "--csv", csv, "--out", graph],
            ["estimate", "--graph", graph, "--out", matrix],
            ["writeback", "--graph", graph, "--matrix", matrix, "--state", op.state,
             "--day", str(op.day), "--model", "profile", "--out", enriched],
        ]
        for args in steps:
            with self.ctx.step(args[0]):
                proc = run_cli(self.ctx, args, traced, out, op_id)
            problems = cli_ok(proc, args[0])
            if problems:
                return out, problems
        return out, []

    def check(self, op: Op, out) -> list[str]:
        folder, problems = out
        try:
            if problems:
                return problems
            return self.check_texts(self.read_texts(folder), op.state)
        finally:
            shutil.rmtree(folder, ignore_errors=True)

    def read_texts(self, folder: Path) -> dict[str, str]:
        return {name: (folder / name).read_text(encoding="utf-8") for name in self.files}

    def check_texts(self, texts: dict[str, str], state: str) -> list[str]:
        rows = self.rows
        problems = oracle.check_csv(texts["observations.csv"], rows)
        problems += oracle.check_nt(texts["graph.nt"], rows, self.base_triples)
        problems += oracle.check_matrix_json(texts["matrix.json"], rows, order=1)
        added = oracle.writeback_triples(rows, state, "profile")
        problems += oracle.check_nt(texts["enriched.nt"], rows, self.base_triples + added)
        problems += oracle.check_writeback_nt(texts["enriched.nt"], rows, state, "profile")
        # repeated chains in one run must write byte-identical files
        digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}
        if self.digests is None:
            self.digests = digests
        problems += [f"{name} differs from the first chain's"
                     for name in self.files if digests[name] != self.digests[name]]
        return problems


class CliShort:
    """Short CLI calls: 3-state predict/power, order-2 estimate, 64-state
    power/predict, and gen-data, ingest and writeback at 100 days."""

    in_process = False
    name = "cli_short"
    days = 100
    n_big = 64
    kinds = ("predict3", "power3", "estimate2", "power64", "predict64",
             "gen_data", "ingest", "writeback")
    min_rounds = 10

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def sizes(self) -> dict:
        return {"days": self.days, "big_states": self.n_big, "power64_steps": 4096,
                "predict64_steps": 1000}

    def prepare(self) -> None:
        seed = self.ctx.seed
        self.rows = oracle.expected_rows(self.days, seed)
        self.states3 = sorted(set(oracle.locations(self.rows)))
        self.base_triples = oracle.graph_triples(self.days, len(self.states3))
        counts = oracle.first_order_counts(self.rows)
        self.p3 = []
        for a in self.states3:
            row = [counts[(a, b)] for b in self.states3]
            self.p3.append([c / sum(row) for c in row])
        self.states64 = [f"s{i:02d}" for i in range(self.n_big)]
        self.p64 = oracle.random_matrix(self.n_big, seed)
        self.pi64 = oracle.stationary(self.p64)

    def setup(self) -> None:
        probe_checkout(self.ctx)
        work = self.ctx.work
        rows = datagen.generate(datagen.GenConfig(days=self.days, seed=self.ctx.seed))
        (work / "observations100.csv").write_text(datagen.rows_to_csv(rows), encoding="utf-8")
        graph = ingest.ingest_rows(rows)
        (work / "graph100.nt").write_text(rdf.serialize_ntriples(graph), encoding="utf-8")
        # the same steps `kgmarkov estimate` takes, in-process
        labels = [loc.local_name() for _, loc in ingest.location_sequence(graph)]
        counts = markov.count_transitions(labels)
        matrix = markov.estimate_first_order(counts)
        (work / "matrix3.json").write_text(markov.dumps_matrix(matrix, counts), encoding="utf-8")
        (work / "matrix64.json").write_text(oracle.matrix_file(self.states64, self.p64),
                                            encoding="utf-8")

    def plan(self) -> list[Op]:
        rng = random.Random(self.ctx.seed)
        plan = []
        for kind in seeded_rounds(rng, self.kinds, 100):
            if kind == "predict3":
                plan.append(Op(kind, state=rng.choice(self.states3), steps=rng.randint(1, 4)))
            elif kind == "writeback":
                plan.append(Op(kind, state=rng.choice(self.states3), day=self.days))
            elif kind == "power3":
                plan.append(Op(kind, steps=rng.randint(1, 8)))
            elif kind == "power64":
                plan.append(Op(kind, steps=4096))
            elif kind == "predict64":
                plan.append(Op(kind, state=rng.choice(self.states64), steps=1000))
            else:
                plan.append(Op(kind))
        return plan

    def run(self, op: Op, traced: bool, op_id: int):
        if op.kind == "estimate2":
            args = ["estimate", "--graph", "graph100.nt", "--order", "2", "--out", "matrix2.json"]
        elif op.kind == "gen_data":
            args = ["gen-data", "--days", str(self.days), "--seed", str(self.ctx.seed),
                    "--out", "generated100.csv"]
        elif op.kind == "ingest":
            args = ["ingest", "--csv", "observations100.csv", "--out", "ingested100.nt"]
        elif op.kind == "writeback":
            args = ["writeback", "--graph", "graph100.nt", "--matrix", "matrix3.json",
                    "--state", op.state, "--day", str(op.day), "--model", "profile",
                    "--out", "enriched100.nt"]
        elif op.kind.startswith("power"):
            args = ["power", "--matrix", f"matrix{op.kind[5:]}.json", "--steps", str(op.steps)]
        else:
            args = ["predict", "--matrix", f"matrix{op.kind[7:]}.json", "--state", op.state,
                    "--steps", str(op.steps)]
        return run_cli(self.ctx, args, traced, self.ctx.work, op_id)

    def take(self, name: str) -> str:
        """An op's output file, removed once read so the next op must write it anew."""
        path = self.ctx.work / name
        try:
            return path.read_text(encoding="utf-8")
        finally:
            path.unlink()

    def check(self, op: Op, proc) -> list[str]:
        problems = cli_ok(proc, op.kind)
        if problems:
            return problems
        if op.kind == "estimate2":
            return oracle.check_matrix_json(self.take("matrix2.json"), self.rows, order=2)
        if op.kind == "gen_data":
            return oracle.check_csv(self.take("generated100.csv"), self.rows)
        if op.kind == "ingest":
            return oracle.check_nt(self.take("ingested100.nt"), self.rows, self.base_triples)
        if op.kind == "writeback":
            text = self.take("enriched100.nt")
            added = oracle.writeback_triples(self.rows, op.state, "profile")
            return (oracle.check_nt(text, self.rows, self.base_triples + added)
                    + oracle.check_writeback_nt(text, self.rows, op.state, "profile"))
        if op.kind == "power3":
            return oracle.check_power_output(proc.stdout, self.states3,
                                             oracle.mat_power(self.p3, op.steps), 1e-9)
        if op.kind == "predict3":
            want = oracle.mat_power(self.p3, op.steps)[self.states3.index(op.state)]
            return oracle.check_predict_output(proc.stdout, self.states3, want, 1e-9)
        if op.kind == "power64":
            return oracle.check_power_output(proc.stdout, self.states64,
                                             [self.pi64] * self.n_big, 1e-6)
        return oracle.check_predict_output(proc.stdout, self.states64, self.pi64, 1e-6)


WORKLOADS = {w.name: w for w in (CliChain, QueryRead, WritebackRW, CliShort)}
