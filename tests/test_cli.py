import builtins
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from kgmarkov.cli import main
from kgmarkov.datagen import DEFAULT_SEED
from kgmarkov.ingest import load_bundled_query
from kgmarkov.markov import (
    ChainCounts,
    ChainMatrix,
    MarkovError,
    StateSpace,
    count_pair_transitions,
    dumps_matrix,
    estimate_first_order,
    estimate_second_order,
    loads_matrix,
)
from kgmarkov.rdf import parse_ntriples

from conftest import EXAMPLE_P, LOCATIONS3

THREE_DAY_CSV = (
    "Time,Day,Location\n"
    "2023-04-08 12:00:00,Day1,location3\n"
    "2023-04-09 12:00:00,Day2,location1\n"
    "2023-04-10 12:00:00,Day3,location3\n"
)


def write_example_matrix(path, with_counts=False):
    space = StateSpace(LOCATIONS3)
    if with_counts:
        counts = ChainCounts(space, [[12, 9, 11], [5, 9, 4], [11, 9, 11]], 1)
        matrix = estimate_first_order(counts)
        path.write_text(dumps_matrix(matrix, counts), encoding="utf-8")
    else:
        matrix = ChainMatrix(space, EXAMPLE_P, 1, row_sum_tol=2e-3)
        path.write_text(dumps_matrix(matrix), encoding="utf-8")
    return path


@pytest.fixture
def graph_file(tmp_path):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(THREE_DAY_CSV, encoding="utf-8")
    out = tmp_path / "graph.nt"
    assert main(["ingest", "--csv", str(csv_path), "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_writes_a_csv(self, tmp_path):
        out = tmp_path / "obs.csv"
        assert main(["gen-data", "--days", "5", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Time,Day,Location"
        assert len(lines) == 6
        assert lines[1].startswith("2023-04-08 12:00:00,Day1,")

    def test_seed_controls_the_output(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["gen-data", "--days", "30", "--seed", "7", "--out", str(a)])
        main(["gen-data", "--days", "30", "--seed", "7", "--out", str(b)])
        main(["gen-data", "--days", "30", "--seed", "8", "--out", str(c)])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_bad_day_count_exits_1(self, tmp_path):
        out = tmp_path / "obs.csv"
        assert main(["gen-data", "--days", "0", "--out", str(out)]) == 1
        assert not out.exists()


class TestIngest:
    def test_three_rows_become_46_triples(self, graph_file):
        graph = parse_ntriples(graph_file.read_text(encoding="utf-8"))
        assert len(graph) == 46

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Time,Day,Location\nnot a time,Day1,location1\n")
        out = tmp_path / "graph.nt"
        assert main(["ingest", "--csv", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_a_blank_line_changes_nothing(self, tmp_path, graph_file):
        csv_path = tmp_path / "blank.csv"
        csv_path.write_text(THREE_DAY_CSV.replace(",Day1,location3\n", ",Day1,location3\n\n"),
                            encoding="utf-8")
        out = tmp_path / "blank.nt"
        assert main(["ingest", "--csv", str(csv_path), "--out", str(out)]) == 0
        assert out.read_bytes() == graph_file.read_bytes()

    def test_missing_csv_exits_2(self, tmp_path, capsys):
        out = tmp_path / "graph.nt"
        code = main(["ingest", "--csv", str(tmp_path / "no.csv"), "--out", str(out)])
        assert code == 2
        assert "i/o error:" in capsys.readouterr().err


class TestQuery:
    def test_bundled_query_as_csv(self, graph_file, capsys):
        code = main(["query", "--graph", str(graph_file),
                     "--query", "location_by_time", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == (
            "datetime,location\n"
            "2023-04-08 12:00:00,location3\n"
            "2023-04-09 12:00:00,location1\n"
            "2023-04-10 12:00:00,location3\n"
        )

    def test_table_format_pads_columns(self, graph_file, capsys):
        code = main(["query", "--graph", str(graph_file),
                     "--query", "location_by_time"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["datetime", "location"]
        assert "2023-04-08 12:00:00" in out

    @pytest.mark.parametrize("fmt,expected", [
        ("csv", "ice,n\n3to1TransitionCount,11\n3to2TransitionCount,9\n"
                "3to3TransitionCount,11\ntotal3toXTransitions,31\n"),
        ("table", "ice                   n\n--------------------  --\n"
                  "3to1TransitionCount   11\n3to2TransitionCount   9\n"
                  "3to3TransitionCount   11\ntotal3toXTransitions  31\n"),
    ])
    def test_integer_values_print_their_lexical_forms(self, graph_file, tmp_path, capsys,
                                                      fmt, expected):
        """A literal that is not an xsd:dateTime prints as it is written."""
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        profile = tmp_path / "profile.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location3", "--day", "3", "--model", "profile",
                     "--out", str(profile)]) == 0
        q = tmp_path / "counts.rq"
        q.write_text("SELECT ?ice ?n WHERE { ?ice cco:has_integer_value ?n . }")
        capsys.readouterr()
        assert main(["query", "--graph", str(profile), "--query", str(q),
                     "--format", fmt]) == 0
        assert capsys.readouterr().out == expected

    def test_query_file_path_wins_over_bundled_names(self, graph_file, tmp_path, capsys):
        q = tmp_path / "mine.rq"
        q.write_text("SELECT ?s WHERE { ?s rdf:type bfo:Process . }")
        assert main(["query", "--graph", str(graph_file), "--query", str(q),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "s"
        assert "fishingTripPart_d1" in out

    def test_a_directory_named_like_a_bundled_query_does_not_shadow_it(
            self, graph_file, tmp_path, monkeypatch, capsys):
        args = ["query", "--graph", str(graph_file), "--query", "transitions", "--format", "csv"]
        assert main(args) == 0
        expected = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "transitions").mkdir()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")

    def test_unknown_bundled_name_exits_1(self, graph_file, capsys):
        code = main(["query", "--graph", str(graph_file), "--query", "nope"])
        assert code == 1
        err = capsys.readouterr().err
        assert "location_by_time" in err and "transitions" in err

    def test_a_bundled_query_is_named_only_by_its_short_name(self, graph_file, tmp_path,
                                                             monkeypatch, capsys):
        # no transitions.rq here, so a mistyped path must not run the bundled query
        monkeypatch.chdir(tmp_path)
        assert main(["query", "--graph", str(graph_file), "--query", "transitions.rq"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: no bundled query named 'transitions.rq' "
                                "(bundled: day, location_by_time, transitions)\n")

    def test_malformed_query_exits_1_with_position(self, graph_file, tmp_path, capsys):
        q = tmp_path / "broken.rq"
        q.write_text("SELECT ?s WHERE { ?s rdf:type }")
        assert main(["query", "--graph", str(graph_file), "--query", str(q)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1:" in captured.err

    def test_a_pattern_missing_its_object_exits_1_with_one_error_line(self, graph_file,
                                                                      tmp_path, capsys):
        q = tmp_path / "short.rq"
        q.write_text("SELECT ?s WHERE { ?s <http://e/p> . }")
        assert main(["query", "--graph", str(graph_file), "--query", str(q)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1:35: expected an object term, found '.'\n"


class TestEstimate:
    def test_first_order_output_round_trips(self, graph_file, tmp_path):
        out = tmp_path / "matrix.json"
        assert main(["estimate", "--graph", str(graph_file), "--out", str(out)]) == 0
        matrix, counts = loads_matrix(out.read_text(encoding="utf-8"))
        assert matrix.space.states == ("location1", "location3")
        assert counts.rows == ((0, 1), (1, 0))
        assert matrix.probability("location1", "location3") == 1.0

    def test_file_is_valid_json_with_counts(self, graph_file, tmp_path):
        out = tmp_path / "matrix.json"
        main(["estimate", "--graph", str(graph_file), "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["format"] == 1
        assert data["order"] == 1
        assert data["counts"] == [[0, 1], [1, 0]]

    def test_second_order(self, graph_file, tmp_path):
        out = tmp_path / "matrix2.json"
        assert main(["estimate", "--graph", str(graph_file), "--order", "2",
                     "--out", str(out)]) == 0
        matrix, _ = loads_matrix(out.read_text(encoding="utf-8"))
        assert matrix.probability("location3", "location1", "location3") == 1.0

    def test_empty_graph_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.nt"
        empty.write_text("")
        assert main(["estimate", "--graph", str(empty),
                     "--out", str(tmp_path / "m.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the graph contains no observations to estimate from\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "moved,named",
        [("http://example.org/alt/location2",
          ["<http://example.org/alt/location2>", "<http://example.org/data/location2>",
           "share the local name 'location2'"]),
         ("http://example.org/data/location1/",
          ["<http://example.org/data/location1/> has an empty local name"])],
    )
    def test_locations_whose_local_names_clash_exit_1(self, tmp_path, capsys,
                                                       moved, named):
        """Distinct location IRIs must not collapse onto one state label."""
        csv_path, graph = tmp_path / "obs.csv", tmp_path / "graph.nt"
        main(["gen-data", "--days", "6", "--out", str(csv_path)])
        main(["ingest", "--csv", str(csv_path), "--out", str(graph)])
        text = graph.read_text(encoding="utf-8")
        assert "/data/location1>" in text and "/data/location2>" in text
        graph.write_text(text.replace("http://example.org/data/location1>", moved + ">"),
                         encoding="utf-8")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["estimate", "--graph", str(graph), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(part in err for part in named), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new,named",
        [('<http://example.org/data/location1> .',
          '"location1" .',
          'error: a track point lies in "location1"^^<http://www.w3.org/2001/XMLSchema#string>, '
          'not an IRI\n'),
         ('"2023-04-09T12:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>',
          '"7"^^<http://www.w3.org/2001/XMLSchema#integer>',
          'error: an observation time is "7"^^<http://www.w3.org/2001/XMLSchema#integer>, '
          'not an xsd:dateTime literal\n'),
         ('"2023-04-09T12:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>',
          '<http://example.org/data/noon>',
          'error: an observation time is <http://example.org/data/noon>, '
          'not an xsd:dateTime literal\n')],
        ids=["literal-location", "integer-time", "iri-time"],
    )
    def test_ill_typed_location_or_time_exits_1(self, graph_file, tmp_path, capsys,
                                                 old, new, named):
        """A literal location used to end in an AssertionError traceback."""
        text = graph_file.read_text(encoding="utf-8")
        assert text.count(old) == 1
        graph_file.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["estimate", "--graph", str(graph_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == named
        assert not out.exists()

    def test_two_locations_at_one_instant_exit_1(self, graph_file, tmp_path, capsys):
        """A track point in two locations used to add a transition inside day 2."""
        with graph_file.open("a", encoding="utf-8") as f:
            f.write("<http://example.org/data/trackPoint_d2> "
                    "<http://example.org/ontology/bfo/spatial_part_of> "
                    "<http://example.org/data/location2> .\n")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["estimate", "--graph", str(graph_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: two observations at one instant, 2023-04-09T12:00:00: "
            "in http://example.org/data/location1 and in http://example.org/data/location2\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        ("gap", "the location query returned 2 rows for the 3 track points the vessel occupies"),
        ("doubled", "the location query returned 4 rows for the 3 track points "
                    "the vessel occupies"),
        ("cancel", "track point http://example.org/data/trackPoint_d3 "
                   "has more than one observation time"),
    ], ids=["gap-2", "doubled-4", "cancel"])
    def test_a_day_with_no_time_or_two_times_exits_1(self, graph_file, tmp_path, capsys,
                                                     edit, message):
        """Day 2's time removed used to make up a step from day 1 to day 3, a
        second time for day 2 used to repeat that day, and both edits, on days
        2 and 3, used to cancel out and pass."""
        line = ('<http://example.org/data/tInstant_d2> '
                '<http://example.org/ontology/cco/has_datetime_value> '
                '"2023-04-09T12:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime> .\n')
        text = graph_file.read_text(encoding="utf-8")
        assert text.count(line) == 1
        edited = {"gap": text.replace(line, ""),
                  "doubled": text + line.replace("T12:00:00", "T18:00:00"),
                  "cancel": text.replace(line, "")
                  + line.replace("_d2", "_d3").replace("04-09T12:00:00", "04-10T18:00:00")}[edit]
        graph_file.write_text(edited, encoding="utf-8")
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["estimate", "--graph", str(graph_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestPower:
    def test_step_5_distribution(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["power", "--matrix", str(m), "--steps", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        for row in data["p"]:
            assert row == pytest.approx([0.334, 0.363, 0.303], abs=0.005)

    def test_zero_steps_prints_identity(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["power", "--matrix", str(m), "--steps", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_second_order_matrix_is_refused(self, tmp_path, capsys):
        pc = count_pair_transitions(["a", "b", "a", "b"])
        m2 = tmp_path / "m2.json"
        m2.write_text(dumps_matrix(estimate_second_order(pc)), encoding="utf-8")
        assert main(["power", "--matrix", str(m2), "--steps", "2"]) == 1
        assert "first-order" in capsys.readouterr().err


@pytest.fixture
def m1(tmp_path):
    """The order-1 matrix file of the 100-day default-seed pipeline."""
    csv_path, graph, m1 = (tmp_path / n for n in ("obs.csv", "graph.nt", "m1.json"))
    assert main(["gen-data", "--days", "100", "--out", str(csv_path)]) == 0
    assert main(["ingest", "--csv", str(csv_path), "--out", str(graph)]) == 0
    assert main(["estimate", "--graph", str(graph), "--out", str(m1)]) == 0
    return m1


class TestPowerBytesAcrossKernels:
    """OpenBLAS picks a kernel per CPU, and its fused multiply-add kernels round
    a matrix product differently from the older ones.  OPENBLAS_CORETYPE=Prescott
    forces an older kernel in one child; where OpenBLAS ignores the variable,
    both children run one kernel and the test holds trivially."""

    @pytest.fixture(params=[(3, 5), (64, 37)], ids=["3-states-5-steps", "64-states-37-steps"])
    def matrix_and_steps(self, request, tmp_path):
        states, steps = request.param
        if states == 3:  # the pipeline's own matrix
            return request.getfixturevalue("m1"), steps
        rng = random.Random(1)
        weights = [[0.5 + rng.random() for _ in range(states)] for _ in range(states)]
        p = [[w / sum(row) for w in row] for row in weights]
        m = tmp_path / "m64.json"
        space = StateSpace([f"s{i}" for i in range(states)])
        m.write_text(dumps_matrix(ChainMatrix(space, p, 1)), encoding="utf-8")
        return m, steps

    def test_power_prints_the_same_bytes_under_either_kernel_family(self, matrix_and_steps,
                                                                     capsys):
        m, steps = matrix_and_steps
        src = Path(__file__).resolve().parents[1] / "src"
        printed = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update(kernel, PYTHONPATH=str(src))
            done = subprocess.run([sys.executable, "-m", "kgmarkov.cli", "power", "--matrix",
                                   str(m), "--steps", str(steps)],
                                  env=env, capture_output=True, timeout=120, check=True)
            printed.append(done.stdout)
        assert printed[0] == printed[1]
        # run as a script, the module prints what its main prints
        capsys.readouterr()
        assert main(["power", "--matrix", str(m), "--steps", str(steps)]) == 0
        assert printed[0] == capsys.readouterr().out.encode()


class TestHugeStepCounts:
    """A million steps used to end in an OverflowError traceback from the
    row-sum drift bound; by then the chain has long reached its limit."""

    def test_power(self, m1, capsys):
        rows = {}
        for steps in ("4096", "1000000"):
            capsys.readouterr()
            assert main(["power", "--matrix", str(m1), "--steps", steps]) == 0
            rows[steps] = json.loads(capsys.readouterr().out)["p"]
        for far, near in zip(rows["1000000"], rows["4096"]):
            assert far == pytest.approx(near, abs=1e-9)

    def test_predict(self, m1, capsys):
        shown = {}
        for steps in ("4096", "1000000"):
            capsys.readouterr()
            assert main(["predict", "--matrix", str(m1), "--state", "location1",
                         "--steps", steps]) == 0
            shown[steps] = capsys.readouterr().out
        assert shown["1000000"] == shown["4096"]


def _example_file_with(field: str, value) -> str:
    """The example matrix file with counts, the first entry of ``field`` set to ``value``."""
    counts = ChainCounts(StateSpace(LOCATIONS3), [[12, 9, 11], [5, 9, 4], [11, 9, 11]], 1)
    data = json.loads(dumps_matrix(estimate_first_order(counts), counts))
    data[field][0][0] = value
    return json.dumps(data)


# rows that sum to 0.9982, inside the loaded-file tolerance
DRAINING_MATRIX = json.dumps({"format": 1, "order": 1, "states": ["a", "b"],
                              "p": [[0.4991, 0.4991]] * 2, "row_status": ["observed"] * 2})


class TestMalformedInputs:
    """Each file used to end in a traceback or in a wrong answer with exit 0;
    each must exit 1 with nothing on stdout and one ``error:`` line."""

    @pytest.mark.parametrize("text,argv", [
        (_example_file_with("p", 10**400), ["predict", "--matrix", "IN", "--state", "location1"]),
        (_example_file_with("counts", 10**400),
         ["predict", "--matrix", "IN", "--state", "location1"]),
        ("[" * 200_000, ["predict", "--matrix", "IN", "--state", "location1"]),
        (DRAINING_MATRIX, ["predict", "--matrix", "IN", "--state", "a", "--steps", "5000"]),
        (DRAINING_MATRIX, ["predict", "--matrix", "IN", "--state", "a", "--steps", "1000000"]),
        (DRAINING_MATRIX, ["power", "--matrix", "IN", "--steps", "1000000"]),
        (THREE_DAY_CSV + "2023-04-11 12:00:00,Day4," + "x" * 200_000 + "\n",
         ["ingest", "--csv", "IN", "--out", "OUT"]),
        (THREE_DAY_CSV.replace("location1", "loc\x00ation1"),
         ["ingest", "--csv", "IN", "--out", "OUT"]),
    ], ids=["p-past-float-range", "counts-past-float-range", "nested-too-deep",
            "drains-5000-steps", "drains-1000000-steps", "power-drains", "csv-long-field",
            "csv-nul-byte"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, text, argv):
        given, out = tmp_path / "input", tmp_path / "out"
        given.write_text(text, encoding="utf-8")
        assert main([{"IN": str(given), "OUT": str(out)}.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()


class TestPredict:
    def test_published_row_lookup(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["predict", "--matrix", str(m), "--state", "location3"]) == 0
        assert capsys.readouterr().out == (
            "location1 0.355\nlocation2 0.290\nlocation3 0.355\n"
        )

    def test_multi_step(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["predict", "--matrix", str(m), "--state", "location1",
                     "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "location2 0.363"

    def test_zero_steps_exits_1(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["predict", "--matrix", str(m), "--state", "location1",
                     "--steps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "steps must be at least 1" in captured.err

    def test_counts_written_as_strings_exit_1_with_one_error_line(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        data = json.loads(m.read_text(encoding="utf-8"))
        data["counts"] = [[str(x) for x in row] for row in data["counts"]]
        m.write_text(json.dumps(data), encoding="utf-8")
        assert main(["predict", "--matrix", str(m), "--state", "location1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix file: counts must be a list of equal-length " \
                               "lists of numbers\n"

    def test_counts_beyond_int64_exit_1_with_one_error_line(self, tmp_path, capsys):
        """Counts in the ratio of p, but too large for int64, used to end in
        an OverflowError traceback."""
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        data = json.loads(m.read_text(encoding="utf-8"))
        data["counts"][0] = [12 * 10**20, 9 * 10**20, 11 * 10**20]
        m.write_text(json.dumps(data), encoding="utf-8")
        assert main(["predict", "--matrix", str(m), "--state", "location1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order-1 count matrix: the total of row 0 " \
                               "does not fit in int64\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda status: status[:2] + ["observed"],
         "row_status[2] is 'observed', but p makes it 'unobserved'"),
        (lambda status: ["unobserved"] + status[1:],
         "row_status[0] is 'unobserved', but p makes it 'observed'"),
        (lambda status: status[:2], "row_status[2] is None, but p makes it 'unobserved'"),
        (lambda status: status + ["unobserved"],
         "row_status[3] is 'unobserved', but p makes it None"),
        (lambda status: status[:1] + ["guessed"] + status[2:],
         "row_status[1] is 'guessed', but p makes it 'observed'"),
    ], ids=["zero-row-observed", "nonzero-row-unobserved", "short", "long", "unknown-word"])
    def test_a_row_status_that_p_does_not_give_exits_1(self, tmp_path, capsys, edit, message):
        """row_status must mark exactly the all-zero rows of p unobserved."""
        counts = ChainCounts(StateSpace(LOCATIONS3), [[12, 9, 11], [5, 5, 0], [0, 0, 0]], 1)
        data = json.loads(dumps_matrix(estimate_first_order(counts)))
        assert data["row_status"] == ["observed", "observed", "unobserved"]
        data["row_status"] = edit(data["row_status"])
        text = json.dumps(data)
        with pytest.raises(MarkovError) as err:
            loads_matrix(text)
        assert str(err.value) == f"matrix file: {message}"
        m = tmp_path / "m.json"
        m.write_text(text, encoding="utf-8")
        assert main(["predict", "--matrix", str(m), "--state", "location1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: matrix file: {message}\n"

    def test_prev_with_first_order_exits_1(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["predict", "--matrix", str(m), "--state", "location1",
                     "--prev", "location2"]) == 1
        assert "--prev" in capsys.readouterr().err

    def test_second_order_needs_prev(self, tmp_path, capsys):
        pc = count_pair_transitions(["a", "b", "a", "b"])
        m2 = tmp_path / "m2.json"
        m2.write_text(dumps_matrix(estimate_second_order(pc)), encoding="utf-8")
        assert main(["predict", "--matrix", str(m2), "--state", "a"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: second-order matrices need --prev\n")
        assert main(["predict", "--matrix", str(m2), "--state", "a",
                     "--prev", "b", "--steps", "3"]) == 1
        assert main(["predict", "--matrix", str(m2), "--state", "b",
                     "--prev", "a"]) == 0
        assert capsys.readouterr().out.splitlines() == ["a 1.000", "b 0.000"]

    def test_unknown_state_exits_1(self, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json")
        assert main(["predict", "--matrix", str(m), "--state", "location9"]) == 1
        assert capsys.readouterr().out == ""


class TestWriteback:
    def test_verbose_lines_count_what_was_done(self, graph_file, tmp_path, capsys):
        m, out = tmp_path / "m.json", tmp_path / "wb.nt"
        assert main(["--verbose", "estimate", "--graph", str(graph_file), "--out", str(m)]) == 0
        assert main(["--verbose", "writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location1", "--day", "3", "--model", "profile",
                     "--out", str(out)]) == 0
        added = (len(parse_ntriples(out.read_text(encoding="utf-8")))
                 - len(parse_ntriples(graph_file.read_text(encoding="utf-8"))))
        assert capsys.readouterr().err == (
            "INFO kgmarkov.cli: estimated an order-1 chain over 2 states from 3 observations\n"
            f"INFO kgmarkov.cli: added {added} triples, wrote {out}\n")

    def test_profile_model_grows_the_graph(self, graph_file, tmp_path, vocab):
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location3", "--day", "3", "--model", "profile",
                     "--out", str(out)]) == 0
        graph = parse_ntriples(out.read_text(encoding="utf-8"))
        assert len(graph) > 46
        assert graph.match(None, vocab.type, vocab.PatternOfLife)
        # the input graph file itself is untouched
        assert len(parse_ntriples(graph_file.read_text(encoding="utf-8"))) == 46

    def test_cco_model_flags_a_future_part(self, graph_file, tmp_path, vocab):
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location3", "--day", "3", "--model", "cco",
                     "--out", str(out)]) == 0
        graph = parse_ntriples(out.read_text(encoding="utf-8"))
        assert graph.match(None, vocab.predicted, None)

    def test_matrix_without_counts_exits_1(self, graph_file, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json", with_counts=False)
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location3", "--day", "3", "--model", "profile",
                     "--out", str(out)]) == 1
        assert "counts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["profile", "cco"])
    def test_negative_day_exits_1_with_one_error_line(self, graph_file, tmp_path,
                                                      capsys, model):
        """The profile model used to accept --day -3 and exit 0."""
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location3", "--day", "-3", "--model", model,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: day_index must be non-negative\n"
        assert not out.exists()

    def test_second_order_matrix_exits_1(self, graph_file, tmp_path, capsys):
        pc = count_pair_transitions(["location1", "location3", "location1", "location3"])
        m2 = tmp_path / "m2.json"
        m2.write_text(dumps_matrix(estimate_second_order(pc), pc), encoding="utf-8")
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m2),
                     "--state", "location3", "--day", "3", "--model", "profile",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: writeback consumes first-order matrices only\n"
        assert not out.exists()

    def test_counts_that_disagree_with_p_exit_1(self, graph_file, tmp_path, capsys):
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        data = json.loads(m.read_text(encoding="utf-8"))
        data["counts"][0] = [0, 9, 0]
        m.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "wb.nt"
        assert main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
                     "--state", "location1", "--day", "3", "--model", "profile",
                     "--out", str(out)]) == 1
        assert "row 0 of p disagrees with its counts" in capsys.readouterr().err
        assert not out.exists()
        assert main(["predict", "--matrix", str(m), "--state", "location1"]) == 1
        assert capsys.readouterr().out == ""


class TestExportDot:
    def test_day_fragment(self, graph_file, tmp_path):
        out = tmp_path / "day.dot"
        assert main(["export-dot", "--graph", str(graph_file), "--day", "1",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith('digraph "day1" {')
        assert "fishingTripPart_d1" in text

    def test_writeback_fragment(self, graph_file, tmp_path):
        m = write_example_matrix(tmp_path / "m.json", with_counts=True)
        wb = tmp_path / "wb.nt"
        main(["writeback", "--graph", str(graph_file), "--matrix", str(m),
              "--state", "location3", "--day", "3", "--model", "profile",
              "--out", str(wb)])
        out = tmp_path / "wb.dot"
        assert main(["export-dot", "--graph", str(wb), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith('digraph "writeback" {')
        assert "markovPMICE" in text

    def test_without_writeback_exits_1(self, graph_file, tmp_path):
        out = tmp_path / "wb.dot"
        assert main(["export-dot", "--graph", str(graph_file),
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert main(["gen-data", "--days", "3", "--frobnicate",
                     "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()


class TestPipelineDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        def run(tag):
            csv = tmp_path / f"{tag}.csv"
            nt = tmp_path / f"{tag}.nt"
            mj = tmp_path / f"{tag}.json"
            wb = tmp_path / f"{tag}_wb.nt"
            assert main(["gen-data", "--days", "40", "--seed",
                         str(DEFAULT_SEED), "--out", str(csv)]) == 0
            assert main(["ingest", "--csv", str(csv), "--out", str(nt)]) == 0
            assert main(["estimate", "--graph", str(nt), "--out", str(mj)]) == 0
            assert main(["writeback", "--graph", str(nt), "--matrix", str(mj),
                         "--state", "location1", "--day", "40",
                         "--model", "profile", "--out", str(wb)]) == 0
            return (csv.read_bytes(), nt.read_bytes(),
                    mj.read_bytes(), wb.read_bytes())

        assert run("first") == run("second")


class _FailsPartway:
    """A text file whose first write stores half its text, then fails."""

    def __init__(self, f):
        self._f = f

    def write(self, text):
        self._f.write(text[: len(text) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def failing_writes(monkeypatch):
    """Make every file opened for writing fail partway through its first write."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _FailsPartway(f) if set(mode) & set("wxa") else f

    def install():
        monkeypatch.setattr(io, "open", open_)
        monkeypatch.setattr(builtins, "open", open_)

    return install


def _writing_commands(tmp_path, graph_file):
    """Each writing subcommand's arguments, minus --out, with inputs in place."""
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(THREE_DAY_CSV, encoding="utf-8")
    m = write_example_matrix(tmp_path / "m.json", with_counts=True)
    return {
        "gen-data": ["gen-data", "--days", "50"],
        "ingest": ["ingest", "--csv", str(csv_path)],
        "estimate": ["estimate", "--graph", str(graph_file)],
        "writeback": ["writeback", "--graph", str(graph_file), "--matrix", str(m),
                      "--state", "location3", "--day", "3", "--model", "profile"],
        "export-dot": ["export-dot", "--graph", str(graph_file), "--day", "1"],
    }


def _reading_commands(tmp_path, graph_file):
    """Each subcommand that reads a file, minus --out, with inputs in place."""
    commands = _writing_commands(tmp_path, graph_file)
    del commands["gen-data"]
    m = tmp_path / "m.json"  # written by _writing_commands
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s bfo:precedes ?o . }", encoding="utf-8")
    return {**commands,
            "query": ["query", "--graph", str(graph_file), "--query", str(query)],
            "power": ["power", "--matrix", str(m), "--steps", "2"],
            "predict": ["predict", "--matrix", str(m), "--state", "location1"]}


class TestInputEncoding:
    @pytest.mark.parametrize("command,flag", [
        ("ingest", "--csv"), ("query", "--graph"), ("query", "--query"),
        ("estimate", "--graph"), ("power", "--matrix"), ("predict", "--matrix"),
        ("writeback", "--graph"), ("writeback", "--matrix"), ("export-dot", "--graph"),
    ])
    def test_a_file_that_is_not_utf8_exits_1_with_one_error_line(
            self, graph_file, tmp_path, capsys, command, flag):
        args = _reading_commands(tmp_path, graph_file)[command]
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"caf\xe9 \xff\n")
        args[args.index(flag) + 1] = str(bad)
        out = tmp_path / "result"
        if command not in ("query", "power", "predict"):
            args += ["--out", str(out)]
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(bad) in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


_STARTUP_CHILD = """
import contextlib, io, json, sys
import kgmarkov.cli

loaded = {"import": (sorted(m for m in sys.modules if m.startswith("kgmarkov.")),
                     "numpy" in sys.modules)}
d = sys.argv[1]


def run(name, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = kgmarkov.cli.main(list(args))
    loaded[name] = (status, "numpy" in sys.modules)


run("gen-data", "--verbose", "gen-data", "--days", "10", "--out", d + "/obs.csv")
with open(d + "/obs.csv", encoding="utf-8") as f:
    first, second = [line.split(",")[2].strip() for line in f.readlines()[1:3]]
g, m1, m2 = d + "/graph.nt", d + "/m1.json", d + "/m2.json"
run("ingest", "ingest", "--csv", d + "/obs.csv", "--out", g)
run("query", "query", "--graph", g, "--query", "transitions")
run("export-dot", "export-dot", "--graph", g, "--day", "1", "--out", d + "/d.dot")
run("estimate", "estimate", "--graph", g, "--order", "1", "--out", m1)
run("estimate2", "estimate", "--graph", g, "--order", "2", "--out", m2)
for model in ("profile", "cco"):
    run("writeback " + model, "writeback", "--graph", g, "--matrix", m1, "--state", first,
        "--day", "10", "--model", model, "--out", d + "/wb.nt")
run("predict", "predict", "--matrix", m1, "--state", first, "--steps", "1")
run("predict2", "predict", "--matrix", m2, "--prev", first, "--state", second)
run("power", "power", "--matrix", m1, "--steps", "3")
loaded["logging"] = "logging" in sys.modules
print(json.dumps(loaded))
"""


class TestStartup:
    def test_numpy_loads_at_the_first_matrix_and_every_module_at_import(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", _STARTUP_CHILD, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        loaded = json.loads(done.stdout)
        # the modules perfbench/spans.py wraps, which it finds loaded when it installs
        modules, numpy_loaded = loaded.pop("import")
        assert {f"kgmarkov.{m}" for m in ("datagen", "dot", "ingest", "markov", "query", "rdf",
                                          "vocab", "writeback")} <= set(modules)
        assert not numpy_loaded
        # numpy loads only to multiply matrices, and no run, --verbose included, loads logging
        assert loaded == {"gen-data": [0, False], "ingest": [0, False], "query": [0, False],
                          "export-dot": [0, False], "estimate": [0, False],
                          "estimate2": [0, False], "writeback profile": [0, False],
                          "writeback cco": [0, False], "predict": [0, False],
                          "predict2": [0, False], "power": [0, True], "logging": False}


_LIBRARY_CHILD = """
import sys
from kgmarkov import datagen, dot, ingest, markov, query, rdf, vocab, writeback

rows = datagen.generate(datagen.GenConfig(days=20))
graph = ingest.ingest_rows(rows)
labels = [where.local_name() for _, where in ingest.location_sequence(graph)]
counts = markov.count_transitions(labels)
markov.estimate_first_order(counts)
writeback.writeback_profile_model(graph, counts, labels[-1], 20, link_realizations=True)
print("numpy" in sys.modules, "logging" in sys.modules)
"""


class TestLibraryImports:
    def test_the_library_never_loads_logging(self):
        """A process that counts, estimates and writes back, linked, loads neither
        logging nor numpy."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", _LIBRARY_CHILD], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout == "False False\n"


class TestAtomicOutput:
    @pytest.mark.parametrize("command", ["gen-data", "ingest", "estimate", "writeback",
                                         "export-dot"])
    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"])
    def test_a_failed_write_leaves_no_partial_file(self, graph_file, tmp_path,
                                                   failing_writes, command, existing):
        args = _writing_commands(tmp_path, graph_file)[command]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result"
        if existing is not None:
            out.write_bytes(existing)
        failing_writes()
        assert main([*args, "--out", str(out)]) == 2
        if existing is None:
            assert list(out_dir.iterdir()) == []
        else:
            assert list(out_dir.iterdir()) == [out]
            assert out.read_bytes() == existing

    def test_output_gets_the_mode_a_plain_write_gives(self, tmp_path):
        plain, out = tmp_path / "plain.csv", tmp_path / "obs.csv"
        plain.write_text("x", encoding="utf-8")
        assert main(["gen-data", "--days", "3", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "plain.csv"]

    def test_an_existing_output_is_replaced(self, tmp_path):
        out = tmp_path / "obs.csv"
        out.write_text("old contents that are longer than the new ones\n" * 40)
        assert main(["gen-data", "--days", "3", "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4

    @pytest.mark.parametrize("left", ["file", "symlink"])
    def test_a_temporary_file_left_by_a_killed_run_is_replaced(self, tmp_path, left):
        # a container often gives the CLI the same pid on every run, so a
        # killed run's temporary name is the next run's
        ref, out, victim = tmp_path / "ref.csv", tmp_path / "obs.csv", tmp_path / "victim"
        assert main(["gen-data", "--days", "3", "--out", str(ref)]) == 0
        victim.write_text("not to be written through a link\n", encoding="utf-8")
        stale = tmp_path / f".obs.csv.{os.getpid()}.tmp"
        if left == "file":
            stale.write_text("half a file\n", encoding="utf-8")
        else:
            stale.symlink_to(victim)
        assert main(["gen-data", "--days", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()
        assert victim.read_text(encoding="utf-8") == "not to be written through a link\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "ref.csv", "victim"]


# Each mutated run: one input file of the kind named, edited once, in place
# of the base file of that kind; GRAPH and MATRIX are the unedited base files.
_MUTATED_RUNS = {
    "estimate-1": ("graph", ["estimate", "--graph", "IN", "--order", "1", "--out", "OUT"]),
    "estimate-2": ("graph", ["estimate", "--graph", "IN", "--order", "2", "--out", "OUT"]),
    "query-graph": ("graph", ["query", "--graph", "IN", "--query", "transitions"]),
    "export-dot": ("graph", ["export-dot", "--graph", "IN", "--day", "1", "--out", "OUT"]),
    "writeback-profile": ("graph", ["writeback", "--graph", "IN", "--matrix", "MATRIX",
                                    "--state", "location2", "--day", "10", "--model", "profile",
                                    "--out", "OUT"]),
    "writeback-cco": ("graph", ["writeback", "--graph", "IN", "--matrix", "MATRIX",
                                "--state", "location2", "--day", "10", "--model", "cco",
                                "--out", "OUT"]),
    "ingest": ("csv", ["ingest", "--csv", "IN", "--out", "OUT"]),
    "predict": ("matrix", ["predict", "--matrix", "IN", "--state", "location2", "--steps", "2"]),
    "power": ("matrix", ["power", "--matrix", "IN", "--steps", "3"]),
    "writeback-matrix": ("matrix", ["writeback", "--graph", "GRAPH", "--matrix", "IN",
                                    "--state", "location2", "--day", "10", "--model", "profile",
                                    "--out", "OUT"]),
    "query-rq": ("query", ["query", "--graph", "GRAPH", "--query", "IN"]),
}
_EDITS = [f"{unit}-{edit}" for unit in ("byte", "line")
          for edit in ("delete", "duplicate", "flip", "truncate")]


def _edited(data: bytes, edit: str, rng: random.Random) -> bytes:
    """``data`` with one byte or line deleted, duplicated or flipped (a byte
    gets one bit flipped, a line swaps places with the next), or cut off
    from there on."""
    unit, how = edit.split("-")
    parts = data.splitlines(keepends=True) if unit == "line" else [bytes([b]) for b in data]
    i = rng.randrange(len(parts))
    if how == "delete":
        del parts[i]
    elif how == "duplicate":
        parts.insert(i, parts[i])
    elif how == "flip" and unit == "byte":
        parts[i] = bytes([parts[i][0] ^ 1 << rng.randrange(8)])
    elif how == "flip":
        parts[i:i + 2] = parts[i:i + 2][::-1]
    else:
        del parts[i:]
    return b"".join(parts)


@pytest.fixture(scope="module")
def base_inputs(tmp_path_factory):
    """A 10-day CSV, its graph, its order-1 matrix with counts, and the
    transitions query, as files."""
    d = tmp_path_factory.mktemp("base")
    files = {kind: d / name for kind, name in [("csv", "obs.csv"), ("graph", "graph.nt"),
                                                ("matrix", "m.json"), ("query", "q.rq")]}
    assert main(["gen-data", "--days", "10", "--out", str(files["csv"])]) == 0
    assert main(["ingest", "--csv", str(files["csv"]), "--out", str(files["graph"])]) == 0
    assert main(["estimate", "--graph", str(files["graph"]), "--out", str(files["matrix"])]) == 0
    files["query"].write_text(load_bundled_query("transitions"), encoding="utf-8")
    return files


class TestMutatedInputs:
    """A standing guard over every input kind each reading subcommand takes:
    seeded edits of a good file either run or are refused cleanly."""

    @pytest.mark.parametrize("run", list(_MUTATED_RUNS))
    def test_edited_inputs_run_or_exit_1_with_one_error_line(self, base_inputs, tmp_path,
                                                             capsys, run):
        kind, argv = _MUTATED_RUNS[run]
        given, out = tmp_path / "input", tmp_path / "out"
        paths = {"IN": given, "OUT": out, "GRAPH": base_inputs["graph"],
                 "MATRIX": base_inputs["matrix"]}
        args = [str(paths.get(a, a)) for a in argv]
        rng = random.Random(run)
        data = base_inputs[kind].read_bytes()
        cases = [("unedited", data)] + [(f"{edit} #{n}", _edited(data, edit, rng))
                                        for edit in _EDITS for n in range(8)]
        for case, text in cases:
            given.write_bytes(text)
            out.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                status = main(args)
            except Exception as exc:  # any escape is the failure
                pytest.fail(f"{case}: {exc!r} escaped")
            captured = capsys.readouterr()
            assert status in (0, 1, 2), case
            if case == "unedited":
                assert status == 0, captured.err
            if status == 1:
                assert captured.out == "", case
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (case, captured.err)
            if status != 0:
                assert not out.exists(), case
