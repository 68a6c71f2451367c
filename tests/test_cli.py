"""Command line behaviour: exit codes, JSON output, dumps, batch summary."""

import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import planecolor
from planecolor import cli, discharging, errors, reducer
from planecolor.cli import EXIT_FALSIFIED, EXIT_INPUT, EXIT_OK, _build_parser, run
from planecolor.generators import named
from planecolor.plane_graph import PlaneGraph
from strategies import rotation_systems


def break_unwinding(monkeypatch) -> None:
    """Give every deleted vertex color 1, so the coloring ``color16``
    unwinds fails its check."""
    monkeypatch.setattr(reducer, "_least_free", lambda colors, ball, dv: 1)


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, rows


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.rot"
    path.write_text(named("cube").to_rotation_text())
    return str(path)


class TestValidate:
    def test_reports_shape(self, capsys, cube_file):
        code, rows = run_lines(capsys, ["validate", "--in", cube_file])
        assert code == EXIT_OK
        assert rows[0]["n"] == 8
        assert rows[0]["m"] == 12
        assert rows[0]["faces"] == 6
        assert rows[0]["plane"] is True

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(named("k4").to_rotation_text())
        )
        code, rows = run_lines(capsys, ["validate", "--in", "-"])
        assert code == EXIT_OK
        assert rows[0]["n"] == 4

    def test_good_coloring_passes(self, capsys, tmp_path, cube_file):
        colors = tmp_path / "colors.json"
        # cube d2-pairs split into 4 antipodal classes
        colors.write_text(json.dumps({
            "palette": 16,
            "colors": {"0": 1, "6": 1, "1": 2, "7": 2,
                       "2": 3, "4": 3, "3": 4, "5": 4},
        }))
        code, rows = run_lines(
            capsys, ["validate", "--in", cube_file, "--colors", str(colors)]
        )
        assert code == EXIT_OK
        assert rows[0]["coloring"]["valid"] is True

    def test_bad_coloring_dumps_and_exits_3(self, capsys, tmp_path, cube_file):
        colors = tmp_path / "colors.json"
        colors.write_text(json.dumps({
            "palette": 16,
            "colors": {"0": 1, "1": 1},
        }))
        dump = tmp_path / "dumps"
        code, rows = run_lines(
            capsys,
            ["validate", "--in", cube_file, "--colors", str(colors),
             "--dump", str(dump)],
        )
        assert code == EXIT_FALSIFIED
        assert rows[0]["coloring"]["valid"] is False
        assert list(dump.glob("*.rot"))

    def test_ids_outside_graph_dump_and_exit_3(self, capsys, tmp_path, cube_file):
        colors = tmp_path / "colors.json"
        colors.write_text(json.dumps({
            "palette": 16,
            "colors": {"0": 1, "6": 1, "1": 2, "7": 2,
                       "2": 3, "4": 3, "3": 4, "5": 4, "8": 1, "99": 1},
        }))
        dump = tmp_path / "dumps"
        code, rows = run_lines(
            capsys,
            ["validate", "--in", cube_file, "--colors", str(colors),
             "--dump", str(dump)],
        )
        assert code == EXIT_FALSIFIED
        assert rows[0]["coloring"]["valid"] is False
        assert rows[0]["coloring"]["not_in_graph"] == [8, 99]
        assert list(dump.glob("*.rot"))

    def test_garbage_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rot"
        bad.write_text("not a graph\n")
        code, _ = run_lines(capsys, ["validate", "--in", str(bad)])
        assert code == EXIT_INPUT

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run_lines(
            capsys, ["validate", "--in", str(tmp_path / "nope.rot")]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "doc",
        [
            {"palette": 16, "colors": [1, 2]},
            {"palette": 16, "colors": {"0": 1.7, "1": 2}},
            {"palette": 16, "colors": {"0": "1"}},
            {"palette": 16, "colors": {"0": True}},
            {"palette": 16, "colors": {"0": None}},
            {"palette": "16", "colors": {"0": 1}},
            {"palette": 16, "colors": {" 0": 1}},
            {"palette": 16, "colors": {"00": 1}},
            {"palette": 16, "colors": {"0": 1, "-1": 2}},
            {"palette": 16},
            [16],
            5,
        ],
    )
    def test_malformed_coloring_exits_2(self, capsys, caplog, tmp_path, cube_file, doc):
        colors = tmp_path / "colors.json"
        colors.write_text(json.dumps(doc))
        caplog.clear()
        code, rows = run_lines(
            capsys, ["validate", "--in", cube_file, "--colors", str(colors)]
        )
        assert (code, rows) == (EXIT_INPUT, [])
        assert [r.args[0] for r in caplog.records] == ["ParseError"]


class TestColor:
    def test_colors_named_graph(self, capsys, cube_file):
        code, rows = run_lines(capsys, ["color", "--in", cube_file])
        assert code == EXIT_OK
        assert rows[0]["valid"] is True
        assert rows[0]["palette"] == 16
        assert 1 <= rows[0]["colors_used"] <= 16

    def test_trace_flag(self, capsys, tmp_path):
        path = tmp_path / "g.rot"
        path.write_text(named("icosahedron").to_rotation_text())
        code, rows = run_lines(
            capsys, ["color", "--in", str(path), "--trace"]
        )
        assert code == EXIT_OK
        assert rows[0]["steps"] == len(rows[0]["trace"])

    def test_failed_check_dumps_and_exits_3(self, capsys, caplog, tmp_path, monkeypatch):
        path = tmp_path / "g.rot"
        path.write_text(named("dodecahedron").to_rotation_text())
        dump = tmp_path / "dumps"
        break_unwinding(monkeypatch)
        caplog.clear()
        code, rows = run_lines(
            capsys, ["color", "--in", str(path), "--dump", str(dump)]
        )
        assert (code, rows) == (EXIT_FALSIFIED, [])
        assert "constructed coloring is invalid" in caplog.text
        assert len(list(dump.glob("*.rot"))) == 1


class TestChi2:
    def test_c5(self, capsys, tmp_path):
        path = tmp_path / "c5.rot"
        path.write_text(named("c5").to_rotation_text())
        code, rows = run_lines(capsys, ["chi2", "--in", str(path)])
        assert code == EXIT_OK
        assert rows[0]["chi2"] == 5

    def test_budget_can_force_unknown(self, capsys, tmp_path):
        path = tmp_path / "g.rot"
        path.write_text(named("dodecahedron").to_rotation_text())
        code, rows = run_lines(
            capsys, ["chi2", "--in", str(path), "--budget", "1"]
        )
        assert code == EXIT_OK
        assert rows[0]["chi2"] == "unknown"


class TestDetect:
    def test_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.rot"
        path.write_text(named("k4").to_rotation_text())
        code, rows = run_lines(capsys, ["detect", "--in", str(path)])
        assert code == EXIT_OK
        assert rows[0]["configuration"]["rule"] == "R-3in3f"

    def test_k1_has_no_configuration(self, capsys, tmp_path):
        path = tmp_path / "k1.rot"
        path.write_text(named("k1").to_rotation_text())
        code, rows = run_lines(capsys, ["detect", "--in", str(path)])
        assert code == EXIT_OK
        assert rows[0]["configuration"] is None


class TestDischarge:
    def test_cube_audit(self, capsys, cube_file):
        code, rows = run_lines(capsys, ["discharge", "--in", cube_file])
        assert code == EXIT_OK
        assert rows[0]["conservation"] == "-8"
        assert rows[0]["falsification"] is False

    def test_transfer_list(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "ico.rot"
        path.write_text(named("icosahedron").to_rotation_text())
        passes = []
        transfer_pass = discharging._transfer_pass

        def counted(g, *moves):
            passes.append(g)
            return transfer_pass(g, *moves)

        monkeypatch.setattr(discharging, "_transfer_pass", counted)
        code, rows = run_lines(
            capsys, ["discharge", "--in", str(path), "--transfers"]
        )
        assert code == EXIT_OK
        assert len(rows[0]["transfer_list"]) == 60
        assert len(passes) == 1
        # the list is what apply_rules records, and the audit is unchanged
        g = named("icosahedron")
        want = discharging.audit(g)
        want["transfer_list"] = [r.to_json() for r in discharging.apply_rules(g)[1]]
        assert rows[0] == json.loads(json.dumps(want))


class TestGen:
    def test_named_to_file(self, capsys, tmp_path):
        out = tmp_path / "c6.rot"
        code = run(["gen", "--name", "c6", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == named("c6").to_rotation_text()

    def test_random_roundtrip_through_color(self, capsys, tmp_path):
        out = tmp_path / "r.rot"
        assert run(["gen", "--n", "60", "--seed", "5", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        code, rows = run_lines(capsys, ["color", "--in", str(out)])
        assert code == EXIT_OK
        assert rows[0]["valid"] is True

    def test_impossible_size_exits_at_once(self, capsys):
        assert run(["gen", "--n", "1000000000"]) == EXIT_INPUT

    def test_gen_is_deterministic(self, capsys):
        run(["gen", "--n", "30", "--seed", "9"])
        first = capsys.readouterr().out
        run(["gen", "--n", "30", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestBatch:
    def test_summary_line(self, capsys):
        code, rows = run_lines(
            capsys, ["batch", "--count", "3", "--n", "40", "--seed", "11"]
        )
        assert code == EXIT_OK
        body, summary = rows[:-1], rows[-1]
        assert summary["summary"] is True
        assert summary["graphs"] == 3
        assert summary["failures"] == 0
        assert summary["max_colors_used"] <= 16
        assert len(body) == 3
        assert all(row["ok"] for row in body)

    def test_corpus_included(self, capsys):
        code, rows = run_lines(
            capsys, ["batch", "--count", "0", "--corpus"]
        )
        assert code == EXIT_OK
        assert rows[-1]["graphs"] == 15

    def test_failed_check_dumps_and_exits_3(self, capsys, tmp_path, monkeypatch):
        dump = tmp_path / "dumps"
        break_unwinding(monkeypatch)
        code, rows = run_lines(
            capsys, ["batch", "--count", "1", "--n", "40", "--dump", str(dump)]
        )
        assert code == EXIT_FALSIFIED
        assert rows[0]["valid"] is False and rows[0]["ok"] is False
        assert "constructed coloring is invalid" in rows[0]["error"]
        assert rows[-1]["failures"] == 1
        assert len(list(dump.glob("*.rot"))) == 1

    def test_rows_pinned(self, capsys):
        # sha256 of the whole output, written when batch still built
        # every graph before coloring the first
        code = run(["batch", "--n", "60", "--count", "20", "--corpus"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "87277db8e4bf00780c6c4d898c35c9ee58d9c53344a004425bfd1f49f8f445f7"
        )

    def test_graphs_made_one_at_a_time(self, capsys, caplog, monkeypatch):
        made = []

        def fake_random_plane(n, seed):
            if seed == 2:
                raise errors.GenerationFailed(f"no admissible graph for seed={seed}")
            made.append(seed)
            return named("cube")

        monkeypatch.setattr(cli, "random_plane", fake_random_plane)
        caplog.clear()
        code, rows = run_lines(capsys, ["batch", "--count", "4", "--n", "8"])
        # the rows before the failing graph are out, nothing after it
        assert code == EXIT_INPUT
        assert [r["seed"] for r in rows] == [0, 1]
        assert made == [0, 1]
        assert [r.args[0] for r in caplog.records] == ["GenerationFailed"]


class TestTextFormat:
    def test_key_value_lines(self, capsys, cube_file):
        code = run(["validate", "--in", cube_file, "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "n=8" in out
        assert "m=12" in out


# the fixtures are reset by hand in each example
HOSTILE_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_ok_or_typed_error(code, rows, caplog) -> None:
    """Exit 0 with valid rows, or exit 2 with one engine error logged."""
    failed = [r for r in caplog.records if r.levelno >= logging.ERROR]
    if code == EXIT_OK:
        assert rows and all(row.get("valid", True) for row in rows)
        assert failed == []
        return
    assert code == EXIT_INPUT
    assert [r.msg for r in failed] == ["%s: %s"]
    assert issubclass(getattr(errors, failed[0].args[0]), errors.EngineError)


class TestHostileInput:
    """Rotation systems that are plane, not plane or malformed, fed
    through the front door in process."""

    @HOSTILE_SETTINGS
    @given(rows=rotation_systems(), as_json=st.booleans())
    def test_color(self, rows, as_json, tmp_path, capsys, caplog):
        n, m = len(rows), sum(map(len, rows)) // 2
        path = tmp_path / "g.txt"
        if as_json:
            path.write_text(json.dumps({"n": n, "m": m, "rotations": rows}))
        else:
            path.write_text(f"{n} {m}\n" + "".join(
                f"{v}: {' '.join(map(str, row))}\n" for v, row in enumerate(rows)
            ))
        caplog.clear()
        code, rows_out = run_lines(capsys, ["color", "--in", str(path)])
        assert_ok_or_typed_error(code, rows_out, caplog)

    @HOSTILE_SETTINGS
    @given(rows=rotation_systems())
    def test_batch(self, rows, tmp_path, capsys, caplog, monkeypatch):
        # batch reads no file: its graphs come from the generator
        monkeypatch.setattr(cli, "random_plane", lambda n, seed: PlaneGraph(rows))
        caplog.clear()
        code, rows_out = run_lines(
            capsys, ["batch", "--count", "1", "--dump", str(tmp_path / "d")]
        )
        assert_ok_or_typed_error(code, rows_out, caplog)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "m": 3, "rotations": ["12", "20", "01"]},
            {"n": 2, "m": 1, "rotations": [[1.9], [0.2]]},
            {"n": 2, "m": 1, "rotations": [[True], [False]]},
            {"n": 1, "m": 0, "rotations": [None]},
            {"n": 1, "m": 0, "rotations": 5},
            {"n": 2, "m": 1, "rotations": [[{}], [0]]},
        ],
    )
    def test_malformed_json_graph_exits_2(self, doc, tmp_path, capsys, caplog):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        caplog.clear()
        code, rows = run_lines(capsys, ["validate", "--in", str(path)])
        assert (code, rows) == (EXIT_INPUT, [])
        assert [r.args[0] for r in caplog.records] == ["ParseError"]


# every flag each subcommand takes, with a value to parse (None for a switch)
FLAGS = {
    "validate": {"--in": "g.rot", "--format": "text", "--dump": "d",
                 "--colors": "c.json"},
    "color": {"--in": "g.rot", "--format": "text", "--dump": "d",
              "--budget": "5", "--trace": None},
    "chi2": {"--in": "g.rot", "--format": "text", "--budget": "5"},
    "detect": {"--in": "g.rot", "--format": "text"},
    "discharge": {"--in": "g.rot", "--format": "text", "--dump": "d",
                  "--transfers": None},
    "gen": {"--name": "k4", "--n": "10", "--seed": "3", "--out": "g.rot"},
    "batch": {"--format": "text", "--dump": "d", "--budget": "5",
              "--count": "2", "--n": "10", "--seed": "3", "--corpus": None},
}
# flags a subcommand used to accept without reading them
UNREAD = [
    ("validate", "--budget", "5"),
    ("chi2", "--dump", "d"),
    ("detect", "--dump", "d"),
    ("detect", "--budget", "5"),
    ("discharge", "--budget", "5"),
    ("gen", "--format", "text"),
    ("gen", "--dump", "d"),
    ("gen", "--budget", "5"),
]


@pytest.mark.parametrize(
    "command,flag,value",
    [(c, f, v) for c, flags in FLAGS.items() for f, v in flags.items()]
    + [pytest.param(*case, id="unread-" + "-".join(case[:2])) for case in UNREAD],
)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flag, value):
    argv = [command, flag] + ([value] if value is not None else [])
    if (command, flag, value) in UNREAD:
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments" in capsys.readouterr().err
    else:
        _build_parser().parse_args(argv)


def test_console_script_runs():
    # the child imports the package from where this process found it
    src = str(Path(planecolor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "planecolor.cli", "gen", "--name", "k4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == named("k4").to_rotation_text()
