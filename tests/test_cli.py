import json
import math
import xml.etree.ElementTree as ET

import pytest

from hilbert_geometry.cli import main

SQUARE_DOC = {
    "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "points": [[0.25, 0.5], [0.75, 0.5]],
    "metric": "hilbert",
}


@pytest.fixture
def square_doc(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(SQUARE_DOC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistanceCommand:
    def test_hilbert_fixture(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys, "distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "0.75,0.5"
        )
        assert code == 0
        assert out == "0.549306144334\n"

    def test_coincident_points(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys, "distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "0.5,0.5"
        )
        assert code == 0
        assert out == "0.000000000000\n"

    def test_metric_override(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys,
            "distance", "--input", square_doc, "--metric", "funk",
            "--p", "0.5,0.5", "--q", "0.75,0.5",
        )
        assert code == 0
        assert float(out) == pytest.approx(math.log(2), abs=1e-12)

    def test_exterior_point_exits_3(self, square_doc, capsys):
        code, _, err = run_cli(
            capsys, "distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "2,2"
        )
        assert code == 3
        assert err.startswith("error: geometry: ")
        assert "not interior" in err

    def test_malformed_point_exits_2(self, square_doc, capsys):
        code, _, err = run_cli(
            capsys, "distance", "--input", square_doc, "--p", "0.5", "--q", "2,2"
        )
        assert code == 2
        assert err.startswith("error: parse: ")


class TestDocumentErrors:
    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            capsys, "distance", "--input", str(path), "--p", "0.5,0.5", "--q", "0.6,0.5"
        )
        assert code == 2
        assert err.startswith("error: parse: ")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "distance", "--input", "/nonexistent.json", "--p", "0,0", "--q", "1,1"
        )
        assert code == 2

    def test_missing_metric_named_in_error(self, tmp_path, capsys):
        path = tmp_path / "nometric.json"
        path.write_text(json.dumps({"polygon": SQUARE_DOC["polygon"], "points": [[0.5, 0.5]]}))
        code, _, err = run_cli(
            capsys, "meb", "--input", str(path)
        )
        assert code == 2
        assert "metric" in err

    def test_bad_polygon_field_named(self, tmp_path, capsys):
        path = tmp_path / "badpoly.json"
        path.write_text(json.dumps({"polygon": [[0, 0], [1, "x"], [1, 1]], "points": [[0.5, 0.5]], "metric": "hilbert"}))
        code, _, err = run_cli(capsys, "meb", "--input", str(path))
        assert code == 2
        assert "polygon[1]" in err

    def test_nonconvex_polygon_exits_3(self, tmp_path, capsys):
        doc = {
            "polygon": [[0, 0], [1, 1], [1, 0], [0, 1]],
            "points": [[0.5, 0.25]],
            "metric": "hilbert",
        }
        path = tmp_path / "hourglass.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "meb", "--input", str(path))
        assert code == 3
        assert err.startswith("error: geometry: ")


class TestBallCommand:
    def test_funk_homothety(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys,
            "ball", "--input", square_doc, "--metric", "funk",
            "--p", "0.5,0.5", "--radius", str(math.log(2)),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == "funk"
        assert sorted(map(tuple, doc["ball"])) == [
            (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75),
        ]

    def test_zero_radius_ball_is_center(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--input", square_doc, "--p", "0.5,0.5", "--radius", "0"
        )
        assert code == 0
        assert json.loads(out)["ball"] == [[0.5, 0.5]]

    def test_tiny_reverse_funk_ball_is_center(self, square_doc, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--input", square_doc, "--p=0.3,0.6", "--radius", "1e-17",
            "--metric", "reverse_funk",
        )
        assert code == 0
        assert json.loads(out)["ball"] == [[0.3, 0.6]]

    def test_svg_output(self, square_doc, tmp_path, capsys):
        svg_path = tmp_path / "ball.svg"
        code, _, _ = run_cli(
            capsys,
            "ball", "--input", square_doc, "--p", "0.5,0.5", "--radius", "0.4",
            "--svg", str(svg_path),
        )
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        # One path for the domain outline, one for the (hilbert) ball.
        assert len(paths) == 2
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) == 4  # one spoke per square vertex


class TestMebCommand:
    def test_lp_type_fixture(self, square_doc, capsys):
        code, out, _ = run_cli(capsys, "meb", "--input", square_doc, "--solver", "lp_type")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"] == "lp_type"
        assert doc["radius"] == pytest.approx(math.log(3) / 2, abs=1e-9)
        assert doc["basis"] == [0, 1]
        assert doc["stats"]["violation_tests"] >= 1

    def test_translated_document(self, tmp_path, capsys):
        # The unit square and three points moved by (100, 100): the solver
        # used to find no covering support there and exit 3.
        t = 100.0
        shift = lambda pts: [[x + t, y + t] for x, y in pts]  # noqa: E731
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "polygon": shift(SQUARE_DOC["polygon"]),
            "points": shift(SQUARE_DOC["points"] + [[0.5, 0.9]]),
            "metric": "hilbert",
        }))
        code, out, _ = run_cli(capsys, "meb", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == [0, 1, 2]
        assert doc["center"] == pytest.approx([0.5 + t, 0.717624304 + t], abs=1e-9)

    def test_single_point(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"polygon": SQUARE_DOC["polygon"], "points": [[0.5, 0.5]], "metric": "hilbert"})
        )
        code, out, _ = run_cli(capsys, "meb", "--input", str(path))
        doc = json.loads(out)
        assert doc["radius"] == 0
        assert doc["center"] == [0.5, 0.5]
        assert doc["basis"] == [0]

    def test_bisection_matches_lp(self, square_doc, capsys):
        _, out_lp, _ = run_cli(capsys, "meb", "--input", square_doc, "--solver", "lp_type")
        _, out_bi, _ = run_cli(capsys, "meb", "--input", square_doc, "--solver", "bisection")
        lp, bi = json.loads(out_lp), json.loads(out_bi)
        assert bi["solver"] == "bisection"
        assert bi["basis"] == []
        assert abs(lp["radius"] - bi["radius"]) <= 1e-6

    def test_lp_type_for_weak_metrics(self, square_doc, capsys):
        for metric in ("funk", "reverse_funk", "thompson"):
            docs = []
            for solver in ("lp_type", "bisection"):
                code, out, _ = run_cli(
                    capsys, "meb", "--input", square_doc, "--metric", metric, "--solver", solver
                )
                assert code == 0, (metric, solver)
                docs.append(json.loads(out))
            lp, bi = docs
            assert lp["solver"] == "lp_type" and lp["basis"], metric
            assert abs(lp["radius"] - bi["radius"]) <= 1e-6, metric

    def test_unknown_solver_exits_4(self, square_doc, capsys):
        code, _, err = run_cli(
            capsys, "meb", "--input", square_doc, "--solver", "magic"
        )
        assert code == 4

    def test_byte_identical_reruns(self, square_doc, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "meb", "--input", square_doc, "--solver", "lp_type", "--seed", "7"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_result_document_roundtrip(self, square_doc, capsys):
        _, out, _ = run_cli(capsys, "meb", "--input", square_doc)
        doc = json.loads(out)
        assert set(doc) == {"radius", "center", "basis", "ball", "solver", "stats"}
        assert doc["radius"] >= 0
        assert set(doc["stats"]) == {
            "violation_tests", "basis_computations", "bisection_iterations",
        }
        # Ball vertices re-parse into a convex polygon covering all points.
        from hilbert_geometry import MetricKind, distance, normalize_polygon

        ball_poly = normalize_polygon(doc["ball"])
        omega = normalize_polygon(SQUARE_DOC["polygon"])
        for pt in SQUARE_DOC["points"]:
            d = distance(omega, MetricKind.HILBERT, tuple(doc["center"]), tuple(pt))
            assert d <= doc["radius"] + 1e-6
        assert len(ball_poly) >= 4


class TestProcessInvocation:
    def test_module_entry_point(self, square_doc):
        import subprocess
        import sys

        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hilbert_geometry", "meb", "--input", square_doc],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert runs[0] == runs[1]  # byte-identical across processes
        assert json.loads(runs[0])["radius"] == pytest.approx(math.log(3) / 2, abs=1e-9)


class TestUsageErrors:
    def test_missing_subcommand_exits_4(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 4

    def test_removed_bench_command_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--sizes", "20")
        assert (code, out) == (4, "")
        assert err.startswith("error: usage: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--p", "0.5,0.5", "--q", "0.75,0.5", "--seed", "1"],
            ["ball", "--p", "0.5,0.5", "--radius", "0.5", "--tolerance", "1e-9"],
        ],
        ids=["distance-seed", "ball-tolerance"],
    )
    def test_meb_only_options_exit_4(self, square_doc, capsys, argv):
        # --seed and --tolerance steer the MEB solvers and nothing else.
        code, out, err = run_cli(capsys, argv[0], "--input", square_doc, *argv[1:])
        assert (code, out) == (4, "")
        assert err.startswith("error: usage: ")


class TestNonFiniteInput:
    """Non-finite numbers are parse errors (2); a bad radius is usage (4)."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["meb", "--solver", "bisection", "--tolerance", "inf"], 2),
            (["meb", "--solver", "bisection", "--tolerance", "nan"], 2),
            (["ball", "--p", "nan,0.5", "--radius", "0.5", "--metric", "funk"], 2),
            (["distance", "--p", "0.5,0.5", "--q", "0.5,inf"], 2),
            (["ball", "--p", "0.5,0.5", "--radius", "nan"], 4),
            (["ball", "--p", "0.5,0.5", "--radius", "inf"], 4),
        ],
    )
    def test_flag_values(self, square_doc, capsys, argv, code):
        got, out, err = run_cli(capsys, argv[0], "--input", square_doc, *argv[1:])
        assert got == code
        assert out == ""
        assert err.startswith("error: parse: " if code == 2 else "error: usage: ")

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("tolerance", math.inf, "Infinity"),
            ("tolerance", math.nan, "NaN"),
            ("tolerance", 0, "tolerance"),
            ("polygon", [[0, 0], [1, 0], [1, -math.inf], [0, 1]], "-Infinity"),
            ("points", [[0.25, 0.5], [math.nan, 0.5]], "NaN"),
            pytest.param(
                "polygon", [[0, 0], [1, 0], [10**400, 1], [0, 1]], "polygon[2]",
                id="polygon-huge-int",
            ),
            pytest.param(
                "points", [[0.25, 0.5], [0.75, 10**400]], "points[1]", id="points-huge-int"
            ),
            pytest.param("tolerance", 10**400, "tolerance", id="tolerance-huge-int"),
            # bool is an int: true would otherwise be read as tolerance 1.0.
            pytest.param("tolerance", True, "tolerance", id="tolerance-bool"),
        ],
    )
    def test_document_values(self, tmp_path, capsys, field, value, detail):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(SQUARE_DOC, **{field: value})))
        code, out, err = run_cli(capsys, "meb", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: parse: ") and detail in err

    def test_overflowing_literal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SQUARE_DOC).replace("0.75", "1e400"))
        code, out, err = run_cli(capsys, "meb", "--input", str(path))
        assert code == 2
        assert err.startswith("error: parse: ") and "1e400" in err

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SQUARE_DOC)[:-1] + ', "seed": 1' + "0" * 5000 + "}")
        code, out, err = run_cli(capsys, "meb", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: parse: ") and "not valid JSON" in err

    def test_non_utf8_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(SQUARE_DOC).encode()[:-1] + b', "note": "\xff"}')
        code, out, err = run_cli(capsys, "meb", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: parse: ") and "not valid JSON" in err


class TestParserReuse:
    """main builds its parser once per process; parsing must not change it."""

    def test_parser_is_built_once(self):
        from hilbert_geometry.cli import _build_parser

        assert _build_parser() is _build_parser()

    def test_consecutive_calls_with_different_subcommands(self, square_doc, capsys):
        from hilbert_geometry.cli import _build_parser

        calls = [
            ("distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "0.75,0.5"),
            ("meb", "--input", square_doc, "--seed", "3", "--solver", "bisection"),
            ("ball", "--input", square_doc, "--p", "0.5,0.5", "--radius", "0.5"),
            ("meb", "--input", square_doc),
            ("distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "0.75,0.5"),
        ]
        reused = [run_cli(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0] * len(calls)
        assert reused[0][1] == reused[-1][1] == "0.549306144334\n"

    def test_usage_error_between_valid_calls(self, square_doc, capsys):
        ok = ("distance", "--input", square_doc, "--p", "0.5,0.5", "--q", "0.75,0.5")
        before = run_cli(capsys, *ok)
        # meb accepts --seed; afterwards distance must still reject it.
        assert run_cli(capsys, "meb", "--input", square_doc, "--seed", "1")[0] == 0
        code, out, err = run_cli(capsys, *ok, "--seed", "1")
        assert (code, out) == (4, "")
        assert err.startswith("error: usage: ")
        assert run_cli(capsys, *ok) == before == (0, "0.549306144334\n", "")
