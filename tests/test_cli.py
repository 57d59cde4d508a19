import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from linkstream import cli
from linkstream.cli import run

# (stream, --at, exact betweenness) where `betweenness --verify` rejects the
# correct exact value
FALSE_REJECTS = [
    pytest.param("0 10\na b 1 5\n", ("5", "a"), "0", id="one_link"),
    pytest.param("0 10\na b 2 4\na c 8 9\nb c 5 6\n", ("6", "c"), "4",
                 id="three_links"),
]


@pytest.fixture
def sevenths_path(tmp_path):
    """A stream whose times are not finite decimals."""
    path = tmp_path / "sevenths.ls"
    path.write_text("0 1/3\na b 1/7 2/7\nb c 2/7 1/3\n", encoding="utf-8")
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestVolumes:
    def test_golden(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "volumes", "--stream", demo_path,
            "--from", "0", "a", "--to", "32", "e",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == ["8 3", "distance 3"]

    def test_unreachable(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "volumes", "--stream", demo_path,
            "--from", "0", "a", "--to", "8", "e",
        )
        assert code == 0
        assert out.splitlines() == ["0 0", "distance unreachable"]

    def test_verify_passes(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "volumes", "--stream", demo_path,
            "--from", "0", "a", "--to", "18", "e", "--verify",
        )
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "2 2"

    @pytest.mark.parametrize("src, dst", [(("1/4", "a"), ("73/4", "e")),
                                          (("1/3", "a"), ("55/3", "e"))],
                             ids=["quarters", "thirds"])
    def test_verify_between_off_lattice_times(self, capsys, demo_path, src,
                                              dst):
        """The grids refine the query times' denominators too, not only
        those of the demo's integer times."""
        code, out, err = invoke(
            capsys, "volumes", "--stream", demo_path,
            "--from", *src, "--to", *dst, "--verify",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == ["2 2", "distance 3"]

    def test_decimal(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "volumes", "--stream", demo_path,
            "--from", "20", "a", "--to", "32", "e", "--decimal", "2",
        )
        assert code == 0
        assert out.splitlines()[0] == "5.50 4"


class TestLatencies:
    def test_golden(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "latencies", "--stream", demo_path, "--source", "a",
        )
        assert code == 0 and err == ""
        lines = dict(
            line.split(":", 1) for line in out.splitlines()
        )
        assert lines["e"].strip() == "(2,9) (9,16) (16,23) (24,30)"
        assert set(lines) == set("abcde")

    def test_unknown_source(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "latencies", "--stream", demo_path, "--source", "zz",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_decimal(self, capsys, sevenths_path):
        code, out, _ = invoke(
            capsys, "latencies", "--stream", sevenths_path, "--source", "a",
            "--decimal", "3",
        )
        assert code == 0
        assert out.splitlines()[0] == \
            "a: (0.143,0.143) (0.286,0.286) (0.333,0.333)"

    def test_decimal_not_an_int_is_usage_error(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "latencies", "--stream", demo_path, "--source", "a",
            "--decimal", "abc",
        )
        assert code == 2 and out == ""
        assert "invalid int value: 'abc'" in err


class TestContrib:
    def test_golden(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "contrib", "--stream", demo_path,
            "--source", "a", "--dest", "e", "--at", "9/2", "c",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == ["anchor (2,9)", "contribution 63/2"]

    def test_no_anchor(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "contrib", "--stream", demo_path,
            "--source", "a", "--dest", "e", "--at", "10", "b",
        )
        assert code == 0
        assert out.splitlines() == ["anchor none", "contribution 0"]

    def test_decimal(self, capsys, sevenths_path):
        code, out, _ = invoke(
            capsys, "contrib", "--stream", sevenths_path,
            "--source", "a", "--dest", "c", "--at", "2/7", "b",
            "--decimal", "3",
        )
        assert code == 0
        assert out.splitlines() == ["anchor (0.286,0.286)",
                                    "contribution 0.014"]

    def test_unknown_dest(self, capsys, demo_path):
        code, _, err = invoke(
            capsys, "contrib", "--stream", demo_path,
            "--source", "a", "--dest", "zz", "--at", "10", "b",
        )
        assert code == 1 and err.startswith("error:")


class TestBetweenness:
    def test_exact(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "betweenness", "--stream", demo_path, "--at", "9/2", "c",
        )
        assert code == 0
        assert out.strip() == "81/2"

    def test_decimal(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "betweenness", "--stream", demo_path,
            "--at", "9/2", "c", "--decimal", "3",
        )
        assert code == 0
        assert out.strip() == "40.500"

    def test_time_outside_window(self, capsys, demo_path):
        code, _, err = invoke(
            capsys, "betweenness", "--stream", demo_path, "--at", "40", "c",
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("text,at,exact", FALSE_REJECTS)
    def test_false_reject_exact_values(self, capsys, tmp_path, text, at,
                                       exact):
        path = tmp_path / "s.ls"
        path.write_text(text)
        code, out, _ = invoke(
            capsys, "betweenness", "--stream", str(path), "--at", *at,
        )
        assert code == 0 and out.strip() == exact

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: the Richardson estimate at steps 1/8 and "
        "1/16 (0.79 and 4.77) falls outside the verify tolerance of these "
        "correct exact values (0 and 4)",
    )
    @pytest.mark.parametrize("text,at,exact", FALSE_REJECTS)
    def test_verify_accepts_correct_value(self, capsys, tmp_path, text, at,
                                          exact):
        path = tmp_path / "s.ls"
        path.write_text(text)
        code, _, err = invoke(
            capsys, "betweenness", "--stream", str(path), "--at", *at,
            "--verify",
        )
        assert code == 0, err


class TestVerifyRejectsWrongAnswers:
    """A stream on which `--verify` accepts the exact answers, and rejects
    them once the exact pipeline is made to report a wrong one."""

    TEXT = "0 4\na b 1 2\nb c 2 3\n"
    VOLUMES = ("volumes", "--from", "0", "a", "--to", "4", "c", "--verify")
    BETWEENNESS = ("betweenness", "--at", "2", "c", "--verify")

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "path3.ls"
        path.write_text(self.TEXT, encoding="utf-8")
        return str(path)

    def test_volumes(self, capsys, monkeypatch, path):
        code, out, err = invoke(capsys, self.VOLUMES[0], "--stream", path,
                                *self.VOLUMES[1:])
        assert code == 0 and err == ""
        assert out.splitlines() == ["1 2", "distance 2"]
        exact = cli.vsp

        def off_by_one(*args):
            res = exact(*args)
            return res._replace(distance=res.distance + 1)

        monkeypatch.setattr(cli, "vsp", off_by_one)
        code, out, err = invoke(capsys, self.VOLUMES[0], "--stream", path,
                                *self.VOLUMES[1:])
        assert code == 1 and out.splitlines()[1] == "distance 3"
        assert err.startswith("verify: oracle length 2 != distance 3")

    def test_betweenness(self, capsys, monkeypatch, path):
        code, out, err = invoke(capsys, self.BETWEENNESS[0], "--stream", path,
                                *self.BETWEENNESS[1:])
        assert code == 0 and err == "" and out.strip() == "8"
        exact = cli.betweenness
        monkeypatch.setattr(cli, "betweenness", lambda *a: exact(*a) + 1)
        code, out, err = invoke(capsys, self.BETWEENNESS[0], "--stream", path,
                                *self.BETWEENNESS[1:])
        assert code == 1 and out.strip() == "9"
        assert err.startswith("verify: oracle estimate") and "far from 9" in err


class TestVerifyDegenerate:
    """`betweenness --verify` where nothing can pass through the queried
    temporal node: at a node with no link, and at the window ends, where
    the nodes that reach it, or those it reaches, are the node alone."""

    TEXT = "0 4\na b 1 2\nb c 2 3\nx\n"

    @pytest.mark.parametrize("at", [("2", "x"), ("0", "b"), ("4", "b")],
                             ids=["no_link", "alpha", "omega"])
    def test_exact_value_accepted(self, capsys, tmp_path, at):
        path = tmp_path / "s.ls"
        path.write_text(self.TEXT, encoding="utf-8")
        code, out, err = invoke(capsys, "betweenness", "--stream", str(path),
                                "--at", *at, "--verify")
        assert (code, out, err) == (0, "0\n", "")


class TestProfile:
    def test_csv_shape_and_determinism(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "profile", "--stream", demo_path,
            "--samples", "4", "--format", "csv",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "node,time,betweenness"
        assert len(lines) == 1 + 5 * 5
        code2, out2, _ = invoke(
            capsys, "profile", "--stream", demo_path,
            "--samples", "4", "--format", "csv",
        )
        assert out2 == out

    def test_plain_format_and_threads(self, capsys, demo_path):
        code, out, _ = invoke(
            capsys, "profile", "--stream", demo_path,
            "--samples", "2",
        )
        assert code == 0
        first = out.splitlines()[0].split(" ")
        assert first[0] == "a" and first[1] == "0"

    def test_threads_is_usage_error(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "profile", "--stream", demo_path,
            "--samples", "1", "--threads", "0",
        )
        assert code == 2 and out == ""
        assert "--threads" in err

    def test_negative_decimal_is_usage_error(self, capsys, demo_path):
        code, out, err = invoke(
            capsys, "profile", "--stream", demo_path,
            "--samples", "2", "--decimal", "-1",
        )
        assert code == 2 and out == ""
        assert "--decimal" in err

    def test_bad_samples(self, capsys, demo_path):
        code, _, err = invoke(
            capsys, "profile", "--stream", demo_path, "--samples", "0",
        )
        assert code == 1 and err.startswith("error:")


class TestDiagnostics:
    def test_missing_file(self, capsys):
        code, out, err = invoke(
            capsys, "latencies", "--stream", "/no/such/file.ls",
            "--source", "a",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_malformed_stream(self, capsys, tmp_path):
        bad = tmp_path / "bad.ls"
        bad.write_text("0 10\na b 5\n", encoding="utf-8")
        code, _, err = invoke(
            capsys, "latencies", "--stream", str(bad), "--source", "a",
        )
        assert code == 1
        assert "line 2" in err

    def test_header_alpha_after_omega(self, capsys, tmp_path):
        bad = tmp_path / "bad.ls"
        bad.write_text("# one\n# two\n10 0\na b 1 2\n", encoding="utf-8")
        code, out, err = invoke(
            capsys, "latencies", "--stream", str(bad), "--source", "a",
        )
        assert code == 1 and out == ""
        assert err == "error: line 3: alpha > omega\n"

    # every grid of `--verify` refines this bound's denominator (10**24 + 7)
    FINE = "0 10\na b 1/1000000000000000000000007 2\nb c 3 4\n"

    @pytest.mark.parametrize("argv", [
        ("volumes", "--from", "0", "a", "--to", "10", "b", "--verify"),
        ("betweenness", "--at", "5", "b", "--verify"),
    ], ids=["volumes", "betweenness"])
    def test_verify_grid_too_fine(self, capsys, tmp_path, argv):
        path = tmp_path / "fine.ls"
        path.write_text(self.FINE, encoding="utf-8")
        code, out, err = invoke(capsys, argv[0], "--stream", str(path),
                                *argv[1:])
        assert code == 1 and out != ""
        assert err.startswith("error: grid of ") and "limit" in err

    def test_verify_work_too_large(self, capsys, tmp_path):
        """Grids of 16 001 and 32 001 points, each under the point limit,
        whose cells over 6 node pairs the oracle refuses to walk."""
        path = tmp_path / "long.ls"
        path.write_text("0 2\na b 1/1000 1\nb c 3/2 2\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = invoke(capsys, "betweenness", "--stream", str(path),
                                "--at", "1", "b", "--verify")
        assert time.perf_counter() - start < 10
        assert code == 1 and out == "1/2\n"
        assert err.startswith("error: grid of 32001 points") and "limit" in err

    def test_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "volumes")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2


class TestMain:
    """`main` exits with the code of `run` on the command-line arguments,
    and `python -m linkstream.cli` runs it."""

    @pytest.mark.parametrize("stream,tail,code", [
        (None, (), 0),
        ("/no/such/file.ls", (), 1),
        (None, ("--samples", "2"), 2),
    ], ids=["ok", "input_error", "usage_error"])
    def test_exit_code(self, capsys, monkeypatch, demo_path, stream, tail,
                       code):
        monkeypatch.setattr(sys, "argv", ["linkstream", "latencies",
                                          "--stream", stream or demo_path,
                                          "--source", "a", *tail])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == code
        out, err = capsys.readouterr()
        assert (out != "", err != "") == (code == 0, code != 0)

    def test_module_runs_main(self, capsys, demo_path):
        argv = ["latencies", "--stream", demo_path, "--source", "a"]
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        child = subprocess.run([sys.executable, "-m", "linkstream.cli", *argv],
                               capture_output=True, text=True, env=env,
                               check=False)
        assert child.returncode == 0 and child.stderr == ""
        assert child.stdout == invoke(capsys, *argv)[1]
