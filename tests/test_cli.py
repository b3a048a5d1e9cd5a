"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.toy import figure2_graph
from repro.graphs.io import write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "fig2.txt"
    write_edge_list(figure2_graph(), path)
    return str(path)


class TestStats:
    def test_stats_from_edges(self, edge_file, capsys):
        assert main(["stats", "--edges", edge_file]) == 0
        out = capsys.readouterr().out
        assert "nodes   13" in out
        assert "k_max   4" in out

    def test_stats_from_dataset(self, capsys):
        assert main(["stats", "--dataset", "brightkite"]) == 0
        assert "nodes   1450" in capsys.readouterr().out

    def test_missing_source(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestDecompose:
    def test_coreness_listing(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        assert lines[0] == "1\t1"

    def test_layers_listing(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file, "--layers"]) == 0
        out = capsys.readouterr().out
        assert "\t1,1" in out  # vertex 1 is (1, 1)


class TestAnchor:
    def test_gac(self, edge_file, capsys):
        assert main(["anchor", "--edges", edge_file, "-b", "1"]) == 0
        out = capsys.readouterr().out
        assert "anchors       2" in out
        assert "coreness_gain 4" in out

    def test_heuristic(self, edge_file, capsys):
        assert main(["anchor", "--edges", edge_file, "--method", "Deg", "-b", "2"]) == 0
        assert "coreness_gain" in capsys.readouterr().out

    def test_rand_seeded(self, edge_file, capsys):
        assert main(
            ["anchor", "--edges", edge_file, "--method", "Rand", "-b", "2", "--seed", "1"]
        ) == 0
        first = capsys.readouterr().out
        main(["anchor", "--edges", edge_file, "--method", "Rand", "-b", "2", "--seed", "1"])
        assert capsys.readouterr().out == first

    def test_olak_requires_k(self, edge_file):
        with pytest.raises(SystemExit):
            main(["anchor", "--edges", edge_file, "--method", "olak", "-b", "1"])

    def test_olak(self, edge_file, capsys):
        assert main(
            ["anchor", "--edges", edge_file, "--method", "olak", "--k", "4", "-b", "1"]
        ) == 0
        assert "anchors       5" in capsys.readouterr().out


class TestBadInput:
    """Bad input gives one ``error:`` line on stderr and exit 2."""

    @staticmethod
    def _assert_one_line_error(capsys, needle):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and needle in lines[0]

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.txt")
        assert main(["anchor", "--edges", missing]) == 2
        self._assert_one_line_error(capsys, "absent.txt")

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["anchor", "--edges", str(path), "-b", "1"]) == 2
        self._assert_one_line_error(capsys, "0 anchorable vertices")

    def test_malformed_edge_list(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nfoo bar\n")
        assert main(["anchor", "--edges", str(path), "-b", "1"]) == 2
        self._assert_one_line_error(capsys, "bad.txt:2")

    @pytest.mark.parametrize("budget", ["10", "-1"])
    def test_out_of_range_budget(self, tmp_path, capsys, budget):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main(["anchor", "--edges", str(path), "-b", budget]) == 2
        self._assert_one_line_error(capsys, "budget")

    def test_unknown_dataset(self, capsys):
        assert main(["anchor", "--dataset", "nosuch"]) == 2
        self._assert_one_line_error(capsys, "nosuch")

    @pytest.mark.parametrize("name", ["numpy", "cuda"])
    def test_unknown_kernel_env(self, edge_file, monkeypatch, capsys, name):
        monkeypatch.setenv("REPRO_KERNEL", name)
        assert main(["anchor", "--edges", edge_file, "-b", "1"]) == 2
        self._assert_one_line_error(capsys, "unknown follower kernel")

    def test_nonpositive_olak_k(self, edge_file, capsys):
        argv = ["anchor", "--edges", edge_file, "-b", "1", "--method", "olak"]
        assert main([*argv, "--k", "-3"]) == 2
        self._assert_one_line_error(capsys, "k must be positive")

    @pytest.mark.parametrize("method", [[], ["--method", "olak", "--k", "2"]])
    def test_zero_checkpoint_every(self, edge_file, tmp_path, capsys, method):
        ckpt = str(tmp_path / "run.ckpt")
        argv = ["anchor", "--edges", edge_file, "-b", "1", *method]
        assert main([*argv, "--checkpoint", ckpt, "--checkpoint-every", "0"]) == 2
        self._assert_one_line_error(capsys, "checkpoint_every")

    def test_unknown_kernel_flag(self, edge_file):
        with pytest.raises(SystemExit) as exc:
            main(["anchor", "--edges", edge_file, "-b", "1", "--kernel", "numpy"])
        assert exc.value.code == 2


class TestCascade:
    def test_cascade(self, edge_file, capsys):
        assert main(
            ["cascade", "--edges", edge_file, "--k", "3", "--seeds", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "departed" in out and "rounds" in out

    def test_cascade_with_anchors(self, edge_file, capsys):
        assert main(
            [
                "cascade", "--edges", edge_file, "--k", "3",
                "--seeds", "7", "--anchors", "8",
            ]
        ) == 0
        assert "survivors" in capsys.readouterr().out


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "brightkite" in out and "livejournal" in out
