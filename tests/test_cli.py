import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import SRC_DIR, loose_cycle, run_cli

from bergec4 import berge, cli, search
from bergec4.berge import find_berge_cycle
from bergec4.construct import lower_bound_construction
from bergec4.hypergraph import MAX_VERTICES, Hypergraph

K4_MINUS = "4 3\n0 1 2\n0 1 3\n0 2 3\n"
K4_FULL = "4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
SINGLE = "3 1\n0 1 2\n"
EDGELESS = "4 0\n"
ISOLATED = "7 2\n0 1 2\n1 3 4\n"  # vertices 5 and 6 in no edge


@pytest.fixture
def k4m_file(tmp_path):
    path = tmp_path / "k4m.txt"
    path.write_text(K4_MINUS)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_FULL)
    return str(path)


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "single.txt"
    path.write_text(SINGLE)
    return str(path)


class TestShadowCommand:
    def test_single_edge_pairs(self, single_file):
        out = run_cli("shadow", single_file, check=True).stdout
        assert out.count("shadow_edge\t") == 3
        assert "shadow_edge_count\t3" in out

    def test_k4_minus_pairs(self, k4m_file):
        out = run_cli("shadow", k4m_file, check=True).stdout
        assert "shadow_edge_count\t6" in out
        assert "degree\t0\t3\t3\t0" in out

    def test_malformed_line_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n0 1 1\n")
        proc = run_cli("shadow", str(bad))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("shadow", "/nonexistent/h.txt")
        assert proc.returncode == 2


class TestCheckCommand:
    def test_k4_full_yields_witness(self, k4_file):
        out = run_cli("check", k4_file, check=True).stdout
        assert "result\tcycle" in out
        assert "vertices\t0,1,2,3" in out

    def test_k4_minus_is_free(self, k4m_file):
        assert "result\tfree" in run_cli("check", k4m_file, check=True).stdout

    def test_length_flag(self, k4m_file):
        out = run_cli("check", k4m_file, "--length", "2", check=True).stdout
        assert "result\tcycle" in out

    def test_long_cycle_found(self, tmp_path):
        path = tmp_path / "loose.txt"
        path.write_text(loose_cycle(1100).to_text())
        out = run_cli("check", str(path), "--length", "1100", check=True).stdout
        assert "result\tcycle" in out

    def test_length_one_is_usage_error(self, k4m_file):
        assert run_cli("check", k4m_file, "--length", "1").returncode == 2

    def test_length_four_decided_by_builder(self, k4m_file, k4_file, monkeypatch, capsys):
        def no_walk(h, p2e, k):
            raise AssertionError("a free input must not be walked")

        with monkeypatch.context() as patch:
            patch.setattr(berge, "_cycle_candidates", no_walk)
            assert cli.main(["check", k4m_file]) == 0
        assert "result\tfree" in capsys.readouterr().out

        # a cycle still gets the walk's canonical witness
        assert cli.main(["check", k4_file]) == 0
        w = find_berge_cycle(Hypergraph.from_text(K4_FULL), 4)
        out = capsys.readouterr().out
        assert f"vertices\t{','.join(map(str, w.vertices))}\n" in out
        assert f"edge_indices\t{','.join(map(str, w.edge_indices))}\n" in out

        swept = []
        monkeypatch.setattr(berge, "find_berge_cycle", lambda h, length: swept.append(length))
        assert cli.main(["check", k4m_file, "--length", "5"]) == 0
        assert swept == [5]

    @pytest.mark.parametrize("command", ["check", "census"])
    def test_huge_header_n_is_usage_error(self, tmp_path, command):
        path = tmp_path / "huge.txt"
        path.write_text("1000000 0\n")
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_largest_header_n_accepted(self, tmp_path):
        path = tmp_path / "largest.txt"
        path.write_text(f"{MAX_VERTICES} 0\n")
        assert "result\tfree" in run_cli("check", str(path), check=True).stdout

    def test_largest_sparse_input_memory_bounded(self, tmp_path):
        # Free disjoint triples, each with one vertex id near n: every
        # builder bitset is about n bits wide, so its total grows like n^2.
        n = MAX_VERTICES
        lines = [f"{n} {n // 3}"] + [f"{2 * i} {2 * i + 1} {n - 1 - i}" for i in range(n // 3)]
        path = tmp_path / "sparse.txt"
        path.write_text("\n".join(lines) + "\n")
        script = (
            "import resource, sys\n"
            "from bergec4 import cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "rc = cli.main(['check', sys.argv[1]])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print('rss_growth_kb', after - before)\n"
            "sys.exit(rc)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "result\tfree" in proc.stdout
        growth_kb = int(proc.stdout.rsplit("rss_growth_kb ", 1)[1])
        assert growth_kb < 128 * 1024


class TestBlocksCommand:
    def test_two_blocks(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("6 2\n1 2 3\n3 4 5\n")
        out = run_cli("blocks", str(path), check=True).stdout
        assert "block_count\t2" in out

    def test_k4_minus_type2(self, k4m_file):
        out = run_cli("blocks", k4m_file, check=True).stdout
        assert "block_count\t1" in out
        assert "type=TYPE2" in out

    def test_sunflower_type1(self, tmp_path):
        path = tmp_path / "sun.txt"
        path.write_text("5 3\n0 1 2\n0 1 3\n0 1 4\n")
        out = run_cli("blocks", str(path), check=True).stdout
        assert "type=TYPE1" in out
        assert "leaves=0,1,2" in out


class TestCensusCommand:
    def test_k4_minus_counts_and_claims(self, k4m_file):
        out = run_cli("census", k4m_file, check=True).stdout
        for needle in (
            "total_3paths\t12",
            "good_3paths\t3",
            "nongood_3paths\t9",
            "rare_4cycles\t0",
            "bc4_free\ttrue",
        ):
            assert needle in out
        assert out.count("result=pass") == 4
        assert "hypothesis not met" not in out

    def test_single_edge_counts(self, single_file):
        out = run_cli("census", single_file, check=True).stdout
        assert "total_3paths\t3" in out and "good_3paths\t0" in out

    def test_non_free_input_is_annotated_not_failed(self, k4_file):
        proc = run_cli("census", k4_file)
        assert proc.returncode == 0
        assert "bc4_free\tfalse" in proc.stdout
        assert proc.stdout.count("hypothesis not met") == 4

    def test_diagonal_scope_flag(self, k4m_file):
        out = run_cli("census", k4m_file, "--diagonal-scope", "global", check=True).stdout
        assert "diagonal_scope\tglobal" in out


class TestVerifyCommand:
    def test_k4_minus_passes(self, k4m_file):
        proc = run_cli("verify", k4m_file)
        assert proc.returncode == 0
        assert proc.stdout.count("result=pass") == 6

    def test_k4_full_refused_with_witness(self, k4_file):
        proc = run_cli("verify", k4_file)
        assert proc.returncode == 3
        assert "refusal\tberge_c4_present" in proc.stdout
        assert "vertices\t" in proc.stdout

    def test_isolated_vertex_refused(self, tmp_path):
        path = tmp_path / "iso.txt"
        path.write_text("5 1\n0 1 2\n")
        proc = run_cli("verify", str(path))
        assert proc.returncode == 3
        assert "refusal\tisolated_vertices" in proc.stdout

    def test_few_isolated_vertices_all_named(self, tmp_path, capsys):
        path = tmp_path / "iso.txt"
        path.write_text("5 1\n0 1 2\n")
        assert cli.main(["verify", str(path)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "detail\thypergraph has isolated vertices [3, 4]"

    def test_many_isolated_vertices_refusal_bounded(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(f"{MAX_VERTICES} 0\n")
        assert cli.main(["verify", str(path)]) == 3
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024
        assert out.splitlines()[-1] == (
            f"detail\thypergraph has {MAX_VERTICES} isolated vertices,"
            " the first 10 [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"
        )


class TestGeneratorCommands:
    def test_construct_q2(self):
        out = run_cli("construct", "--q", "2", check=True).stdout
        assert "# q 2" in out
        assert "21 21" in out

    def test_construct_bad_order(self):
        assert run_cli("construct", "--q", "6").returncode == 2

    def test_construct_prime_cube(self):
        out = run_cli("construct", "--q", "27", check=True).stdout
        assert "# q 27" in out
        assert "2271 21196" in out

    def test_construct_huge_q_is_usage_error(self):
        # refused before the q x q field tables are built
        proc = run_cli("construct", "--q", "81")
        assert proc.returncode == 2
        assert "q must be at most" in proc.stderr

    def test_construct_output_round_trips_to_free(self, tmp_path):
        out = run_cli("construct", "--q", "2", check=True).stdout
        path = tmp_path / "c2.txt"
        path.write_text(out)
        check = run_cli("check", str(path), "--length", "4", check=True).stdout
        assert "result\tfree" in check

    def test_random_tiny(self):
        out = run_cli("random", "--n", "3", "--m", "5", "--seed", "7", check=True).stdout
        assert "3 1" in out and "0 1 2" in out

    def test_random_huge_n_is_usage_error(self):
        # refused before the C(n, 3) triples are built
        proc = run_cli("random", "--n", "1000000000", "--m", "1", "--seed", "0")
        assert proc.returncode == 2
        assert "n must be" in proc.stderr


class TestSearchCommand:
    def test_table_rows(self):
        out = run_cli("search", "--n-max", "4", check=True).stdout
        assert "3\t1\ttrue" in out
        assert "4\t3\ttrue" in out

    def test_default_budget_proves_n8(self):
        out = run_cli("search", "--n-max", "8", check=True).stdout
        assert "\n8\t6\ttrue\t" in out

    def test_default_budget_proves_n10(self):
        out = run_cli("search", "--n-max", "10", check=True).stdout
        assert "\n9\t7\ttrue\t" in out
        assert "\n10\t10\ttrue\t" in out

    def test_stats_file_leaves_stdout_alone(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        plain = run_cli("search", "--n-max", "8", check=True).stdout
        with_stats = run_cli("search", "--n-max", "8", "--stats", str(path), check=True).stdout
        assert with_stats == plain
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [r["n"] for r in rows] == list(range(3, 9))
        assert rows[4]["prunes"]["degree"] == 13
        assert rows[5] == {
            "n": 8,
            "nodes": 433,
            "includes": 215,
            "excludes": 215,
            "prunes": {"candidate_bound": 150, "degree": 0, "set_deletion": 68, "cap_stop": 0},
            "classes": [
                {"limit": 2, "nodes": 377, "best": 6},
                {"limit": 1, "nodes": 55, "best": 6},
                {"limit": 0, "nodes": 1, "best": 6},
            ],
            "budget_hit": False,
        }

    def test_stats_file_reports_budget_hit(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        run_cli("search", "--n-max", "7", "--budget", "10", "--stats", str(path), check=True)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [r["budget_hit"] for r in rows] == [False] * 4 + [True]
        assert rows[-1]["nodes"] == 11

    def test_unwritable_stats_file_is_usage_error(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "missing" / "stats.jsonl")
        proc = run_cli("search", "--n-max", "4", "--stats", path)
        assert proc.returncode == 2
        assert proc.stdout == ""

        # refused before any row is searched: in-process, ex_table must not run
        def no_search(*args, **kwargs):
            raise AssertionError("ex_table ran before the stats path was opened")

        monkeypatch.setattr(search, "ex_table", no_search)
        assert cli.main(["search", "--n-max", "11", "--stats", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "No such file or directory" in err

    def test_bad_search_args_leave_stats_path_alone(self, tmp_path):
        # n_max and the budget are checked before the stats file is opened
        path = tmp_path / "stats.jsonl"
        for args in (["--n-max", "1000"], ["--budget", "-1"]):
            proc = run_cli("search", *args, "--stats", str(path))
            assert proc.returncode == 2
            assert not path.exists()

    def test_zero_budget_marks_non_brute_rows(self):
        out = run_cli("search", "--n-max", "7", "--budget", "0", check=True).stdout
        row7 = next(l for l in out.splitlines() if l.startswith("7\t"))
        assert "\tfalse\t" in row7

    def test_huge_n_max_is_usage_error(self):
        # refused before the C(n, 3) triples of any pruned row are built
        proc = run_cli("search", "--n-max", "1000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "n_max must be in" in proc.stderr

    def test_negative_budget_is_usage_error(self):
        proc = run_cli("search", "--n-max", "7", "--budget", "-5")
        assert proc.returncode == 2
        assert "budget" in proc.stderr

    @pytest.mark.parametrize("flag, value", [("--budget", "-1")])
    def test_bad_setting_refused_without_pruned_rows(self, flag, value):
        # n <= 6 rows never reach branch-and-bound, yet the setting is checked
        proc = run_cli("search", "--n-max", "6", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert flag.strip("-") in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("shadow",),
            ("check",),
            ("blocks",),
            ("census",),
            ("verify",),
        ],
    )
    def test_byte_identical_reruns(self, k4m_file, args):
        first = run_cli(*args, k4m_file, check=True)
        second = run_cli(*args, k4m_file, check=True)
        assert first.stdout == second.stdout

    def test_generators_byte_identical(self):
        a = run_cli("construct", "--q", "3", check=True).stdout
        b = run_cli("construct", "--q", "3", check=True).stdout
        assert a == b
        c = run_cli("random", "--n", "10", "--m", "8", "--seed", "5", check=True).stdout
        d = run_cli("random", "--n", "10", "--m", "8", "--seed", "5", check=True).stdout
        assert c == d


# sha256 of stdout and the exit code, recorded before the census claims
# became InequalityChecks (the edgeless and isolated rows: before the shadow
# became a bare adjacency tuple); any byte change to these reports fails here
PINNED_REPORTS = [
    ("q7", ("census",), 0, "a891679158c5f6311881203b856e38dd08b243dbb3d8601ebe5688aa9a6bc9de"),
    ("q7", ("census", "--diagonal-scope", "global"), 0, "9b0840c015399408a3d976734298413716e1dcfa81b93865c9b94cb93ab4ba7f"),
    ("q7", ("verify",), 0, "5941fd01d7c441b397ab0fd1c67b90823fd05d804596169a61243f1c1617580e"),
    ("q7", ("blocks",), 0, "e943a7d06e405a51956cbf60a6e12444de76ee4106bbedb153b3b53833b57483"),
    ("q7", ("shadow",), 0, "196a6fd01942bb7c0f91cb63338353aa008ef458fcbcb04e1f6b85e4b0a872f3"),
    ("k4_minus", ("census",), 0, "add2ca1caaf3170db0d214245e18beb88f592b12140e6071ce27ad1beb04b2d3"),
    ("k4_minus", ("census", "--diagonal-scope", "global"), 0, "abb537a92b56c60b7df5183a9ad3f38e6fcbb1feb94094b3cdcf6a550eac1190"),
    ("k4_minus", ("verify",), 0, "2d3df8551465e7c1eed83051379d393b44f7338320716e4c12702ae3eb386553"),
    ("k4_minus", ("blocks",), 0, "61c96b6a48b5b0753aa62965718fb056bdc2671dc7d9c2cc2f7f6f7e5b9c10f9"),
    ("k4_minus", ("shadow",), 0, "cbc0a1c7d092a5c6a10fa97cc2fc7ede9fc8d5b4d62d4eba8a237c87d3078b40"),
    ("k4_full", ("verify",), 3, "7e3a6f0da61fdbc52d24f3613eba6822679948f297a974000dda7b60f19c1cdb"),
    ("edgeless", ("shadow",), 0, "1764133d1e9184c765e461eee519bfc676b8f358de2524338022058320882739"),
    ("isolated", ("shadow",), 0, "7ee4d840bef3f8695ea5d6e2196037f83861a53f83b8dbb53b945f70f276a641"),
]


@pytest.mark.parametrize("name, command, code, digest", PINNED_REPORTS)
def test_report_bytes_pinned(tmp_path, capsys, name, command, code, digest):
    texts = {
        "q7": lower_bound_construction(7).to_text(),
        "k4_minus": K4_MINUS,
        "k4_full": K4_FULL,
        "edgeless": EDGELESS,
        "isolated": ISOLATED,
    }
    path = tmp_path / f"{name}.txt"
    path.write_text(texts[name])
    assert cli.main([command[0], str(path), *command[1:]]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
