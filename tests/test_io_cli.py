import json

import numpy as np
import pytest

from mapprune import (
    GraphicalModel,
    InstanceSpec,
    UaiParseError,
    generate,
    parse_uai,
    persistency_percentage,
    write_uai,
)
from mapprune.cli import main
from conftest import random_with_ternary


class TestParseUai:
    def test_single_unary(self):
        m = parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n 3 1\n")
        assert m.num_nodes == 1 and m.label_counts == (2,)
        assert np.array_equal(m.factors[0].table, [3, 1])

    def test_unsorted_scope_permuted(self):
        text = "MARKOV\n2\n2 3\n1\n2 1 0\n\n6\n 1 2 3 4 5 6\n"
        m = parse_uai(text)
        f = m.factors[0]
        assert f.scope == (0, 1)
        # file table indexed (x1, x0): entry (x1=i, x0=j) = 1+2i+j
        assert np.array_equal(f.table, [[1, 3, 5], [2, 4, 6]])

    def test_roundtrip_bit_exact(self, rng):
        for _ in range(10):
            m = random_with_ternary(rng, n_lo=3, n_hi=6)
            back = parse_uai(write_uai(m))
            assert back == m

    def test_truncated_table_names_factor(self):
        text = "MARKOV\n1\n2\n1\n1 0\n\n2\n 3\n"
        with pytest.raises(UaiParseError, match="factor 0"):
            parse_uai(text)

    def test_scope_out_of_range(self):
        text = "MARKOV\n1\n2\n1\n1 5\n\n2\n 3 1\n"
        with pytest.raises(UaiParseError, match="out of range"):
            parse_uai(text)

    def test_error_carries_line_number(self):
        text = "MARKOV\n1\nBAD\n"
        with pytest.raises(UaiParseError, match="line 3"):
            parse_uai(text)

    def test_bad_preamble(self):
        with pytest.raises(UaiParseError, match="MARKOV"):
            parse_uai("BAYES\n1\n2\n0\n")

    def test_probability_mode(self):
        m = parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n 1 0\n", values="probability")
        assert m.factors[0].table[0] == 0.0
        # the forbidden label costs at least 1 more than every feasible labeling
        assert m.factors[0].table[1] >= m.factors[0].table[0] + 1.0

    def test_probability_mode_rejects_all_zero_factor(self):
        with pytest.raises(UaiParseError, match="no labeling is feasible"):
            parse_uai("MARKOV\n1\n2\n1\n1 0\n\n2\n 0 0\n", values="probability")

    def test_table_count_mismatch(self):
        text = "MARKOV\n1\n2\n1\n1 0\n\n3\n 1 2 3\n"
        with pytest.raises(UaiParseError, match="factor 0"):
            parse_uai(text)


class TestGenerate:
    def test_potts_1x2_fixed(self):
        spec = InstanceSpec(
            kind="potts-grid", height=1, width=2, labels=2, coupling=(1.0, 1.0), noise=(0.0, 0.0)
        )
        m = generate(spec)
        edge = m.factors[m.factor_index((0, 1))].table
        assert np.array_equal(edge, [[0, 1], [1, 0]])

    def test_same_seed_identical_bytes(self):
        spec = InstanceSpec(kind="random-pairwise", num_nodes=6, labels=3, seed=42)
        assert write_uai(generate(spec)) == write_uai(generate(spec))

    def test_different_seed_differs(self):
        a = InstanceSpec(kind="random-pairwise", num_nodes=6, labels=3, seed=1)
        b = InstanceSpec(kind="random-pairwise", num_nodes=6, labels=3, seed=2)
        assert write_uai(generate(a)) != write_uai(generate(b))

    def test_frustrated_cycle_tables(self):
        spec = InstanceSpec(
            kind="frustrated-cycle", num_nodes=3, labels=2, coupling=(1.0, 1.0), noise=(0.0, 0.0)
        )
        m = generate(spec)
        assert len(m.edges()) == 3
        for (u, v) in m.edges():
            assert np.array_equal(
                m.factors[m.factor_index((u, v))].table, [[1.0, 0.5], [0.5, 1.0]]
            )

    def test_random_hyper_has_ternary(self):
        spec = InstanceSpec(kind="random-hyper", num_nodes=5, labels=2, seed=0, hyper_count=2)
        m = generate(spec)
        assert sum(1 for f in m.factors if f.arity == 3) == 2


class TestPercentage:
    def test_mixed_label_spaces(self):
        m = GraphicalModel([2, 4])
        assert abs(persistency_percentage(m, [1]) - 2.0 / 3.0) <= 1e-12

    def test_everything(self):
        m = GraphicalModel([2, 4])
        assert persistency_percentage(m, [0, 1]) == 1.0

    def test_nothing(self):
        m = GraphicalModel([2, 4])
        assert persistency_percentage(m, []) == 0.0

    def test_uniform_equals_count_ratio(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(2, 6))
            m = GraphicalModel([k] * n)
            size = int(rng.integers(0, n + 1))
            a = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            assert abs(persistency_percentage(m, a) - size / n) <= 1e-12

    def test_singleton_nodes_ignored(self):
        m = GraphicalModel([1, 1, 2])
        assert persistency_percentage(m, [2]) == 1.0
        assert persistency_percentage(m, []) == 0.0

    def test_all_singletons(self):
        m = GraphicalModel([1, 1])
        assert persistency_percentage(m, []) == 1.0


class TestCli:
    def write_pendant(self, path):
        from test_persistency import pendant_model

        path.write_text(write_uai(pendant_model()))

    def test_gen_solve_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        code = main([
            "gen", "--kind", "potts-grid", "--hw", "2x2", "--labels", "2",
            "--seed", "5", "--out", str(model_path),
        ])
        assert code == 0
        code = main(["solve", str(model_path), "--solver", "bruteforce"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("value ")

    def test_prune_verify_flow(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        report_path = tmp_path / "report.json"
        self.write_pendant(model_path)
        code = main([
            "prune", str(model_path), "--solver", "lp", "--mode", "optimal",
            "--out", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["a_star"] == [3]
        assert payload["mode"] == "optimal"
        assert 0.0 <= payload["percentage"] <= 1.0
        assert payload["trace"]
        keys = [
            "t", "domain", "test_labels", "boundary_size", "disagreeing",
            "fractional_pruned", "solver_iterations", "certificate", "test_energy",
        ]
        assert all(list(r) == keys for r in payload["trace"])

        code = main(["verify", str(report_path), str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "persistent: true" in out

    def test_prune_embedded_verification(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        report_path = tmp_path / "report.json"
        self.write_pendant(model_path)
        code = main(["prune", str(model_path), "--verify", "--out", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["verification"]["persistent"] is True
        assert payload["verification"]["num_optima"] == 6

    def test_verify_rejects_bad_report(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        report_path = tmp_path / "report.json"
        self.write_pendant(model_path)
        main(["prune", str(model_path), "--out", str(report_path)])
        payload = json.loads(report_path.read_text())
        payload["a_star"] = [3]
        payload["x_star"] = {"3": 1}  # wrong label
        report_path.write_text(json.dumps(payload))
        code = main(["verify", str(report_path), str(model_path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "persistent: false" in out

    def test_bench_deterministic_bytes(self, tmp_path):
        args = [
            "bench", "--gen", "potts-grid", "--hw", "3x3", "--labels", "2",
            "--n", "4", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "instance,solver,mode,a_star_size,percentage,iterations,time_s"
        assert len(out_a.read_text().splitlines()) == 5

    def test_bench_full_sweep_deterministic(self, tmp_path):
        args = [
            "bench", "--gen", "potts-grid", "--hw", "8x8", "--labels", "3",
            "--n", "50", "--seed", "7", "--solver", "trws",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert len(out_a.read_text().splitlines()) == 51  # header + 50 rows
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bench_timings_flag(self, tmp_path):
        args = [
            "bench", "--gen", "potts-grid", "--hw", "2x2", "--labels", "2",
            "--n", "1", "--seed", "7", "--timings",
        ]
        out = tmp_path / "t.csv"
        assert main(args + ["--out", str(out)]) == 0
        row = out.read_text().splitlines()[1]
        assert row.rsplit(",", 1)[1] != ""

    def test_usage_error_exit_code(self, capsys):
        assert main(["prune"]) == 1
        assert main(["nope"]) == 1

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        self.write_pendant(model_path)
        code = main(["solve", str(model_path), "--solver", "bruteforce", "--cap", "2"])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.uai"
        bad.write_text("BAYES\n")
        assert main(["solve", str(bad)]) == 1
