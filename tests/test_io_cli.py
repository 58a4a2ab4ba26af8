import hashlib
import json

import numpy as np
import pytest

from mapprune import (
    DomainError,
    Factor,
    GraphicalModel,
    InstanceSpec,
    PartialLabeling,
    StopRule,
    UaiParseError,
    build_augmented_model,
    frustrated_cycle,
    generate,
    parse_uai,
    persistency_percentage,
    __version__,
    write_uai,
)
from mapprune import oracle, solvers
from mapprune.cli import _spec_from_args, _stop_rule, build_parser, main
from conftest import random_with_ternary
from test_boundary import _core_models


def constant_model() -> GraphicalModel:
    """Two nodes and a constant factor; the optimum is (0, 0) at -10."""
    return GraphicalModel([2, 2], [
        Factor((), -10.0),
        Factor((0,), [0.0, 1.0]),
        Factor((0, 1), [[0.0, 0.5], [0.5, 0.0]]),
    ])


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

    def test_roundtrip_constant_factor(self):
        m = constant_model()
        assert parse_uai(write_uai(m)) == m

    def test_write_uai_golden_digest(self, rng):
        """The bytes of write_uai over seeded models of every layout: the
        core models (constants, mixed label counts, ternaries, signed zeros),
        each generator kind, repeated scopes, hard constraints and
        augmented models."""
        models = list(_core_models(rng))
        for kind, extra in [
            ("potts-grid", dict(height=3, width=4, labels=3)),
            ("random-pairwise", dict(num_nodes=6, labels=3)),
            ("random-hyper", dict(num_nodes=6, labels=2, hyper_count=3)),
            ("frustrated-cycle", dict(num_nodes=5, labels=2)),
        ]:
            models += [generate(InstanceSpec(kind=kind, seed=s, **extra)) for s in range(3)]
        models.append(GraphicalModel([2, 3], [
            Factor((0, 1), rng.uniform(-1, 1, (2, 3))),
            Factor((1,), [0.1, 1e16, 3.0]),
            Factor((0, 1), rng.uniform(-1, 1, (2, 3))),
            Factor((1,), [0.2, 1.0, -0.0]),
        ]))
        models.append(parse_uai("MARKOV\n3\n2 2 2\n3\n2 0 1\n2 1 2\n2 0 2\n"
                                + "\n4\n 0 1 1 0\n" * 3, values="probability"))
        for m in list(models):
            inside = [v for v in range(m.num_nodes) if rng.uniform() < 0.6]
            y = PartialLabeling(
                tuple(range(m.num_nodes)), tuple(int(rng.integers(k)) for k in m.label_counts)
            )
            models.append(build_augmented_model(m, inside, y).model)
        h = hashlib.sha256()
        for m in models:
            h.update(write_uai(m).encode())
        assert h.hexdigest() == "9979733b0c1b862cd8150e4da91d2fe959afeb750743ee7eabdd189c3bbb9233"

    def test_probability_mode_rejects_zero_constant(self):
        text = write_uai(constant_model()).replace("\n -10\n", "\n 0\n")
        with pytest.raises(UaiParseError, match="no labeling is feasible"):
            parse_uai(text, values="probability")

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

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_probability_mode_rejects_non_finite_entry(self, entry):
        text = f"MARKOV\n2\n2 2\n2\n1 0\n1 1\n\n2\n 1 0\n\n2\n 0.5 {entry}\n"
        with pytest.raises(UaiParseError, match=f"factor 1 .*{entry}"):
            parse_uai(text, values="probability")

    @pytest.mark.parametrize("entry, shown", [("nan", "nan"), ("inf", "inf"), ("1e999", "inf")])
    def test_cost_mode_rejects_non_finite_entry(self, entry, shown):
        """The error names the file's factor 1, not its sorted scope (0,)."""
        text = f"MARKOV\n2\n2 2\n3\n1 1\n1 0\n1 0\n\n2\n 1 0\n\n2\n 0.5 {entry}\n\n2\n nan 0\n"
        with pytest.raises(UaiParseError, match=f"^factor 1 has cost {shown}, not a finite number$"):
            parse_uai(text)

    def test_repeated_scopes_adding_to_non_finite_rejected(self):
        """Two finite tables over one scope whose sum overflows."""
        text = "MARKOV\n1\n2\n2\n1 0\n1 0\n2\n 1e308 0\n2\n 1e308 0\n"
        with pytest.raises(DomainError, match=r"^factor over \(0,\): its repeated tables add to a non-finite"):
            parse_uai(text)

    def test_negative_factor_count(self):
        with pytest.raises(UaiParseError, match="^negative factor count$"):
            parse_uai("MARKOV\n1\n2\n-3\n")

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
        for nodes, count in [(5, 2), (3, 1), (4, 4), (4, 3.0)]:
            spec = InstanceSpec(kind="random-hyper", num_nodes=nodes, labels=2, seed=0, hyper_count=count)
            m = generate(spec)
            assert sum(1 for f in m.factors if f.arity == 3) == count

    @pytest.mark.parametrize("nodes, count", [(3, 2), (4, 5), (5, -1), (5, 1.5), (5, "2"), (2, 1)])
    def test_random_hyper_count_must_fit(self, nodes, count):
        """Only C(nodes, 3) distinct ternary scopes exist, so a larger count
        could never be drawn; the spec refuses it, and any non-integer."""
        with pytest.raises(DomainError, match="hyper_count"):
            InstanceSpec(kind="random-hyper", num_nodes=nodes, hyper_count=count)

    @staticmethod
    def _sized(field, value):
        """A spec of a kind that reads ``field``, with ``field`` set to ``value``."""
        if field in ("height", "width"):
            return InstanceSpec(kind="potts-grid", **{"height": 2, "width": 3, field: value})
        return InstanceSpec(kind="random-pairwise", **{"num_nodes": 3, field: value})

    @pytest.mark.parametrize("field", ["num_nodes", "height", "width", "labels"])
    @pytest.mark.parametrize("value", [2.5, "5", float("nan"), None])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=field):
            self._sized(field, value)

    @pytest.mark.parametrize("field", ["num_nodes", "height", "width", "labels"])
    def test_integral_float_sizes_become_ints(self, field):
        spec, exact = self._sized(field, 3.0), self._sized(field, 3)
        assert type(getattr(spec, field)) is int and spec == exact
        assert write_uai(generate(spec)) == write_uai(generate(exact))

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.5), ("seed", "3"), ("seed", None), ("seed", -1),
        ("coupling", (0.0, float("nan"))), ("coupling", (float("-inf"), 1.0)), ("coupling", (0.0, "1")),
        ("coupling", (0.0, 1.0, 2.0)), ("noise", (float("nan"), 1.0)), ("noise", (0.0, float("inf"))), ("noise", 1.0),
        ("edge_probability", float("nan")), ("edge_probability", float("inf")),
        ("edge_probability", -0.5), ("edge_probability", 1.5), ("edge_probability", "0.5"),
    ])
    def test_draw_parameters_are_checked(self, field, value):
        """Seeds are integers >= 0, bounds are pairs of finite numbers, and
        the edge probability is a finite number in [0, 1]; anything else is
        refused at construction, before ``generate`` draws."""
        with pytest.raises(DomainError, match=field):
            InstanceSpec(kind="random-hyper", num_nodes=4, **{field: value})

    def test_integral_float_seed_becomes_int(self):
        spec = InstanceSpec(kind="random-hyper", num_nodes=4, seed=5.0)
        exact = InstanceSpec(kind="random-hyper", num_nodes=4, seed=5)
        assert type(spec.seed) is int and spec == exact
        assert write_uai(generate(spec)) == write_uai(generate(exact))


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

    @pytest.mark.parametrize("solver", ["bruteforce", "lp", "trws"])
    def test_solve_model_with_constant(self, tmp_path, capsys, solver):
        model_path = tmp_path / "m.uai"
        model_path.write_text(write_uai(constant_model()))
        assert main(["solve", str(model_path), "--solver", solver]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [
            f"{'bound' if solver == 'trws' else 'value'} -10.0", "labeling 0 0",
        ]

    @pytest.mark.parametrize("solver", ["lp", "trws"])
    def test_solve_prints_fractional_nodes(self, tmp_path, capsys, solver):
        """A fractional node prints as "#", and under lp its marginal follows."""
        model_path = tmp_path / "m.uai"
        model_path.write_text(write_uai(frustrated_cycle()))
        assert main(["solve", str(model_path), "--solver", solver]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "labeling # # #"
        if solver == "lp":
            assert lines[2:] == [f"marginal {v} 0.5 0.5" for v in range(3)]

    @pytest.mark.parametrize("command", ["solve", "prune"])
    @pytest.mark.parametrize("solver", ["bruteforce", "lp", "trws"])
    def test_model_without_nodes(self, tmp_path, command, solver):
        model_path = tmp_path / "m.uai"
        model_path.write_text("MARKOV\n0\n\n0\n")
        assert main([command, str(model_path), "--solver", solver]) == 0

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

    @pytest.mark.parametrize("mode", ["original", "optimal"])
    @pytest.mark.parametrize("solver", ["bruteforce", "lp", "trws"])
    def test_prune_verify_tables_its_input_once(self, tmp_path, capsys, monkeypatch, solver, mode):
        """The initial brute-force solve and the oracle's verdict read one
        enumeration of the input model."""
        from test_persistency import _counted

        model = generate(InstanceSpec(kind="random-pairwise", num_nodes=7, labels=3, seed=3))
        model_path = tmp_path / "m.uai"
        model_path.write_text(write_uai(model))
        tabled = _counted(monkeypatch, solvers, "_energy_table")
        monkeypatch.setattr(oracle, "_energy_table", solvers._energy_table)  # the oracle's tables count too
        code = main(["prune", str(model_path), "--solver", solver, "--mode", mode, "--verify"])
        assert code == 0 and json.loads(capsys.readouterr().out)["verification"]["persistent"]
        assert sum(m == parse_uai(model_path.read_text()) for m, _ in tabled) == 1

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

    @pytest.mark.parametrize("field, value, shown", [
        ("a_star", [3.5], "3.5"),
        ("x_star", {"3": 0.7}, "0.7"),
        ("a_star", ["3"], "'3'"),
        ("x_star", {"0_3": 0}, "'0_3'"),
        ("x_star", {"+3": 0}, "'+3'"),
        ("x_star", {" 3": 0}, "' 3'"),
        ("x_star", {"03": 0}, "'03'"),
        ("x_star", {"\u0663": 0}, "'\u0663'"),
    ])
    def test_verify_refuses_non_integer_claims(self, tmp_path, capsys, field, value, shown):
        """int() would read [3.5] as [3], label 0.7 as 0 and the node key
        "0_3" as 3, and so verify the report's true claim instead of the one
        it holds.  A key must be the decimal form of a node id."""
        model_path = tmp_path / "m.uai"
        report_path = tmp_path / "report.json"
        self.write_pendant(model_path)
        main(["prune", str(model_path), "--out", str(report_path)])
        payload = json.loads(report_path.read_text())
        assert (payload["a_star"], payload["x_star"]) == ([3], {"3": 0})
        payload[field] = value
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(report_path), str(model_path)]) == 1
        expected = f"error: malformed mapprune-report-v1 document: {shown} is not an integer"
        assert capsys.readouterr().err.strip() == expected

    @pytest.mark.parametrize("document, message", [
        ('{"format": "mapprune-report-v1"}', "error: mapprune-report-v1 document has no field 'instance'"),
        ("[1]", "error: not a mapprune-report-v1 document"),
        ('{"format": "mapprune-report-v1", "instance": "m", "solver": "lp", "mode": "original", '
         '"a_star": [0], "x_star": [1]}',
         "error: malformed mapprune-report-v1 document: 'list' object has no attribute 'items'"),
        ('{"format": "mapprune-report-v1", "instance": "m", "solver": "lp", "mode": "original", '
         '"a_star": [3], "x_star": {"-3": 0}}',
         "error: malformed mapprune-report-v1 document: '-3' is not a node id"),
    ])
    def test_verify_malformed_report_is_usage_error(self, tmp_path, capsys, document, message):
        model_path = tmp_path / "m.uai"
        report_path = tmp_path / "report.json"
        self.write_pendant(model_path)
        report_path.write_text(document)
        assert main(["verify", str(report_path), str(model_path)]) == 1
        assert capsys.readouterr().err.strip() == message

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

    def test_repeated_calls_identical(self, tmp_path, capsys):
        """One process, one parser: usage errors, --version and verified
        prunes give the same exit code, stdout, stderr and report each time."""
        model_path, report_path = tmp_path / "m.uai", tmp_path / "report.json"
        self.write_pendant(model_path)
        prune = ["prune", str(model_path), "--verify", "--out", str(report_path)]
        calls = [["prune"], ["prune", str(model_path), "--solver", "nope"], ["--version"], prune, prune]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            report = None
            if argv is prune:
                report = json.loads(report_path.read_text())
                del report["wall_time_s"]
            return code, captured.out, captured.err, report

        first = [run(argv) for argv in calls]
        assert [r[0] for r in first] == [1, 1, 0, 0, 0]
        assert first[2][1] == f"mapprune {__version__}\n"
        assert first[3] == first[4]
        assert [run(argv) for argv in calls] == first

    def test_zero_pass_cap_is_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        self.write_pendant(model_path)
        assert main(["solve", str(model_path), "--solver", "trws", "--max-iters", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_passes" in captured.err

    @pytest.mark.parametrize("command", ["solve", "prune"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--gap", "nan", "gap_tol"),
        ("--gap", "-1", "gap_tol"),
        ("--stall", "0", "stall_passes"),
        ("--stall", "-3", "stall_passes"),
    ])
    def test_bad_stop_rule_is_usage_error(self, tmp_path, capsys, command, flag, value, field):
        """A NaN or negative gap and a stall count below 1 would turn a stop
        off or act as 1; they are usage errors instead."""
        model_path = tmp_path / "m.uai"
        self.write_pendant(model_path)
        assert main([command, str(model_path), "--solver", "trws", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    def test_trws_stop_defaults_are_stop_rule(self):
        """--gap, --stall and --max-iters default to StopRule()'s fields."""
        for command in ("solve", "prune"):
            args = build_parser().parse_args([command, "m.uai"])
            assert _stop_rule(args) == StopRule()

    def test_gen_and_bench_share_instance_args(self):
        for kind, tail in [
            ("potts-grid", ["--hw", "3x4", "--labels", "3", "--coupling", "0.1,0.2", "--noise", "0,0.5"]),
            ("random-hyper", ["--nodes", "7", "--edge-prob", "0.3", "--hyper-count", "2", "--labels", "4"]),
            ("random-pairwise", ["--nodes", "5"]),
        ]:
            gen = build_parser().parse_args(["gen", "--kind", kind, *tail])
            bench = build_parser().parse_args(["bench", "--gen", kind, *tail])
            assert _spec_from_args(gen, 5) == _spec_from_args(bench, 5)

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        self.write_pendant(model_path)
        code = main(["solve", str(model_path), "--solver", "bruteforce", "--cap", "2"])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.uai"
        bad.write_text("BAYES\n")
        assert main(["solve", str(bad)]) == 1
