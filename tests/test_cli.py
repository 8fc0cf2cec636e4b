"""Tests for the experiment runner CLI."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minmin import Ball, Box, OracleLedger, VaidyaConfig, vaidya_minimize, write_iterations_csv
from minmin.cli import (
    BlockSet,
    ExperimentConfig,
    METHODS,
    _JointCallLedger,
    build_problem,
    compare,
    main,
    parse_synthetic,
    run_experiment,
)

QUADRATIC_SPEC = "quadratic:n=12,mu=0.5,components=6"


def quadratic_config(method="approach2", **overrides):
    settings = dict(
        method=method, d=2, eps=1e-4, seed=0, budget=4000,
        synthetic_spec=QUADRATIC_SPEC,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestParseSynthetic:
    def test_full_spec(self):
        kind, params = parse_synthetic("logreg:m=100,features=20")
        assert kind == "logreg"
        assert params == {"m": 100.0, "features": 20.0}

    def test_bare_kind_uses_defaults(self):
        assert parse_synthetic("quadratic") == ("quadratic", {})

    def test_whitespace_tolerated(self):
        kind, params = parse_synthetic("logreg: m=5 , features=3")
        assert kind == "logreg"
        assert params == {"m": 5.0, "features": 3.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            parse_synthetic("svm:m=5")

    def test_key_not_valid_for_kind(self):
        with pytest.raises(ValueError, match="bad synthetic parameter"):
            parse_synthetic("logreg:n=5")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="bad synthetic parameter"):
            parse_synthetic("logreg:m")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="bad synthetic value"):
            parse_synthetic("logreg:m=lots")


class TestExperimentConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(method="approach1", d=2, eps=1e-4, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(method="approach1", d=2, eps=1e-4, seed=0,
                             data_path="x.txt", synthetic_spec="quadratic")

    def test_rejects_bad_settings(self):
        base = dict(d=2, eps=1e-4, seed=0, synthetic_spec="quadratic")
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(method="newton", **base)
        with pytest.raises(ValueError, match="d must"):
            ExperimentConfig(method="approach1", **{**base, "d": 0})
        with pytest.raises(ValueError, match="eps"):
            ExperimentConfig(method="approach1", **{**base, "eps": 0.0})
        with pytest.raises(ValueError, match="reg"):
            ExperimentConfig(method="approach1", reg=-0.1, **base)
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig(method="approach1", budget=0, **base)


class TestBlockSet:
    def build(self):
        return BlockSet(
            Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            Ball(np.array([0.0, 0.0, 0.0]), 2.0),
        )

    def test_dimension_center_and_split(self):
        joint = self.build()
        assert joint.dim == 5
        assert_allclose(joint.center, np.zeros(5))
        a, b = joint.split(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert_allclose(a, [1.0, 2.0])
        assert_allclose(b, [3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="dimension"):
            joint.split(np.zeros(4))

    def test_projection_is_blockwise(self):
        joint = self.build()
        point = np.array([5.0, -5.0, 3.0, 0.0, 0.0])
        projected = joint.project(point)
        assert_allclose(projected[:2], [1.0, -1.0])
        assert_allclose(projected[2:], [2.0, 0.0, 0.0])
        assert joint.contains(projected)
        assert not joint.contains(point)

    def test_diameter_combines_in_quadrature(self):
        joint = self.build()
        expected = math.hypot(2.0 * math.sqrt(2.0), 4.0)
        assert joint.diameter() == pytest.approx(expected, rel=1e-15)

    def test_bounding_box_stacks_blocks(self):
        box = self.build().bounding_box()
        assert_allclose(box.lower, [-1.0, -1.0, -2.0, -2.0, -2.0])
        assert_allclose(box.upper, [1.0, 1.0, 2.0, 2.0, 2.0])


class TestJointCallLedger:
    def test_grad_y_charges_are_mirrored(self):
        ledger = _JointCallLedger()
        ledger.add_grad_y(3)
        assert ledger.grad_y_calls == 3
        assert ledger.grad_x_calls == 3
        ledger.add_grad_x(2)
        assert ledger.grad_x_calls == 5
        assert ledger.grad_y_calls == 3


class TestBuildProblem:
    def test_quadratic_has_target_and_joint_bounds(self):
        built = build_problem(quadratic_config())
        assert built.problem.x_dim == 2 and built.problem.y_dim == 12
        assert built.target is not None
        assert built.joint_lipschitz is not None
        assert len(built.joint_lipschitz) == 6

    def test_quadratic_without_components_lacks_joint_bounds(self):
        built = build_problem(quadratic_config(synthetic_spec="quadratic:n=12"))
        assert built.problem.components is None
        assert built.joint_lipschitz is None

    def test_logreg_has_no_target(self):
        cfg = ExperimentConfig(method="approach2", d=3, eps=1e-3, seed=1,
                               synthetic_spec="logreg:m=30,features=10")
        built = build_problem(cfg)
        assert built.target is None
        assert built.problem.x_dim == 3 and built.problem.y_dim == 7
        assert len(built.joint_lipschitz) == 30

    def test_data_path_loads_file(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1 1:1.0 2:2.0 3:0.5\n-1 1:-1.0 2:1.0 3:-0.5\n",
                        encoding="utf-8")
        cfg = ExperimentConfig(method="approach1", d=1, eps=1e-3, seed=0,
                               data_path=str(path))
        built = build_problem(cfg)
        assert built.problem.x_dim == 1 and built.problem.y_dim == 2


class TestRunExperiment:
    @pytest.mark.parametrize("method", ["approach1", "approach2"])
    def test_nested_methods_reach_target(self, method, tmp_path):
        cfg = quadratic_config(method=method)
        summary, history = run_experiment(cfg, tmp_path)
        built = build_problem(cfg)
        assert summary["best_value"] <= built.target
        assert summary["stop_reason"] == "stop_condition"
        assert (tmp_path / "history.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert len(history) > 1

    def test_joint_method_respects_budget_with_mirrored_calls(self, tmp_path):
        cfg = quadratic_config(method="varag-joint", budget=2000)
        summary, _ = run_experiment(cfg, tmp_path)
        assert summary["grad_y_calls"] <= 2000 + 6 + 2
        assert summary["grad_x_calls"] == summary["grad_y_calls"]
        assert summary["stop_reason"] in ("target", "budget")

    def test_summary_file_round_trips(self, tmp_path):
        cfg = quadratic_config()
        summary, _ = run_experiment(cfg, tmp_path)
        text = (tmp_path / "summary.txt").read_text(encoding="utf-8")
        parsed = dict(line.split("=", 1) for line in text.splitlines())
        assert parsed["method"] == "approach2"
        assert int(parsed["grad_y_calls"]) == summary["grad_y_calls"]
        assert float(parsed["best_value"]) == summary["best_value"]

    @pytest.mark.parametrize("method", ["approach2", "varag-joint"])
    def test_history_csv_is_byte_identical_across_reruns(self, method, tmp_path):
        cfg = quadratic_config(method=method, budget=1500)
        run_experiment(cfg, tmp_path / "first")
        run_experiment(cfg, tmp_path / "second")
        first = (tmp_path / "first" / "history.csv").read_bytes()
        second = (tmp_path / "second" / "history.csv").read_bytes()
        assert first == second
        assert b"\r" not in first

    def test_history_written_even_when_the_run_fails(self, tmp_path):
        # varag-joint on a problem without a finite-sum split fails fast, but
        # the (empty) history file must still appear.
        cfg = quadratic_config(method="varag-joint",
                               synthetic_spec="quadratic:n=12")
        with pytest.raises(ValueError, match="finite-sum"):
            run_experiment(cfg, tmp_path)
        assert (tmp_path / "history.csv").read_text(encoding="utf-8").startswith("step,")
        assert not (tmp_path / "summary.txt").exists()

    def test_logreg_run_under_budget(self, tmp_path):
        cfg = ExperimentConfig(method="approach2", d=2, eps=1e-3, seed=0,
                               budget=3000, synthetic_spec="logreg:m=30,features=10")
        summary, _ = run_experiment(cfg, tmp_path)
        assert summary["grad_y_calls"] <= 3000 + 30
        assert summary["best_value"] < math.log(2.0)  # beats the zero vector


class TestCompare:
    def test_nested_vs_joint(self, tmp_path):
        cfg_a = quadratic_config(method="approach2", budget=2500)
        cfg_b = quadratic_config(method="varag-joint", budget=2500)
        verdict = compare(cfg_a, cfg_b, tmp_path)
        assert verdict["method_a"] == "approach2"
        assert verdict["method_b"] == "varag-joint"
        assert verdict["winner"] in ("approach2", "varag-joint", "tie")
        assert (tmp_path / "a" / "history.csv").exists()
        assert (tmp_path / "b" / "history.csv").exists()

        lines = (tmp_path / "compare.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "grad_y,obj_a,obj_b"
        grid = [int(line.split(",")[0]) for line in lines[1:]]
        assert grid == sorted(set(grid))
        # Both methods log a row at zero spend, so no leading gaps appear.
        first = lines[1].split(",")
        assert first[0] == "0"
        assert math.isfinite(float(first[1])) and math.isfinite(float(first[2]))
        # Running-best curves never increase.
        for column in (1, 2):
            values = [float(line.split(",")[column]) for line in lines[1:]]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_configs_must_match_except_method(self, tmp_path):
        cfg_a = quadratic_config(method="approach1")
        cfg_b = quadratic_config(method="approach2", seed=1)
        with pytest.raises(ValueError, match="differ only in the method"):
            compare(cfg_a, cfg_b, tmp_path)


class TestArtifactBytes:
    """Exact bytes of the written artifacts on small seeded runs: UTF-8, LF
    line ends, one trailing newline, floats by ``repr``."""

    def test_run_summary(self, tmp_path):
        run_experiment(quadratic_config(method="approach1", budget=1500), tmp_path)
        assert (tmp_path / "summary.txt").read_bytes() == (
            b"method=approach1\n"
            b"target_eps=0.0001\n"
            b"outer_iters=8\n"
            b"grad_x_calls=48\n"
            b"grad_y_calls=48\n"
            b"inversions=21\n"
            b"best_value=0.00033692305842045737\n"
            b"stop_reason=stop_condition\n"
        )

    def test_compare_summary_and_csv(self, tmp_path):
        compare(quadratic_config(method="approach2", budget=1500),
                quadratic_config(method="varag-joint", budget=1500), tmp_path)
        assert (tmp_path / "summary.txt").read_bytes() == (
            b"method_a=approach2\n"
            b"final_a=0.00033692305842045737\n"
            b"method_b=varag-joint\n"
            b"final_b=0.00032988618788933337\n"
            b"winner=varag-joint\n"
        )
        data = (tmp_path / "compare.csv").read_bytes()
        assert data.startswith(b"grad_y,obj_a,obj_b\n0,0.0004157472925175891,0.0004157472925175891\n")
        assert (len(data), data.count(b"\n")) == (1021, 22)
        assert hashlib.sha256(data).hexdigest() == (
            "461c65fc6be2d1d1cdcdcf3156b040feb29586130167e526ae14f3b18d748ea4"
        )

    def test_iterations_csv_to_path(self, tmp_path):
        target = np.array([0.3, -0.2])
        oracle = lambda x: (float((x - target) @ (x - target)), 2.0 * (x - target))
        result = vaidya_minimize(oracle, 2, Box(-np.ones(2), np.ones(2)),
                                 VaidyaConfig(max_iterations=5))
        write_iterations_csv(result.iterations, tmp_path / "iterations.csv")
        assert (tmp_path / "iterations.csv").read_bytes() == (
            b"k,m_rows,min_sigma,action,f_best\n"
            b"0,4,0.4999999999999999,add,0.13\n"
            b"1,5,0.015250801161414855,add,0.12934994332295557\n"
            b"2,6,0.015013409707598135,add,0.12869537120389707\n"
            b"3,7,0.014779701519062724,add,0.12803627930747355\n"
            b"4,8,0.014549620242682713,add,0.1273727023861543\n"
        )


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main([
            "run", "--synthetic", QUADRATIC_SPEC, "--d", "2",
            "--eps", "1e-4", "--budget", "2000", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "method=approach2" in out
        assert "stop_reason=" in out
        assert (tmp_path / "summary.txt").exists()

    def test_run_with_explicit_method(self, tmp_path, capsys):
        code = main([
            "run", "--method", "varag-joint", "--synthetic", QUADRATIC_SPEC,
            "--d", "2", "--eps", "1e-4", "--budget", "1000",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "method=varag-joint" in capsys.readouterr().out

    def test_compare_subcommand(self, tmp_path, capsys):
        code = main([
            "compare", "--method-a", "approach1", "--method-b", "approach2",
            "--synthetic", QUADRATIC_SPEC, "--d", "2", "--eps", "1e-4",
            "--budget", "2000", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner=" in out
        assert (tmp_path / "compare.csv").exists()

    def test_bad_spec_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "run", "--synthetic", "bogus:m=1", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_arguments_exit_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--synthetic", "quadratic"])
        capsys.readouterr()

    def test_methods_tuple_matches_parser_choices(self):
        assert METHODS == ("approach1", "approach2", "varag-joint")
