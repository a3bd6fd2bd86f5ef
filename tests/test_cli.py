import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import wta
from wta import (
    IntegratorOptions,
    OptimizeProblem,
    analysis,
    check_interactions,
    classify_equilibrium,
    default_interaction,
    dynamics,
    entropy,
    evaluate_choice,
    experiments,
    graph,
    greedy_search,
    integrate,
    interaction_from_names,
    linearize_at,
    new_graph,
    optimize,
    perturb_and_escape,
    prepare_state,
    random_graph,
    run_experiment,
    step,
    sweep_initial_value,
    symmetric_eigenvalues,
    vector_field,
)
from wta.cli import _problem_from_config, main
from wta.errors import (ComponentTooSmallError, ConfigError, InvalidProbabilityError,
                        NonFiniteStateError, TooManyCandidatesError)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_config(tmp_path, **overrides):
    cfg = {
        "graph": {"inline": {"n": 2, "edges": [[0, 1, 1.0]]}},
        "x0": {"inline": [2.0, 1.0]},
        "direction": "forward",
        "integrator": {"dt": 1e-3, "t_end": 10.0, "record_stride": 100},
    }
    cfg.update(overrides)
    return write(tmp_path / "run.json", cfg)


class TestSimulate:
    def test_two_agent_run(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classification"]["class"] == "E_s"
        final = np.array(report["final_state"])
        assert np.abs(final - [3.0, 0.0]).max() < 1e-6
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert abs(float(last[1]) - 3.0) < 1e-6

    def test_reverse_consensus(self, tmp_path):
        cfg = run_config(
            tmp_path,
            graph={"random": {"n": 12, "p": 0.8, "seed": 5}},
            x0={"random": {"low": 0.2, "high": 1.0, "seed": 6}},
            direction="reverse",
            integrator={"dt": 1e-2, "t_end": 40.0, "record_stride": 100},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        last = [float(v) for v in rows[-1].split(",")]
        n = 12
        assert last[n + 3] - last[n + 4] < 1e-6  # max - min
        assert last[n + 2] < 1e-10  # entropy

    def test_malformed_config_exits_1_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        for name in ("trajectory.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_entropy_past_double_range_leaves_stderr_empty(self, tmp_path, capsys):
        cfg = run_config(tmp_path, graph={"inline": {"n": 3, "edges": []}},
                         x0={"inline": [1e200, 2e200, 0]},
                         integrator={"dt": 0.1, "t_end": 0.3})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet", "--svg"]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "trajectory.csv").read_text().splitlines()
        # columns t, x_0, x_1, x_2, mass, entropy, ...
        assert [row.split(",")[5] for row in rows[1:]] == ["inf"] * 4

    def test_non_finite_state_exits_1(self, tmp_path, capsys):
        cfg = run_config(tmp_path, x0={"inline": [float("nan"), 1.0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "NaN or infinite" in err and "stiffness" not in err

    @pytest.mark.parametrize("overrides", [
        {"graph": {"random": {"p": 0.1}}},
        {"integrator": {"dt": "0.1"}},
        {"graph": {"random": {"n": "abc", "p": 0.1}}},
        {"x0": {"inline": ["a", 1]}},
        {"graph": {"inline": {"n": 2, "edges": [[0, 1, "x"]]}}},
        {"x0": "inline"},
        {"graph": {"file": "/nonexistent/graph.json"}},
        {"graph": {"inline": {"n": 2, "edges": 5}}},
        {"graph": {"file": 5}},
        {"graph": {"random": {"n": "5", "p": 0.5}}},
        {"graph": {"random": {"n": 2, "p": 0.5, "seed": -3}}},
        {"integrator": 5},
        {"integrator": {"record_stride": 1.5}},
        {"integrator": {"dt": True}},
        {"integrator": {"positivity_shrink": "a"}},
        {"integrator": {"t_end": float("inf")}},
        {"interaction": {"f": ["x"]}},
        {"interaction": "cubic"},
        {"x0": {"random": {"seed": -1}}},
        {"x0": {"random": {"low": float("nan")}}},
        {"graph": {"inline": {"n": 10**10, "edges": []}}},
        {"graph": {"random": {"n": 10**10, "p": 0.0}}},
        {"integrator": {"t_end": 2**64, "dt": 1e-3}},
        {"graph": {"random": {"n": 1048576, "p": 1.0}}},
        {"graph": {"random": {"n": 1048576, "p": 1e-5}}},
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, overrides):
        cfg = run_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflow_is_reported_as_overflow(self, tmp_path, capsys):
        cfg = run_config(tmp_path, graph={"inline": {"n": 2, "edges": [[0, 1, 1e300]]}},
                         x0={"inline": [1e100, 2e100]})
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "overflowed" in err and "halved" not in err

    def test_report_names_the_field_kernel(self, tmp_path):
        out = tmp_path / "pair"
        assert main(["simulate", "--config", run_config(tmp_path),
                     "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "report.json").read_text())["field_kernel"] == "edge"
        cfg = run_config(
            tmp_path,
            graph={"random": {"n": 100, "p": 0.8, "seed": 0}},
            x0={"random": {"seed": 1}},
            integrator={"dt": 1e-3, "t_end": 0.05, "record_stride": 10},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert json.loads((out_a / "report.json").read_text())["field_kernel"] == "dense"
        for name in ("trajectory.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_svg_does_not_alter_data(self, tmp_path):
        cfg = run_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b),
                     "--quiet", "--svg"]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()
        assert (out_b / "trajectory.svg").exists()
        assert (out_b / "entropy.svg").exists()


class TestClassify:
    def graph_file(self, tmp_path):
        return write(
            tmp_path / "g.json", {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
        )

    def run(self, tmp_path, capsys, x, graph=None):
        gf = graph or self.graph_file(tmp_path)
        sf = write(tmp_path / "s.json", {"x": x})
        code = main(["classify", "--graph", gf, "--state", sf])
        return code, json.loads(capsys.readouterr().out)

    def test_stable(self, tmp_path, capsys):
        code, report = self.run(tmp_path, capsys, [1.0, 0.0, 1.0])
        assert code == 0 and report["class"] == "E_s"

    def test_unstable(self, tmp_path, capsys):
        gf = write(tmp_path / "g2.json", {"n": 2, "edges": [[0, 1, 1.0]]})
        sf = write(tmp_path / "s2.json", {"x": [1.0, 1.0]})
        assert main(["classify", "--graph", gf, "--state", sf]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "E_u"

    def test_not_equilibrium_still_exit_0(self, tmp_path, capsys):
        gf = write(tmp_path / "g3.json", {"n": 2, "edges": [[0, 1, 1.0]]})
        sf = write(tmp_path / "s3.json", {"x": [2.0, 1.0]})
        assert main(["classify", "--graph", gf, "--state", sf]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "not_equilibrium"

    def test_dimension_error_exit_1(self, tmp_path, capsys):
        code, = (main(["classify", "--graph", self.graph_file(tmp_path),
                       "--state", write(tmp_path / "s4.json", {"x": [1.0]})]),)
        assert code == 1

    def test_state_object_without_x_exit_1(self, tmp_path, capsys):
        sf = write(tmp_path / "s5.json", {"y": [1.0, 2.0]})
        assert main(["classify", "--graph", self.graph_file(tmp_path), "--state", sf]) == 1
        assert '"x"' in capsys.readouterr().err


def optimize_config(tmp_path, n=2, **overrides):
    cfg = {
        "graph": {"inline": {"n": n, "edges": []}},
        "alpha": 0,
        "x_alpha0": 2.0,
        "x0_others": [1.0] * (n - 1),
        "horizon": 10.0,
        "integrator": {"dt": 1e-3, "stop_on_equilibrium": True},
    }
    cfg.update(overrides)
    return write(tmp_path / "opt.json", cfg)


class TestOptimize:
    def test_two_agent_exhaustive(self, tmp_path):
        cfg = optimize_config(tmp_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        res = json.loads((out / "optimize.json").read_text())
        assert res["best_mask"] == "1"
        assert abs(res["best_value"] - 3.0) < 1e-6

    def test_greedy_byte_identical_reruns(self, tmp_path):
        cfg = optimize_config(tmp_path, n=5, x0_others=[1.0, 0.4, 0.2, 0.9],
                              horizon=3.0)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["optimize", "--config", cfg, "--mode", "greedy",
                         "--out", str(out), "--seed", "7", "--quiet"]) == 0
        assert (out_a / "optimize.json").read_bytes() == (
            out_b / "optimize.json"
        ).read_bytes()

    @pytest.mark.parametrize("flags, overrides", [
        ([], {"x_alpha0": "abc"}),
        (["--mode", "greedy"], {"greedy": {"restarts": "x"}}),
        (["--sweep"], {"sweep_grid": {"count": "x"}}),
        ([], {"horizon": float("inf")}),
        ([], {"alpha": 1.7}),
        ([], {"alpha": True}),
        (["--mode", "greedy"], {"greedy": {"seed": -1}}),
        (["--mode", "greedy"], {"greedy": {"restarts": -5}}),
        (["--mode", "greedy"], {"greedy": {"restarts": 2.5}}),
        (["--sweep"], {"sweep_grid": {"count": 1e9}}),
        (["--sweep"], {"sweep_grid": {"count": 2**24 + 1}}),
        (["--sweep"], {"sweep_grid": {"count": 0}}),
        (["--sweep", "--svg"], {"sweep_grid": []}),
        (["--mode", "greedy"], {"greedy": {"restarts": 10**12}}),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, flags, overrides):
        cfg = optimize_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--out", str(out),
                     "--quiet", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_guard_exit_3(self, tmp_path):
        cfg = optimize_config(tmp_path, n=26, x0_others=[1.0] * 25)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 3

    def test_greedy_on_64_candidates_exits_3(self, tmp_path, capsys):
        # its start masks are drawn as int64, so greedy takes at most 63
        cfg = optimize_config(tmp_path, n=65)
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--mode", "greedy", "--out", str(out),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, overrides, leaf", [
        (["--mode", "greedy"], {"greedy": {"restarts": optimize.MAX_RESTARTS + 1}},
         "greedy.restarts"),
        (["--sweep"], {"sweep_grid": []}, "sweep_grid"),
    ])
    def test_bound_error_names_the_leaf(self, tmp_path, capsys, flags, overrides, leaf):
        cfg = optimize_config(tmp_path, **overrides)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet", *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {leaf} ")

    def test_sweep_guard_counts_grid_points_times_masks(self, tmp_path):
        # 2^8 masks at each of 2^16 + 1 grid points is just over 2^24
        cfg = optimize_config(tmp_path, n=9, x0_others=[1.0] * 8,
                              sweep_grid={"count": 2**16 + 1})
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--sweep", "--out", str(out),
                     "--quiet"]) == 3
        assert not out.exists()

    def test_sweep_csv(self, tmp_path):
        cfg = optimize_config(
            tmp_path, horizon=2.0,
            sweep_grid={"start": 0.0, "stop": 1.0, "count": 3},
        )
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--sweep", "--out", str(out),
                     "--svg", "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "x_alpha0,mask,final_value"
        assert len(lines) == 1 + 3 * 2
        assert (out / "sweep.svg").exists()


class TestExperiment:
    def test_unknown_name_exit_1(self, tmp_path):
        assert main(["experiment", "fig9_nope", "--out", str(tmp_path)]) == 1

    def test_fig4_small_scale(self, tmp_path):
        out = tmp_path / "fig4"
        assert main(["experiment", "fig4_nine_agents", "--seed", "3",
                     "--out", str(out), "--agents", "6", "--t-end", "3.0",
                     "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["parameters"]["agents"] == 6
        assert (out / "fig4_trajectories.csv").exists()

    def test_manifest_reruns_byte_identical(self, tmp_path):
        args = ["experiment", "fig3_entropy", "--seed", "2", "--agents", "25",
                "--dt", "0.002", "--quiet"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("fig3_entropy.csv", "manifest.json", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_fig3_first_reverse_stamp_reads_0(self, tmp_path):
        """tau = 0 is written at negative time as 0, not -0, and each row as
        the per-value f-strings wrote it."""
        assert main(["experiment", "fig3_entropy", "--agents", "8", "--t-end", "0.05",
                     "--quiet", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig3_entropy.csv").read_text().splitlines()
        assert lines[0] == "branch,t,entropy"
        assert lines[1].startswith("reverse,0,")
        for line in lines[1:]:
            branch, t, h = line.split(",")
            assert line == f"{branch},{float(t):.17g},{float(h):.17g}"


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--seed", str(2**64)],
    ["simulate", "--seed", "1.5"],
    ["classify", "--zero-tol", "nan"],
    ["classify", "--equal-tol", "-1"],
    ["classify", "--graph", "/nonexistent/graph.json"],
    ["experiment", "fig5_sweep", "--grid-count", str(2**24 + 1)],
    ["experiment", "fig1_bars", "--t-end", "inf"],
    ["experiment", "fig1_bars", "--agents", "0"],
    ["experiment", "fig1_bars", "--agents", "10000000000"],
    ["experiment", "fig1_bars", "--t-end", "1e6"],
    ["experiment", "fig5_sweep", "--horizon", "1e7"],
])
def test_bad_flag_exits_1(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = [argv[0], "--config", run_config(tmp_path), *argv[1:]]
    if argv[0] == "classify":
        graph = write(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1.0]]})
        state = write(tmp_path / "s.json", {"x": [1.0, 1.0]})
        # a later --graph in argv wins over this one
        argv = [argv[0], "--graph", graph, "--state", state, *argv[1:]]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# --- the library entry points apply the CLI's checks ---


def problem(**fields):
    spec = {"base_graph": new_graph(2, []), "alpha": 0, "x_alpha0": 2.0,
            "x0_others": (1.0,), "horizon": 1.0,
            "options": IntegratorOptions(dt=1e-2, stop_on_equilibrium=True), **fields}
    return OptimizeProblem(**spec)


def experiment(out, seed=0, **overrides):
    return run_experiment("fig5_sweep", out, seed=seed, overrides=overrides)


PAIR = new_graph(2, [(0, 1, 1.0)])  # [1, 1] on it is an E_u state


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda out: random_graph(5, True), ConfigError, id="p-bool"),
    pytest.param(lambda out: random_graph(5, "0.5"), ConfigError, id="p-string"),
    pytest.param(lambda out: random_graph(5, 1.5), InvalidProbabilityError, id="p-range"),
    pytest.param(lambda out: random_graph(5, 0.5, ("uniform", "0.1", 1.0)), ConfigError,
                 id="uniform-low-string"),
    pytest.param(lambda out: random_graph(5, 0.5, ("uniform", 1.0, 0.5)), ConfigError,
                 id="uniform-high-below-low"),
    pytest.param(lambda out: experiment(out, agents=9.7), ConfigError, id="agents-float"),
    pytest.param(lambda out: experiment(out, agents=True), ConfigError, id="agents-bool"),
    pytest.param(lambda out: experiment(out, dt="abc"), ConfigError, id="dt-string"),
    pytest.param(lambda out: experiment(out, grid_count=0), ConfigError, id="grid-count-0"),
    pytest.param(lambda out: experiment(out, seed=-1), ConfigError, id="seed-negative"),
    pytest.param(lambda out: run_experiment(["fig5_sweep"], out), ConfigError,
                 id="experiment-name-list"),
    pytest.param(lambda out: run_experiment("fig5_sweep", out, overrides=[1]), ConfigError,
                 id="overrides-list"),
    pytest.param(lambda out: greedy_search(problem(), restarts=0), ConfigError,
                 id="restarts-0"),
    pytest.param(lambda out: greedy_search(problem(), restarts=True), ConfigError,
                 id="restarts-bool"),
    pytest.param(lambda out: greedy_search(problem(), restarts=optimize.MAX_RESTARTS + 1),
                 ConfigError, id="restarts-past-bound"),
    pytest.param(lambda out: problem(x_alpha0="0.5"), ConfigError, id="x_alpha0-string"),
    pytest.param(lambda out: problem(x0_others=("1.0",)), ConfigError, id="x0_others-string"),
    pytest.param(lambda out: problem(alpha=True), ConfigError, id="alpha-bool"),
    pytest.param(lambda out: problem(horizon=float("inf")), ConfigError, id="horizon-inf"),
    pytest.param(lambda out: problem(candidate_weight=float("inf")), ConfigError,
                 id="candidate-weight-inf"),
    pytest.param(lambda out: sweep_initial_value(problem(), ["0.5"]), ConfigError,
                 id="grid-string"),
    pytest.param(lambda out: sweep_initial_value(problem(), [True]), ConfigError,
                 id="grid-bool"),
    pytest.param(lambda out: sweep_initial_value(problem(), []), ConfigError, id="grid-empty"),
    pytest.param(lambda out: IntegratorOptions(stop_on_equilibrium=1), ConfigError,
                 id="stop-on-equilibrium-int"),
    pytest.param(lambda out: problem(options=None), ConfigError, id="options-none"),
    pytest.param(lambda out: problem().graph_for_mask(True), ConfigError, id="mask-bool"),
    pytest.param(lambda out: evaluate_choice(problem(), 1.0), ConfigError, id="mask-float"),
    pytest.param(lambda out: evaluate_choice(problem(), 2), ConfigError, id="mask-range"),
    pytest.param(lambda out: evaluate_choice(problem(), 1, "0.5"), ConfigError,
                 id="evaluate-x_alpha0-string"),
    pytest.param(lambda out: greedy_search(problem(base_graph=new_graph(65, []),
                                                   x0_others=(1.0,) * 64)),
                 TooManyCandidatesError, id="greedy-64-candidates"),
    pytest.param(lambda out: classify_equilibrium(PAIR, [1.0, 1.0], zero_tol=float("nan")),
                 ConfigError, id="zero-tol-nan"),
    pytest.param(lambda out: classify_equilibrium(PAIR, [1.0, 1.0], zero_tol=-1.0),
                 ConfigError, id="zero-tol-negative"),
    pytest.param(lambda out: classify_equilibrium(PAIR, [1.0, 1.0], zero_tol="1e-8"),
                 ConfigError, id="zero-tol-string"),
    pytest.param(lambda out: classify_equilibrium(PAIR, [1.0, 1.0], equal_tol=float("nan")),
                 ConfigError, id="equal-tol-nan"),
    pytest.param(lambda out: step(PAIR, [1.0, 1.0], "0.1"), ConfigError, id="step-dt-string"),
    pytest.param(lambda out: step(PAIR, [1.0, 1.0], -1.0), ConfigError, id="step-dt-negative"),
    pytest.param(lambda out: step(PAIR, [1.0, 1.0], float("nan")), ConfigError, id="step-dt-nan"),
    pytest.param(lambda out: step(PAIR, [1.0, 1.0], 0.1, positivity_shrink=True),
                 ConfigError, id="positivity-shrink-bool"),
    pytest.param(lambda out: step(PAIR, [1.0, 1.0], 0.1, positivity_shrink=-1),
                 ConfigError, id="positivity-shrink-negative"),
    pytest.param(lambda out: random_graph(5, 0.5, seed=-1), ConfigError,
                 id="random-graph-seed-negative"),
    pytest.param(lambda out: random_graph(5, 0.5, seed=1.5), ConfigError,
                 id="random-graph-seed-float"),
    pytest.param(lambda out: greedy_search(problem(), seed=-1), ConfigError,
                 id="greedy-seed-negative"),
    pytest.param(lambda out: greedy_search(problem(), seed=2**64), ConfigError,
                 id="greedy-seed-too-large"),
    pytest.param(lambda out: perturb_and_escape(PAIR, [1.0, 1.0], seed=-1), ConfigError,
                 id="escape-seed-negative"),
    pytest.param(lambda out: perturb_and_escape(PAIR, [1.0, 1.0], magnitude=float("nan")),
                 ConfigError, id="escape-magnitude-nan"),
    pytest.param(lambda out: perturb_and_escape(PAIR, [1.0, 1.0], magnitude=-1.0),
                 ConfigError, id="escape-magnitude-negative"),
    pytest.param(lambda out: sweep_initial_value(problem(), 0.5), ConfigError,
                 id="grid-not-a-list"),
    pytest.param(lambda out: check_interactions(default_interaction(), seed=-1), ConfigError,
                 id="check-seed-negative"),
    pytest.param(lambda out: check_interactions(default_interaction(), samples=0), ConfigError,
                 id="check-samples-0"),
    pytest.param(lambda out: check_interactions(default_interaction(), samples=True),
                 ConfigError, id="check-samples-bool"),
    pytest.param(lambda out: check_interactions(default_interaction(), sample_range=(1.0, 1.0)),
                 ConfigError, id="check-range-empty"),
    pytest.param(lambda out: check_interactions(default_interaction(), sample_range=(-1.0, 1.0)),
                 ConfigError, id="check-range-negative"),
    pytest.param(lambda out: check_interactions(default_interaction(), sample_range=(1.0,)),
                 ConfigError, id="check-range-one-number"),
    pytest.param(lambda out: linearize_at(PAIR, classify_equilibrium(PAIR, [1.0, 1.0]), -1),
                 ConfigError, id="component-index-negative"),
    pytest.param(lambda out: linearize_at(PAIR, classify_equilibrium(PAIR, [1.0, 1.0]), "a"),
                 ConfigError, id="component-index-string"),
    pytest.param(lambda out: linearize_at(PAIR, classify_equilibrium(PAIR, [1.0, 1.0]), 1),
                 ComponentTooSmallError, id="component-index-past-end"),
    pytest.param(lambda out: prepare_state("abc", 2), ConfigError, id="prepare-state-string"),
    pytest.param(lambda out: vector_field(PAIR, "abc"), ConfigError, id="field-state-string"),
    pytest.param(lambda out: entropy("abc"), ConfigError, id="entropy-string"),
    pytest.param(lambda out: symmetric_eigenvalues("a"), ConfigError, id="eigenvalues-string"),
    pytest.param(lambda out: entropy([float("nan")]), NonFiniteStateError, id="entropy-nan"),
    pytest.param(lambda out: symmetric_eigenvalues([[float("nan")]]), NonFiniteStateError,
                 id="eigenvalues-nan"),
    pytest.param(lambda out: interaction_from_names("x"), ConfigError, id="interaction-f-name"),
    pytest.param(lambda out: interaction_from_names(g="x"), ConfigError,
                 id="interaction-g-name"),
])
def test_library_boundary_rejects_bad_input(tmp_path, call, error):
    """Each entry point named in README "CLI" rejects what the CLI rejects,
    with the package's own exception and before any output is written."""
    out = tmp_path / "out"
    with pytest.raises(error):
        call(out)
    assert not out.exists()


def test_package_api_is_the_module_lists():
    """wta.__all__ is __version__ and each library module's __all__, in
    order: the one list of public names, each bound to its module's object."""
    modules = (graph, dynamics, integrate, analysis, optimize, experiments)
    names = [name for module in modules for name in module.__all__]
    assert wta.__all__ == ["__version__", *names]
    assert len(set(wta.__all__)) == len(wta.__all__)
    assert not [name for name in names if name.startswith("_")]
    for module in modules:
        for name in module.__all__:
            assert getattr(wta, name) is getattr(module, name)


def test_library_boundary_keeps_normalized_values():
    p = problem(alpha=np.int64(0), x_alpha0=2, x0_others=[1], horizon=np.float64(1.0))
    assert (p.alpha, p.x_alpha0, p.x0_others, p.horizon) == (0, 2.0, (1.0,), 1.0)
    assert [type(v) for v in (p.alpha, p.x_alpha0, p.x0_others[0], p.horizon)] == [
        int, float, float, float]


# --- the README's example configs, and every leaf of them mutated ---

README_CONFIGS = {  # subcommand -> its example config
    "optimize" if "alpha" in cfg else "simulate": cfg
    for cfg in map(json.loads, re.findall(
        r"```json\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S))
}
MUTATIONS = [True, "x", [], {}, float("nan"), -1, 1.5]


@pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
def test_evaluate_choice_same_bits_as_recorded_run(monkeypatch, stop):
    """evaluate_choice records only its first and last stamps, and alpha's
    final value has the bits of a run that records every step, on every
    mask of the README optimize arena. Horizon 0.7 (70 steps) keeps each
    case's 512 runs near 1.5 s; tolerance 0.2 stops 32 masks, at steps 39
    to 67, where the README's 1e-10 stops none."""
    p = _problem_from_config(README_CONFIGS["optimize"], 0)
    options = dataclasses.replace(p.options, stop_on_equilibrium=stop, equilibrium_tol=0.2)
    p = dataclasses.replace(p, horizon=0.7, options=options)
    recorded = dataclasses.replace(options, t_end=p.horizon, record_stride=1)
    stamps = []

    def counting_simulate(*args):
        traj, audit = integrate.simulate(*args)
        stamps.append(len(traj.times))
        return traj, audit

    monkeypatch.setattr(optimize, "simulate", counting_simulate)
    stopped = 0
    for mask in range(1 << p.num_candidates):
        traj, _audit = integrate.simulate(p.graph_for_mask(mask), p.initial_state(), recorded)
        assert evaluate_choice(p, mask) == traj.final_state[p.alpha], mask
        stopped += traj.metadata["stopped_at_equilibrium"]
    assert stamps == [2] * (1 << p.num_candidates)
    assert stopped == (32 if stop else 0)


def leaf_paths(node, path=()):
    """Key and index paths to every scalar in a JSON value."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from leaf_paths(child, path + (key,))
    else:
        yield path


def replace_leaf(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_readme_config_leaf_mutations(tmp_path, capsys, command):
    """Each README config runs; with any one leaf replaced by a value of
    the wrong type or range, a run either succeeds or exits 1 with one
    error line and no output directory, never with a traceback."""
    cfg = README_CONFIGS[command]
    out = tmp_path / "out"

    def run(config, flags):
        path = write(tmp_path / "cfg.json", config)
        code = main([command, "--config", path, "--out", str(out), "--quiet", *flags])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
        shutil.rmtree(out, ignore_errors=True)
        return code

    modes = [[], ["--mode", "greedy"], ["--sweep"]] if command == "optimize" else [[]]
    for flags in modes:
        assert run(cfg, flags) == 0
    for path in leaf_paths(cfg):
        # greedy and sweep_grid are read only in their own mode; all modes
        # read the other leaves alike before they start, so exhaustive does
        flags = {"greedy": ["--mode", "greedy"], "sweep_grid": ["--sweep"]}.get(path[0], [])
        for value in MUTATIONS:
            mutated = replace_leaf(cfg, path, value)
            if json.dumps(mutated) != json.dumps(cfg):  # 1.5 may be the leaf's own value
                assert run(mutated, flags) in (0, 1), (path, value)


# --- outputs pinned by SHA-256 ---

# Every file these runs write is computed by elementwise ufuncs, bincount in
# edge order, exact max/min reduces, CPython sums and CPython formatting, so
# its bytes should not depend on the CPU. Files with a mass, entropy or
# audit value (np.add.reduce, np.var) and dense-kernel runs are left out.
# The JSON files embed wta.__version__.
PINNED_DIGESTS = {
    "exhaustive/optimize.json": "149882a1108bf3d12cdafd61e50826980a4c4e3be073271e81558824211d598c",
    "greedy/optimize.json": "add8bf39990ab7c1a25d4d49495fe7117204888e0919f33e9076426733fc8feb",
    "sweep/sweep.csv": "b77507472b4c985d3279a7182b060d54febd044dd3f881f40b0fae9ad3e9deec",
    "sweep/sweep.svg": "3d03bc647fc2f6d5e5fc3235802919746b322eec37b9d2c243833fffcd84fe2d",
    "fig5/fig5_sweep.csv": "cf926f74f122d9b7ee7e7fc3abc42c0245769d70bf216b406f9906f6e471852e",
    "fig5/fig5_sweep.svg": "f05d3b8549bc1087c6a662842157a8ab6e6b88181129838f454659c04e7f6db3",
    "fig5/manifest.json": "5cb14a735db19e658ebf431ce4e1ce4ee4838508ca5ed00967d4b76d843c986d",
    "fig5/report.json": "b9bb13c133b2041c5c582298a91b66019b51bfc58e91acff3db56903b9d6fe76",
}


def test_pinned_output_digests(tmp_path):
    """The README optimize example in each mode and a trimmed fig5_sweep
    write the same bytes as when their digests were pinned."""
    cfg = write(tmp_path / "optimize.json", README_CONFIGS["optimize"])
    runs = {
        "exhaustive": ["optimize", "--config", cfg, "--mode", "exhaustive"],
        "greedy": ["optimize", "--config", cfg, "--mode", "greedy"],
        "sweep": ["optimize", "--config", cfg, "--sweep", "--svg"],
        "fig5": ["experiment", "fig5_sweep", "--seed", "0", "--svg", "--grid-count", "4"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--quiet", "--out", str(tmp_path / name)]) == 0
    digests = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*/*")}
    assert sorted(digests) == sorted(PINNED_DIGESTS)
    changed = [name for name, digest in PINNED_DIGESTS.items() if digests[name] != digest]
    assert not changed, f"{changed} differ from their pinned SHA-256 under numpy {np.__version__}"
