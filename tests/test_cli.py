import dataclasses
import errno
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
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
    dynamics,
    entropy,
    evaluate_choice,
    experiments,
    graph,
    greedy_search,
    integrate,
    interaction_from_names,
    is_independent_set,
    laplacian,
    linearize_at,
    mask_to_bits,
    new_graph,
    optimize,
    perturb_and_escape,
    prepare_state,
    random_graph,
    reverse_vector_field,
    run_experiment,
    sweep_initial_value,
    symmetric_eigenvalues,
    vector_field,
)
import wta.cli
from wta.cli import _problem_from_config, build_parser, main
from wta.errors import (ComponentTooSmallError, ConfigError, InvalidProbabilityError,
                        NonFiniteStateError, PositivityFailureError, TooManyCandidatesError,
                        WtaError)

from canon import README_CONFIGS


PAIR_JSON = {"n": 2, "edges": [[0, 1, 1.0]]}
BAD_GRAPH = {**PAIR_JSON, "m": 1}  # graph JSON with a key no reader reads


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

    def test_t_end_past_the_step_bound_exits_1(self, tmp_path, capsys):
        cfg = run_config(tmp_path, integrator={"dt": 1e-3, "t_end": 1e6})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: t_end / dt = 1000000.0 / 0.001 is more than 100000000 steps\n")
        assert not out.exists()

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
        # a value past the double range is left out of each chart
        for name in ("trajectory.svg", "entropy.svg"):
            assert not re.search(r"\b(nan|inf)\b", (out / name).read_text()), name

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
        {"integrator": {"method": "euler"}},
        {"integrator": {"conservation_mode": "renormalize"}},
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

    def test_state_past_double_range_exits_2(self, tmp_path, capsys):
        # x_i * x_j overflows, and a NaN residual must not read as E_u
        gf = write(tmp_path / "t.json", {"n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0],
                                                           [1, 2, 1.0]]})
        sf = write(tmp_path / "s6.json", {"x": [1e200, 1e200, 1e200]})
        assert main(["classify", "--graph", gf, "--state", sf]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflowed" in captured.err and "NaN" not in captured.out

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

    def test_refused_count_grid_is_never_built(self, tmp_path):
        # the README arena and fig5's nine agents have 2^8 masks; 2^24 grid
        # points of either would be refused only after np.linspace had built
        # 128 MiB of them
        cfg = write(tmp_path / "opt.json",
                    dict(README_CONFIGS["optimize"], sweep_grid={"count": 2**24}))
        out = tmp_path / "o"
        for argv in (["optimize", "--config", cfg, "--sweep"],
                     ["experiment", "fig5_sweep", "--grid-count", str(2**24)]):
            tracemalloc.start()
            try:
                code = main([*argv, "--out", str(out), "--quiet"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 3
            assert peak < 8 << 20
            assert not out.exists()

    def test_oversized_sweep_svg_exits_1_before_any_lane(self, tmp_path, capsys, monkeypatch):
        # 257 grid points x 2^8 masks is just over SVG_POINTS_MAX (2^16)
        monkeypatch.setattr(wta.optimize, "_lane_values", fail(AssertionError("a lane ran")))
        configs = [write(tmp_path / f"{name}.json",
                         dict(README_CONFIGS["optimize"], sweep_grid=grid))
                   for name, grid in (("count", {"count": 257}), ("list", [0.5] * 257))]
        out = tmp_path / "o"
        for argv in (*(["optimize", "--config", cfg, "--sweep", "--svg"] for cfg in configs),
                     ["experiment", "fig5_sweep", "--svg", "--grid-count", "257"]):
            assert main([*argv, "--out", str(out), "--quiet"]) == 1
            assert capsys.readouterr().err == (
                "error: a sweep SVG of 257 grid point(s) x 2^8 masks is more than 65536 points\n")
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

    @pytest.mark.parametrize("block, run", [
        (None, (1e-2, True, 1e-10)),
        ({}, (1e-2, True, 1e-10)),
        ({"dt": 0.05}, (0.05, False, 1e-10)),
        ({"stop_on_equilibrium": True}, (1e-3, True, 1e-10)),
    ], ids=["no-block", "empty", "dt", "stop"])
    def test_integrator_block_replaces_defaults_as_a_whole(self, block, run):
        """A non-empty optimize integrator block replaces the problem's run
        settings as a whole: a key it leaves out takes IntegratorOptions'
        default, not the problem's."""
        cfg = {key: value for key, value in README_CONFIGS["optimize"].items()
               if key != "integrator"}
        if block is not None:
            cfg["integrator"] = block
        p = _problem_from_config(cfg, 0)
        assert (p.dt, p.stop_on_equilibrium, p.equilibrium_tol) == run
        assert p._run_options == IntegratorOptions(run[0], p.horizon, integrate.MAX_STEPS,
                                                   *run[1:])

    def test_tiny_dt_within_the_horizon_runs(self, tmp_path):
        """Steps are counted against horizon alone: 1e-6 / 1e-9 is 1,000 steps."""
        cfg = optimize_config(tmp_path, horizon=1e-6,
                              integrator={"dt": 1e-9, "stop_on_equilibrium": True})
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        p = problem(horizon=1e-6, dt=1e-9)
        assert evaluate_choice(p, 0) == 2.0 and 2.0 < evaluate_choice(p, 1) < 3.0

    def test_horizon_past_the_step_bound_exits_1_before_any_step(self, tmp_path, capsys,
                                                                  monkeypatch):
        # 2e6 / 1e-2 is 2e8 steps, twice MAX_STEPS
        monkeypatch.setattr(wta.optimize, "_simulate", fail(AssertionError("a step ran")))
        monkeypatch.setattr(wta.optimize, "simulate", fail(AssertionError("a step ran")))
        cfg = optimize_config(tmp_path, horizon=2e6, integrator={"dt": 1e-2})
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: horizon / dt = 2000000.0 / 0.01 is more than 100000000 steps\n", err
        assert not out.exists()
        with pytest.raises(ConfigError, match="^horizon / dt = "):
            problem(horizon=2e6)

    def test_problem_fields_are_config_keys(self):
        """Each OptimizeProblem field but base_graph (the graph block) is a
        root key of the optimize config or a key of its integrator block,
        and each integrator key is a field."""
        fields = set(OptimizeProblem.__dataclass_fields__) - {"base_graph"}
        run_keys = {"dt", "stop_on_equilibrium", "equilibrium_tol"}
        assert run_keys <= fields
        assert fields <= set(wta.cli.OPTIMIZE_KEYS) | run_keys
        assert set(wta.cli.RUN_KEYS) == run_keys


class TestExperiment:
    def test_unknown_name_exit_1(self, tmp_path):
        assert main(["experiment", "fig9_nope", "--out", str(tmp_path)]) == 1

    def test_fig2_stride_from_the_steps_run(self, tmp_path):
        """t_end 0.3993 at dt 1e-3 runs ceil(399.3) = 400 steps, so fig2
        records every 400 // 200 = 2nd step: 201 stamps a branch, the last
        at t_end."""
        run_experiment("fig2_trajectories", tmp_path, overrides={"agents": 8, "t_end": 0.3993})
        for branch in ("forward", "reverse"):
            rows = (tmp_path / f"fig2_{branch}.csv").read_text().splitlines()[1:]
            assert len(rows) == 201 and float(rows[-1].split(",")[0]) == 0.3993, branch

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


# a small fig2/fig3 instance: 8 agents, 50 steps
SMALL_FAN = ["--agents", "8", "--t-end", "0.05", "--quiet"]


def assert_no_child_left():
    """No child of this process runs or waits to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "serial"])
def fork_gate(request, monkeypatch):
    """fig2/fig3 fork their reverse branch as the machine's gate says, or
    run it in this process with the gate turned off."""
    if request.param == "serial":
        monkeypatch.setattr(experiments, "_can_fork", lambda: False)


def fail(exc):
    def run(*_args, **_kwargs):
        raise exc
    return run


class TestForkedBranches:
    def test_same_bytes_as_serial(self, tmp_path, monkeypatch):
        """fig2 (with its SVG) and fig3 write the same bytes whether the
        reverse branch runs in a child or in this process, and leave no
        child behind."""
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        forked = experiments._can_fork()
        runs = {}
        for mode in ("forked", "serial"):
            if mode == "serial":
                monkeypatch.setattr(experiments, "_can_fork", lambda: False)
            for name in ("fig2_trajectories", "fig3_entropy"):
                out = tmp_path / mode / name
                assert main(["experiment", name, "--svg", *SMALL_FAN, "--out", str(out)]) == 0
                assert_no_child_left()
                runs[mode, name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(forks) == (2 if forked else 0)
        for name in ("fig2_trajectories", "fig3_entropy"):
            assert len(runs["forked", name]) == 5
            assert runs["forked", name] == runs["serial", name]
        # both branches plotted: 8 agents at negative time and 8 at positive
        assert runs["forked", "fig2_trajectories"]["fig2_trajectories.svg"].count(
            b"<polyline") == 16

    def test_unplotted_reverse_branch_sends_back_no_states(self, tmp_path, monkeypatch):
        """fig2 without --svg writes the same bytes forked and serial, and
        the reverse branch's value holds no per-stamp state array: the audit
        alone, whose pickle fits the pipe's buffer (64 KiB on Linux)."""
        both = experiments._both
        reverse = []

        def recording_both(first, second):
            value = both(first, second)
            reverse.append(value[1])
            return value

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(value):
                for item in dataclasses.fields(value):
                    yield from arrays(getattr(value, item.name))

        monkeypatch.setattr(experiments, "_both", recording_both)
        runs = {}
        for mode in ("forked", "serial"):
            if mode == "serial":
                monkeypatch.setattr(experiments, "_can_fork", lambda: False)
            out = tmp_path / mode
            assert main(["experiment", "fig2_trajectories", *SMALL_FAN, "--out", str(out)]) == 0
            assert_no_child_left()
            runs[mode] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(runs["forked"]) == ["fig2_forward.csv", "fig2_reverse.csv",
                                          "manifest.json", "report.json"]
        assert runs["forked"] == runs["serial"]
        assert len(reverse) == 2
        for value in reverse:
            assert not any(a.ndim == 2 for a in arrays(value))
            assert len(pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)) < 1 << 16

    def test_large_result_same_as_serial(self, monkeypatch):
        """A child result larger than the pipe's buffer (64 KiB by default
        on Linux) comes back whole, as the serial run gives it."""
        size = (1 << 20) + 1
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        def second():
            return np.random.default_rng(size).bytes(size)

        monkeypatch.setattr(os, "fork", counting_fork)
        forked = experiments._can_fork()
        runs = [experiments._both(lambda: "first", second)]
        assert_no_child_left()
        monkeypatch.setattr(experiments, "_can_fork", lambda: False)
        runs.append(experiments._both(lambda: "first", second))
        assert len(forks) == (1 if forked else 0)
        assert runs[0] == runs[1] == ("first", second())

    def test_reverse_error_keeps_class_and_message(self, tmp_path, monkeypatch, fork_gate):
        monkeypatch.setattr(experiments, "simulate_reverse",
                            fail(PositivityFailureError("reverse overflowed")))
        for name in ("fig2_trajectories", "fig3_entropy"):
            with pytest.raises(PositivityFailureError, match="^reverse overflowed$"):
                run_experiment(name, tmp_path / name, overrides={"agents": 8, "t_end": 0.05})
            assert_no_child_left()

    def test_reverse_error_exits_2(self, tmp_path, capsys, monkeypatch, fork_gate):
        monkeypatch.setattr(experiments, "simulate_reverse",
                            fail(PositivityFailureError("reverse overflowed")))
        out = tmp_path / "out"
        assert main(["experiment", "fig2_trajectories", *SMALL_FAN, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: reverse overflowed\n"
        assert not (out / "report.json").exists()
        assert not (out / "manifest.json").exists()
        assert_no_child_left()

    def test_forward_error_wins(self, tmp_path, monkeypatch, fork_gate):
        monkeypatch.setattr(experiments, "simulate", fail(ConfigError("forward failed")))
        monkeypatch.setattr(experiments, "simulate_reverse",
                            fail(PositivityFailureError("reverse overflowed")))
        with pytest.raises(ConfigError, match="^forward failed$"):
            run_experiment("fig2_trajectories", tmp_path, overrides={"agents": 8, "t_end": 0.05})
        assert_no_child_left()

    def test_child_without_result_is_a_wta_error(self, tmp_path, monkeypatch):
        if not experiments._can_fork():
            pytest.skip("in this process os._exit would end the test run")
        monkeypatch.setattr(experiments, "simulate_reverse", lambda *_args: os._exit(3))
        with pytest.raises(WtaError, match="exited with status 3 "):
            run_experiment("fig2_trajectories", tmp_path, overrides={"agents": 8, "t_end": 0.05})
        assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["optimize", "--mode", "exhaustive"],
    ["optimize", "--sweep"],
    ["experiment", "fig4_nine_agents", "--t-end", "0.01"],
])
def test_out_that_is_a_file_exits_1(tmp_path, capsys, argv):
    out = a_file(tmp_path / "out")
    config = {"simulate": run_config, "optimize": optimize_config}.get(argv[0])
    if config:
        argv = [argv[0], "--config", config(tmp_path), *argv[1:]]
    assert main([*argv, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert f"{out}: File exists" in err
    assert out.read_text() == ""


@pytest.mark.parametrize("name, flags", [
    ("fig4_nine_agents", ["--t-end", "0.05"]),
    ("fig5_sweep", ["--grid-count", "1", "--horizon", "0.1"]),
])
def test_largest_seed_runs_every_manifest(tmp_path, name, flags):
    """At seed 2^64 - 1 the first G(9, 0.35) draw is disconnected, and the
    retry seeds wrap around mod 2^64 rather than leave the seed range."""
    seed = 2**64 - 1
    assert len(graph.connected_components(random_graph(9, 0.35, "unit", seed))) > 1
    out = tmp_path / "out"
    assert main(["experiment", name, "--seed", str(seed), *flags, "--quiet",
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


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
    # past the step bound, the quotient is named by the flag's own key
    words = {"1e6": "t_end / dt", "1e7": "horizon / dt"}.get(argv[-1])
    if argv[0] == "simulate":
        argv = [argv[0], "--config", run_config(tmp_path), *argv[1:]]
    out = tmp_path / "out"
    if argv[0] == "classify":  # which takes no --out or --quiet
        graph = write(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1.0]]})
        state = write(tmp_path / "s.json", {"x": [1.0, 1.0]})
        # a later --graph in argv wins over this one
        argv = [argv[0], "--graph", graph, "--state", state, *argv[1:]]
    else:
        argv = [*argv, "--out", str(out), "--quiet"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {words} = " if words else "error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--config", "CFG"], "--config"),
    (["classify", "--seed", "3"], "--seed"),
    (["classify", "--out", "OUT"], "--out"),
    (["classify", "--svg"], "--svg"),
    (["classify", "--quiet"], "--quiet"),
    (["experiment", "fig4_nine_agents", "--config", "CFG", "--out", "OUT"], "--config"),
    (["simulate", "--out", "OUT"], "--config"),
    (["optimize", "--out", "OUT"], "--config"),
    (["optimize", "--config", "CFG", "--mode", "exhaustive", "--sweep", "--out", "OUT"],
     "--sweep"),
    (["optimize", "--config", "CFG", "--sweep", "--mode", "greedy", "--out", "OUT"], "--mode"),
    (["optimize", "--config", "CFG", "--svg", "--out", "OUT"], "--svg"),
    (["optimize", "--config", "CFG", "--mode", "greedy", "--svg", "--out", "OUT"], "--svg"),
])
def test_unread_flag_exits_1(tmp_path, capsys, argv, flag):
    """A flag that its subcommand does not read, a missing --config, or a
    combination that leaves a flag unread exits 1 with one error line that
    names the flag, and no output directory is created."""
    out = tmp_path / "out"
    if argv[0] == "classify":
        argv = [*argv, "--graph", write(tmp_path / "g.json", PAIR_JSON),
                "--state", write(tmp_path / "s.json", {"x": [1.0, 1.0]})]
    argv = [{"CFG": optimize_config(tmp_path), "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    pytest.param(lambda d: ["simulate", "--config", run_config(
        d, graph={"file": write(d / "g.json", BAD_GRAPH)})], "m", id="graph-file"),
    pytest.param(lambda d: ["simulate", "--config", run_config(
        d, interaction={"f": "cubic", "h": "product"})], "h", id="interaction"),
    pytest.param(lambda d: ["optimize", "--config", optimize_config(
        d, integrator={"t_end": 1.0})], "t_end", id="optimize-t-end"),
    pytest.param(lambda d: ["optimize", "--config", optimize_config(
        d, integrator={"record_stride": 10})], "record_stride", id="optimize-record-stride"),
    pytest.param(lambda d: ["classify", "--graph", write(d / "g.json", BAD_GRAPH),
                            "--state", write(d / "s.json", [1.0, 1.0])], "m",
                 id="classify-graph"),
    pytest.param(lambda d: ["classify", "--graph", write(d / "g.json", PAIR_JSON),
                            "--state", write(d / "s.json", {"x": [1.0, 1.0], "y": 0})], "y",
                 id="classify-state"),
])
def test_unknown_key_exits_1(tmp_path, capsys, argv, key):
    """Config objects that README's example configs do not hold take only
    the keys their readers read too: optimize's integrator block has no
    t_end or record_stride, which horizon and the two-stamp record replace."""
    argv, out = argv(tmp_path), tmp_path / "out"
    if argv[0] != "classify":
        argv += ["--out", str(out), "--quiet"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f'"{key}"' in err, err
    assert not out.exists()


def deep_json(path: Path) -> str:
    """A JSON file of 100,000 nested lists, deeper than the parser recurses."""
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize("argv", [
    pytest.param(lambda d: ["simulate", "--config", deep_json(d / "c.json"),
                            "--out", str(d / "out"), "--quiet"], id="simulate-config"),
    pytest.param(lambda d: ["classify", "--graph", deep_json(d / "g.json"),
                            "--state", write(d / "s.json", [1.0, 1.0])], id="classify-graph"),
    pytest.param(lambda d: ["classify", "--graph", write(d / "g.json", PAIR_JSON),
                            "--state", deep_json(d / "s.json")], id="classify-state"),
])
def test_deeply_nested_json_exits_1(tmp_path, capsys, argv):
    """JSON nested past the parser's recursion limit is malformed input:
    one error line, no traceback."""
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON in ") and err.count("\n") == 1, err[:300]
    assert not (tmp_path / "out").exists()


# --- one parser serves every main call; standard output that cannot be written ---


def run_sequence(tmp_path, monkeypatch, fresh: bool) -> list:
    """Seven main calls in a row, run in their own directory with relative
    --out paths, so that their messages name the same paths. With fresh,
    each call builds a new parser. Returns each call's exit code, stdout,
    stderr and the files it wrote."""
    cfg = run_config(tmp_path)
    opt = optimize_config(tmp_path, n=3, x0_others=[1.0, 0.4], horizon=1.0)
    graph = write(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1.0]]})
    state = write(tmp_path / "s.json", {"x": [1.0, 1.0]})
    fig4 = ["experiment", "fig4_nine_agents", "--t-end", "0.05"]
    calls = [
        ["simulate", "--config", cfg, "--out", "sim"],
        ["simulate", "--config", cfg, "--seed", "-1", "--out", "bad"],
        ["classify", "--graph", graph, "--state", state],
        ["optimize", "--config", opt, "--mode", "greedy", "--out", "opt"],
        [*fig4, "--agents", "5", "--out", "fig4_five"],
        [*fig4, "--out", "fig4_default"],
        ["--version"],
    ]
    run_dir = tmp_path / ("fresh" if fresh else "reused")
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    build_parser.cache_clear()
    results = []
    for argv in calls:
        if fresh:
            build_parser.cache_clear()
        before = set(run_dir.rglob("*"))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout.seek(0), sys.stdout.truncate(), sys.stderr.seek(0), sys.stderr.truncate()
        files = {str(p.relative_to(run_dir)): p.read_bytes()
                 for p in sorted(set(run_dir.rglob("*")) - before) if p.is_file()}
        results.append((code, out, err, files))
    return results


def test_one_parser_serves_many_calls(tmp_path, monkeypatch):
    """A parse error, an experiment override and --version leave nothing in
    the reused parser that a later call sees: every call gives what it
    gives with a freshly built parser."""
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    reused = run_sequence(tmp_path, monkeypatch, fresh=False)
    assert build_parser.cache_info().misses == 1
    fresh = run_sequence(tmp_path, monkeypatch, fresh=True)
    assert [r[0] for r in reused] == [0, 1, 0, 0, 0, 0, ("SystemExit", 0)]
    assert reused[1][2].startswith("error: --seed must be >= 0")
    assert reused[6][1] == wta.__version__ + "\n"
    agents = [json.loads(r[3][f"{out}/report.json"])["manifest"]["parameters"]["agents"]
              for r, out in zip(reused[4:6], ("fig4_five", "fig4_default"))]
    assert agents == [5, 9]
    assert reused == fresh


def test_dispatch_reads_current_bindings(tmp_path, monkeypatch):
    """A cmd_* rebound after the parser was built is the one main runs, as
    the benchmark's tracer rebinds them."""
    argv = ["optimize", "--config", optimize_config(tmp_path), "--quiet",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(wta.cli, "cmd_optimize", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [(args.command, args.mode) for args in seen] == [("optimize", None)]  # no --mode


class UnwritableStream(io.StringIO):
    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
                                   OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))],
                         ids=["broken-pipe", "no-space"])
@pytest.mark.parametrize("command", ["classify", "simulate", "optimize", "experiment",
                                     "--version", "--help", "optimize --help"])
def test_unwritable_stdout_exits_1(tmp_path, capsys, monkeypatch, error, command):
    argv = {
        "classify": ["--graph", write(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1.0]]}),
                     "--state", write(tmp_path / "s.json", {"x": [1.0, 1.0]})],
        "simulate": ["--config", run_config(tmp_path, integrator={"dt": 1e-2, "t_end": 0.1})],
        "optimize": ["--config", optimize_config(tmp_path)],
        "experiment": ["fig4_nine_agents", "--t-end", "0.05"],
    }.get(command, [])
    out = [] if command == "classify" else ["--out", str(tmp_path / "out")]  # classify writes none
    monkeypatch.setattr(sys, "stdout", UnwritableStream(error))
    assert main([*command.split(), *argv, *out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write standard output: {error.strerror}\n"


def assert_unwritable_stdout_exits_1(target: str, unbuffered: str, args: list) -> None:
    """`python -m wta.cli *args` with stdout on target exits 1 with one
    error line, and the interpreter's own flush at exit reports nothing
    more."""
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full here")
    env = dict(os.environ, PYTHONPATH=str(Path(wta.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "wta.cli", *args]
    if target == "/dev/full":
        with open(target, "w") as stdout:
            proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=60)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_in_a_process(tmp_path, target, unbuffered):
    graph = write(tmp_path / "g.json", {"n": 2, "edges": [[0, 1, 1.0]]})
    state = write(tmp_path / "s.json", {"x": [1.0, 1.0]})
    assert_unwritable_stdout_exits_1(target, unbuffered,
                                     ["classify", "--graph", graph, "--state", state])


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("command", ["--version", "--help", "optimize --help"])
def test_unwritable_stdout_for_argparse_text_in_a_process(target, unbuffered, command):
    """The text argparse writes to stdout fails like any other output."""
    assert_unwritable_stdout_exits_1(target, unbuffered, command.split())


# --- the library entry points apply the CLI's checks ---


def problem(**fields):
    spec = {"base_graph": new_graph(2, []), "alpha": 0, "x_alpha0": 2.0,
            "x0_others": (1.0,), "horizon": 1.0, **fields}
    return OptimizeProblem(**spec)


def sweep(**fields):
    """A hand-built SweepResult: one grid point, one candidate, unless fields say."""
    spec = {"alpha": 0, "grid": (0.0,), "num_candidates": 1, "values": np.ones((1, 2)),
            "others_mass": 1.0, **fields}
    return optimize.SweepResult(**spec)


def optimize_result(table):
    """A hand-built exhaustive OptimizeResult over 3 candidates with this table."""
    return optimize.OptimizeResult(
        alpha=0, best_mask=0, best_value=1.0, evaluations=8, tie_break_applied=False,
        mode="exhaustive", candidates=(1, 2, 3), value_min=1.0,
        value_max=1.0, table=table)


def experiment(out, seed=0, **overrides):
    return run_experiment("fig5_sweep", out, seed=seed, overrides=overrides)


PAIR = new_graph(2, [(0, 1, 1.0)])  # [1, 1] on it is an E_u state
TRIANGLE = new_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
HUGE = [1e200] * 3  # finite, but x_i * x_j overflows


def a_file(path: Path) -> Path:
    path.write_text("")
    return path


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
    pytest.param(lambda out: problem(dt="0.01"), ConfigError, id="problem-dt-string"),
    pytest.param(lambda out: problem(stop_on_equilibrium=1), ConfigError,
                 id="problem-stop-int"),
    pytest.param(lambda out: problem(equilibrium_tol=float("nan")), ConfigError,
                 id="problem-tol-nan"),
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
    pytest.param(lambda out: perturb_and_escape(PAIR, [1.0, 1.0], magnitude=1.5),
                 ConfigError, id="escape-magnitude-above-smallest-winner"),
    pytest.param(lambda out: sweep_initial_value(problem(), 0.5), ConfigError,
                 id="grid-not-a-list"),
    pytest.param(lambda out: check_interactions(interaction_from_names(), seed=-1), ConfigError,
                 id="check-seed-negative"),
    pytest.param(lambda out: check_interactions(interaction_from_names(), samples=0), ConfigError,
                 id="check-samples-0"),
    pytest.param(lambda out: check_interactions(interaction_from_names(), samples=True),
                 ConfigError, id="check-samples-bool"),
    pytest.param(lambda out: check_interactions(interaction_from_names(),
                                                samples=dynamics.MAX_SAMPLES + 1),
                 ConfigError, id="check-samples-past-bound"),
    pytest.param(lambda out: check_interactions(interaction_from_names(), sample_range=(1.0, 1.0)),
                 ConfigError, id="check-range-empty"),
    pytest.param(lambda out: check_interactions(interaction_from_names(),
                                                sample_range=(-1.0, 1.0)),
                 ConfigError, id="check-range-negative"),
    pytest.param(lambda out: check_interactions(interaction_from_names(), sample_range=(1.0,)),
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
    # finite input whose products pass the double range
    pytest.param(lambda out: vector_field(TRIANGLE, HUGE), PositivityFailureError,
                 id="field-overflow"),
    pytest.param(lambda out: reverse_vector_field(TRIANGLE, HUGE), PositivityFailureError,
                 id="reverse-field-overflow"),
    pytest.param(lambda out: laplacian(TRIANGLE, HUGE), PositivityFailureError,
                 id="laplacian-overflow"),
    pytest.param(lambda out: classify_equilibrium(TRIANGLE, HUGE), PositivityFailureError,
                 id="classify-overflow"),
    pytest.param(lambda out: perturb_and_escape(TRIANGLE, HUGE), PositivityFailureError,
                 id="escape-overflow"),
    pytest.param(lambda out: symmetric_eigenvalues([[1e308, 1e308], [1e308, 1e308]]),
                 NonFiniteStateError, id="eigenvalues-overflow"),
    pytest.param(lambda out: interaction_from_names("x"), ConfigError, id="interaction-f-name"),
    pytest.param(lambda out: interaction_from_names(g="x"), ConfigError,
                 id="interaction-g-name"),
    pytest.param(lambda out: random_graph(5, 0.5, np.array(["uniform", 0.5, 1.5], dtype=object)),
                 ConfigError, id="weight-mode-object-array"),
    pytest.param(lambda out: random_graph(5, 0.5, np.array(["unit"])), ConfigError,
                 id="weight-mode-unit-array"),
    pytest.param(lambda out: new_graph(3, [(0, 1)]), ConfigError, id="edge-entry-two-values"),
    pytest.param(lambda out: new_graph(3, [(0, 1, 1.0, 9)]), ConfigError,
                 id="edge-entry-four-values"),
    pytest.param(lambda out: new_graph(3, 5), ConfigError, id="edges-not-iterable"),
    pytest.param(lambda out: is_independent_set(PAIR, 1), ConfigError,
                 id="node-set-not-iterable"),
    pytest.param(lambda out: mask_to_bits(3, "a"), ConfigError, id="mask-width-string"),
    pytest.param(lambda out: mask_to_bits(-1, 3), ConfigError, id="mask-negative"),
    pytest.param(lambda out: mask_to_bits(1, graph.MAX_AGENTS + 1), ConfigError,
                 id="mask-width-past-bound"),
    pytest.param(lambda out: mask_to_bits(8, 2), ConfigError, id="mask-above-width"),
    pytest.param(lambda out: run_experiment("fig4_nine_agents", None), ConfigError,
                 id="out-dir-none"),
    pytest.param(lambda out: run_experiment("fig4_nine_agents", out, want_svg="no"),
                 ConfigError, id="want-svg-string"),
    pytest.param(lambda out: run_experiment("fig4_nine_agents", out, want_svg=1), ConfigError,
                 id="want-svg-int"),
    pytest.param(lambda out: run_experiment("fig4_nine_agents", out, want_svg=float("nan")),
                 ConfigError, id="want-svg-nan"),
    pytest.param(lambda out: graph.dump_graph(PAIR, ""), ConfigError, id="graph-path-empty"),
    # an output path that cannot be written: a file where the directory
    # goes, a missing parent directory, a directory where the file goes
    pytest.param(lambda out: run_experiment("fig4_nine_agents", a_file(out.parent / "f")),
                 ConfigError, id="out-dir-is-a-file"),
    pytest.param(lambda out: graph.dump_graph(PAIR, out / "g.json"), ConfigError,
                 id="graph-path-no-parent"),
    pytest.param(lambda out: integrate.simulate(PAIR, [2.0, 1.0], IntegratorOptions(
        dt=0.1, t_end=0.1))[0].write_csv(out.parent), ConfigError, id="csv-path-is-a-directory"),
    pytest.param(lambda out: sweep_initial_value(problem(), [1.0]).write_svg(out / "s.svg"),
                 ConfigError, id="svg-path-no-parent"),
    # the star is read before the file is opened
    pytest.param(lambda out: sweep().write_svg(out, star=("a", 1)), ConfigError,
                 id="svg-star-string"),
    pytest.param(lambda out: sweep().write_svg(out, star=(1.0,)), ConfigError,
                 id="svg-star-one-number"),
    pytest.param(lambda out: sweep().write_svg(out, star=(1.0, 2.0, 3.0)), ConfigError,
                 id="svg-star-three-numbers"),
    pytest.param(lambda out: sweep().write_svg(out, star=(float("nan"), 1.0)), ConfigError,
                 id="svg-star-nan"),
    pytest.param(lambda out: sweep().write_svg(out, star=1.0), ConfigError,
                 id="svg-star-number"),
    pytest.param(lambda out: sweep(num_candidates=17, values=np.ones((1, 1 << 17))).write_svg(
        out), ConfigError, id="svg-past-point-limit"),
    pytest.param(lambda out: sweep(values=np.ones((1, 3))).write_csv(out), ConfigError,
                 id="sweep-result-shape"),
    pytest.param(lambda out: sweep(grid=(0.0, 1.0)).write_csv(out), ConfigError,
                 id="sweep-result-grid-length"),
    pytest.param(lambda out: sweep(num_candidates=1.0).write_csv(out), ConfigError,
                 id="sweep-result-width-float"),
    pytest.param(lambda out: sweep(num_candidates=25).write_csv(out), ConfigError,
                 id="sweep-result-width-past-guard"),
    pytest.param(lambda out: sweep(values=[["a", "b"]]).write_csv(out), ConfigError,
                 id="sweep-result-values-string"),
    pytest.param(lambda out: sweep(grid=("a",)).write_csv(out), ConfigError,
                 id="sweep-result-grid-string"),
    pytest.param(lambda out: optimize_result([1.0] * 7), ConfigError,
                 id="optimize-table-wrong-length"),
    pytest.param(lambda out: optimize_result(tuple((mask, 1.0) for mask in range(8))),
                 ConfigError, id="optimize-table-pair-layout"),
    pytest.param(lambda out: optimize_result([1.0] * 7 + [float("nan")]), ConfigError,
                 id="optimize-table-nan"),
    pytest.param(lambda out: optimize_result([1.0] * 7 + ["1.0"]), ConfigError,
                 id="optimize-table-string"),
    pytest.param(lambda out: optimize_result([True] * 8), ConfigError,
                 id="optimize-table-bool"),
    # np.asarray makes these float64 before any dtype test could see the bool
    pytest.param(lambda out: prepare_state([1.0, True], 2), ConfigError,
                 id="prepare-state-bool-in-list"),
    pytest.param(lambda out: optimize_result([1.0] * 7 + [True]), ConfigError,
                 id="optimize-table-bool-in-list"),
    pytest.param(lambda out: sweep(values=[[1.0, True]]), ConfigError,
                 id="sweep-values-bool-in-list"),
    pytest.param(lambda out: graph.graph_from_json_dict(BAD_GRAPH), ConfigError,
                 id="graph-json-unknown-key"),
    pytest.param(lambda out: graph.load_graph(write(out.with_name("g.json"), BAD_GRAPH)),
                 ConfigError, id="graph-file-unknown-key"),
    pytest.param(lambda out: graph.load_graph(deep_json(out.with_name("g.json"))),
                 ConfigError, id="load-graph-deep"),
    pytest.param(lambda out: run_experiment("fig1_bars", out, overrides={"grid_count": 4}),
                 ConfigError, id="override-of-another-manifest"),
])
def test_library_boundary_rejects_bad_input(tmp_path, call, error):
    """Each entry point named in README "CLI" rejects what the CLI rejects,
    with the package's own exception and before any output is written."""
    out = tmp_path / "out"
    with pytest.raises(error):
        call(out)
    assert not out.exists()


@pytest.mark.parametrize("call", [
    pytest.param(lambda fd: graph.load_graph(fd), id="load-graph"),
    pytest.param(lambda fd: graph.dump_graph(PAIR, fd), id="dump-graph"),
    pytest.param(lambda fd: run_experiment("fig4_nine_agents", fd), id="run-experiment"),
    pytest.param(lambda fd: integrate.simulate(PAIR, [2.0, 1.0], IntegratorOptions(
        dt=0.1, t_end=0.1))[0].write_csv(fd), id="trajectory-csv"),
    pytest.param(lambda fd: sweep_initial_value(problem(), [1.0]).write_csv(fd), id="sweep-csv"),
    pytest.param(lambda fd: sweep_initial_value(problem(), [1.0]).write_svg(fd), id="sweep-svg"),
])
def test_descriptor_is_not_a_path(tmp_path, call):
    """open() takes an int as a file descriptor, reads or writes it and
    closes it; every caller-given path is read first and an int refused."""
    path = tmp_path / "f.json"
    graph.dump_graph(PAIR, path)
    fd = os.open(path, os.O_RDWR)
    try:
        with pytest.raises(ConfigError):
            call(fd)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert graph.load_graph(path) == PAIR


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


def test_readme_names_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [name for name in wta.__all__ if f"`{name}`" not in readme] == []


def test_readme_lists_each_subcommands_flags():
    """README's CLI list names, for each subcommand, exactly the flags its
    parser takes, --help aside."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli = readme.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert list(subparsers) == ["simulate", "classify", "optimize", "experiment"]
    for name, sub in subparsers.items():
        item = re.search(rf"^- `{name}`:(.*?)(?=^- |^$)", cli, re.M | re.S).group(1)
        listed = set(re.findall(r"--[a-z][a-z-]*", item))
        assert listed == {flag for action in sub._actions for flag in action.option_strings
                          } - {"-h", "--help"}, name


def test_library_boundary_keeps_normalized_values():
    p = problem(alpha=np.int64(0), x_alpha0=2, x0_others=[1], horizon=np.float64(1.0))
    assert (p.alpha, p.x_alpha0, p.x0_others, p.horizon) == (0, 2.0, (1.0,), 1.0)
    assert [type(v) for v in (p.alpha, p.x_alpha0, p.x0_others[0], p.horizon)] == [
        int, float, float, float]
    # a float32 is read as the double it equals, without an overflow warning
    w = float(np.float32(0.1))
    assert new_graph(2, [(0, 1, np.float32(0.1))]).edge_w.tolist() == [w, w]
    assert random_graph(2, np.float32(0.5)).n == 2


def test_fig5_extremes_cover_every_grid_point_of_a_key(tmp_path, monkeypatch):
    """Grid values that print alike to 6 digits share one per_grid_extremes
    key, whose min and max are over the masks of both points."""
    def two_points(p, grid):
        values = np.ones((2, 1 << p.num_candidates))
        values[0, 0], values[1, -1] = 0.25, 4.0
        return optimize.SweepResult(alpha=p.alpha, grid=(1.0000001, 1.0000002),
                                    num_candidates=p.num_candidates, values=values,
                                    others_mass=3.0)

    monkeypatch.setattr(experiments, "sweep_initial_value", two_points)
    experiment(tmp_path / "out", agents=3, grid_count=2, horizon=0.1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["per_grid_extremes"] == {"1": {"min": 0.25, "max": 4.0}}


# --- the README's example configs (canon.README_CONFIGS), every leaf of them mutated ---

MUTATIONS = [True, "x", [], {}, float("nan"), -1, 1.5]


@pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
def test_evaluate_choice_same_bits_as_recorded_run(monkeypatch, stop):
    """evaluate_choice records only its first and last stamps, and alpha's
    final value has the bits of a run that records every step, on every
    mask of the README optimize arena. Horizon 0.7 (70 steps) keeps each
    case's 512 runs near 1.5 s; tolerance 0.2 stops 32 masks, at steps 39
    to 67, where the README's 1e-10 stops none."""
    p = dataclasses.replace(_problem_from_config(README_CONFIGS["optimize"], 0), horizon=0.7,
                            stop_on_equilibrium=stop, equilibrium_tol=0.2)
    recorded = IntegratorOptions(dt=p.dt, t_end=p.horizon, stop_on_equilibrium=stop,
                                 equilibrium_tol=0.2)
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


def object_paths(node, path=()):
    """Key paths to every object in a JSON value, itself first."""
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from object_paths(child, path + (key,))


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
    error line and no output directory, never with a traceback; with one
    key added to any of its objects, it exits 1 so, naming the key."""
    cfg = README_CONFIGS[command]
    out = tmp_path / "out"

    def run(config, flags, key=None):
        path = write(tmp_path / "cfg.json", config)
        code = main([command, "--config", path, "--out", str(out), "--quiet", *flags])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert key is None or f'"{key}"' in err, err
            assert not out.exists()
        shutil.rmtree(out, ignore_errors=True)
        return code

    modes = [[], ["--mode", "greedy"], ["--sweep"]] if command == "optimize" else [[]]
    for flags in modes:
        assert run(cfg, flags) == 0
    # greedy and sweep_grid are read only in their own mode; all modes read
    # the other leaves alike before they start, so exhaustive does
    mode_flags = {"greedy": ["--mode", "greedy"], "sweep_grid": ["--sweep"]}
    for path in leaf_paths(cfg):
        flags = mode_flags.get(path[0], [])
        for value in MUTATIONS:
            mutated = replace_leaf(cfg, path, value)
            if json.dumps(mutated) != json.dumps(cfg):  # 1.5 may be the leaf's own value
                assert run(mutated, flags) in (0, 1), (path, value)
    # one unread key added to any object, the root included, exits 1 naming it
    for path in object_paths(cfg):
        flags = mode_flags.get(path[0] if path else None, [])
        assert run(replace_leaf(cfg, (*path, "unread"), 1), flags, key="unread") == 1, path
