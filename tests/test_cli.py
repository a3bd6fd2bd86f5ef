import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from wta.cli import main


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


# --- the README's example configs, and every leaf of them mutated ---

README_CONFIGS = {  # subcommand -> its example config
    "optimize" if "alpha" in cfg else "simulate": cfg
    for cfg in map(json.loads, re.findall(
        r"```json\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S))
}
MUTATIONS = [True, "x", [], {}, float("nan"), -1, 1.5]


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
