import csv
import json
import math
import time

import pytest

from ncspectral import cli
from ncspectral.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_TOLERANCE,
    EXIT_UNKNOWN,
    RunConfig,
    build_one_form,
    build_theta,
    main,
)


def run_cli(args):
    return main(list(args))


class TestExitCodes:
    def test_unknown_group(self, capsys):
        assert run_cli(["frobnicate"]) == EXIT_UNKNOWN

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["zeta", "explode"]) == EXIT_UNKNOWN

    def test_empty_invocation(self, capsys):
        assert run_cli([]) == EXIT_CONFIG

    def test_empty_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert run_cli(["zeta", "residue", "--P", "k1^2",
                        "--config", str(cfg)]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["zeta", "residue", "--P", "k1^2",
                        "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "bogus": 1}))
        assert run_cli(["zeta", "residue", "--P", "k1^2",
                        "--config", str(cfg)]) == EXIT_CONFIG

    def test_pole_evaluation_is_precondition_failure(self, tmp_path, capsys):
        assert run_cli(["zeta", "eval", "--P", "1", "--s-re", "2.0", "--n", "2",
                        "--out", str(tmp_path)]) == EXIT_PRECONDITION

    def test_near_integral_twist_is_precondition_failure(self, tmp_path, capsys):
        assert run_cli(["zeta", "eval", "--n", "1", "--P", "1", "--s-re", "0.5",
                        "--twist", "[1e-13]", "--out", str(tmp_path)]) == EXIT_PRECONDITION
        assert "within 1e-13" in capsys.readouterr().err

    def test_heat_nonpositive_t_is_precondition_failure(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"n": 2, "t_grid": [0.0]}))
        assert run_cli(["action", "heat", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "precondition failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["zeta", "eval", "--help"]],
                             ids=["top", "leaf"])
    def test_help(self, capsys, argv):
        assert run_cli(argv) == EXIT_OK
        out = capsys.readouterr()
        assert out.out.startswith("usage: ncspectral") and out.err == ""

    @pytest.mark.parametrize("argv, config", [
        (["action", "heat"], {"n": 2, "one_form": [[5, [1, 0], 0.3, 0.0]]}),
        (["action", "constant-term"], {"n": 2, "one_form": [[5, [1, 0], 0.3, 0.0]]}),
        (["action", "fit"], {"n": 2, "one_form": [[5, [1, 0], 0.3, 0.0]]}),
        (["action", "heat"], {"n": 2, "theta_preset": "matrix",
                              "theta_params": {"matrix": [[0, 1], [1, 0]]}}),
        (["zeta", "residue", "--n", "2", "--P", "k9"], None),
        (["zeta", "residue", "--n", "2", "--P", "k1^"], None),
        (["zeta", "eval", "--n", "2", "--P", "k1", "--twist", "[0.1"], None),
        (["zeta", "residue", "--n", "2", "--P", "k1^8"], None),
        (["zeta", "eval", "--n", "2", "--P", "k1-k1"], None),
        (["zeta", "residue", "--P", "1"], {"n": "2"}),
        (["action", "fit"], {"n": 2, "profile": "bogus"}),
        (["zeta", "residue", "--n", "0", "--P", "1"], None),
        (["dio", "construct", "--f", '{"kind": "power", "alpha": 1}'], None),
        (["dio", "construct", "--f", "{bad"], None),
        (["op", "check", "--n", "2", "--samples", "0"], None),
        (["op", "check", "--n", "2", "--samples", "-1"], None),
    ], ids=["axis-heat", "axis-constant-term", "axis-fit", "theta-not-skew", "P-variable",
            "P-exponent", "twist-json", "P-degree", "P-zero", "n-string", "profile-unknown",
            "n-flag-zero", "f-alpha", "f-json", "samples-zero", "samples-negative"])
    def test_malformed_input_is_config_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        assert run_cli([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed config" in err and "Traceback" not in err


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(n=4, theta_preset="rational", theta_params={"p": 1, "q": 3},
                        one_form=[[1, [0, 1, 0, 0], 0.3, -0.1]], seed=5)
        back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_theta_presets(self):
        golden = build_theta(RunConfig(n=2, theta_preset="golden"))
        assert golden.theta[0, 1] == pytest.approx(2 * math.pi * 0.6180339887498949)
        zero = build_theta(RunConfig(n=2, theta_preset="zero"))
        assert not zero.theta.any()
        rational = build_theta(RunConfig(n=2, theta_preset="rational",
                                         theta_params={"p": 1, "q": 2}))
        assert rational.theta[0, 1] == pytest.approx(math.pi)
        explicit = build_theta(RunConfig(n=2, theta_preset="matrix",
                                         theta_params={"matrix": [[0, 1], [-1, 0]]}))
        assert explicit.theta[0, 1] == 1.0

    def test_one_form_symmetrization(self):
        cfg = RunConfig(n=2, one_form=[[1, [1, 0], 0.25, 0.5]])
        A = build_one_form(cfg)
        comp = A.components[0]
        assert comp.coeff((1, 0)) == 0.25 + 0.5j
        assert comp.coeff((-1, 0)) == -(0.25 - 0.5j)


class TestRuns:
    @pytest.mark.parametrize("argv", [
        ["zeta", "residue", "--P", "1"],
        ["op", "check", "--samples", "3"],
    ], ids=["zeta-residue", "op-check"])
    def test_global_flags_before_group(self, tmp_path, capsys, argv):
        # global flags with a value are read the same before and after the group
        results = []
        for order in ("before", "after"):
            flags = ["--n", "2", "--out", str(tmp_path / order)]
            assert run_cli(flags + argv if order == "before" else argv + flags) == EXIT_OK
            results.append((tmp_path / order / "-".join(argv[:2]) / "results.csv").read_bytes())
        assert results[0] == results[1]

    def test_residue_row(self, tmp_path, capsys):
        code = run_cli(["zeta", "residue", "--n", "4", "--P", "k1^2*k2^2",
                        "--shift", "6", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.822467" in out  # pi^2 / 12
        rows = list(csv.DictReader(open(tmp_path / "zeta-residue" / "results.csv")))
        assert float(rows[0]["residue_re"]) == pytest.approx(math.pi ** 2 / 12, rel=1e-12)
        summary = json.loads((tmp_path / "zeta-residue" / "summary.json").read_text())
        assert summary["config"]["n"] == 4
        assert "artifact_version" in summary

    def test_eval_at_origin(self, tmp_path, capsys):
        code = run_cli(["zeta", "eval", "--n", "2", "--P", "1", "--s-re", "0",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(tmp_path / "zeta-eval" / "results.csv")))
        assert float(rows[0]["value_re"]) == pytest.approx(-1.0, abs=1e-12)

    def test_op_check_passes(self, tmp_path, capsys):
        code = run_cli(["op", "check", "--n", "2", "--samples", "6",
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "op-check" / "summary.json").read_text())
        assert summary["all_ok"] is True
        assert summary["worst_deviation"] < 1e-13

    def test_op_check_tolerance_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-20}))
        code = run_cli(["op", "check", "--n", "2", "--samples", "4",
                        "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_TOLERANCE

    def test_dio_construct(self, tmp_path, capsys):
        code = run_cli(["dio", "construct", "--f", '{"kind": "power", "alpha": 3}',
                        "--depth", "5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(tmp_path / "dio-construct" / "results.csv")))
        assert all(row["ok"] == "True" for row in rows)

    def test_determinism_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "a"
        args = ["zeta", "eval", "--n", "2", "--P", "k1^2", "--s-re", "1.5",
                "--twist", "[0.2, 0.3]", "--out", str(out)]
        assert run_cli(args) == EXIT_OK
        csv_first = (out / "zeta-eval" / "results.csv").read_bytes()
        summary_first = (out / "zeta-eval" / "summary.json").read_bytes()
        assert run_cli(args) == EXIT_OK
        assert (out / "zeta-eval" / "results.csv").read_bytes() == csv_first
        assert (out / "zeta-eval" / "summary.json").read_bytes() == summary_first

    def test_gamma_dump(self, tmp_path, capsys):
        code = run_cli(["op", "check", "--n", "2", "--samples", "3",
                        "--dump-gammas", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "op-check" / "gammas.json").read_text())
        assert data["n"] == 2 and len(data["gammas"]) == 2
        assert data["epsilon"] in (1, -1)

    def test_cached_parser_holds_no_state(self, tmp_path, capsys):
        # the parser is built once per process: a run with global and leaf
        # flags leaves nothing behind for a later run on the defaults
        runs = {"flags": ["zeta", "eval", "--n", "4", "--P", "1", "--s-re", "3"],
                "defaults": ["zeta", "eval", "--P", "1"]}

        def summary(name):
            assert run_cli([*runs[name], "--out", str(tmp_path / name)]) == EXIT_OK
            return (tmp_path / name / "zeta-eval" / "summary.json").read_text()

        cached = {name: summary(name) for name in runs}
        assert run_cli(["zeta", "eval", "--help"]) == EXIT_OK
        assert run_cli(["zeta", "eval", "--P", "1", "--s-re", "x"]) == EXIT_CONFIG
        cached["defaults-again"] = summary("defaults")
        for name in runs:
            cli._build_parser.cache_clear()
            assert summary(name) == cached[name]
        assert cached["defaults-again"] == cached["defaults"]
        assert json.loads(cached["flags"])["config"]["n"] == 4
        assert json.loads(cached["defaults"])["config"]["n"] == 2


class TestActionRuns:
    COLLINEAR = [[1, [1, 0], 0.4, 0.1], [2, [2, 0], 0.0, -0.3]]

    @staticmethod
    def run_twice(tmp_path, argv, data, sub):
        """Run a config twice; return (exit codes, results rows, artifacts identical)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out" / sub
        codes, artifacts = [], []
        for _ in range(2):
            codes.append(run_cli([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]))
            artifacts.append(((out / "results.csv").read_bytes(),
                              (out / "summary.json").read_bytes()))
        rows = list(csv.DictReader(open(out / "results.csv")))
        return codes, rows, artifacts[0] == artifacts[1]

    def test_heat_chain_window(self, tmp_path, capsys):
        codes, rows, identical = self.run_twice(
            tmp_path, ["action", "heat"],
            {"n": 2, "one_form": self.COLLINEAR, "t_grid": [0.5, 1.0]}, "action-heat")
        assert codes == [EXIT_OK, EXIT_OK]
        assert [row["method"] for row in rows] == ["chain-window", "chain-window"]
        assert identical

    def test_fit_chain_window(self, tmp_path, capsys, monkeypatch):
        # the fit table has no method column, so record the path of every
        # action the fit evaluates
        from ncspectral import action

        paths = []
        orig = action.spectral_action

        def recording(*args, **kwargs):
            res = orig(*args, **kwargs)
            paths.append(res.method)
            return res

        monkeypatch.setattr(action, "spectral_action", recording)
        codes, rows, identical = self.run_twice(
            tmp_path, ["action", "fit"],
            {"n": 2, "one_form": self.COLLINEAR, "lam_grid": [2.5, 3.5, 5, 7, 10]},
            "action-fit")
        assert codes == [EXIT_OK, EXIT_OK]
        assert paths == ["chain-window"] * 10
        assert rows[0]["parameter"] == "c2"
        c2, sigma = float(rows[0]["value"]), float(rows[0]["uncertainty"])
        assert abs(c2 - 4.0 * math.pi) <= 5.0 * sigma
        assert identical

    def test_constant_term_matches_curvature(self, tmp_path, capsys):
        # criterion 8's first one-form under the golden preset
        codes, rows, identical = self.run_twice(
            tmp_path, ["action", "constant-term"],
            {"n": 4, "one_form": [[1, [0, 1, 0, 0], 0.37, 0.0]]}, "action-constant-term")
        assert codes == [EXIT_OK, EXIT_OK]
        value = {row["parameter"]: float(row["value"]) for row in rows}
        target = value["gauge_curvature_target"]
        assert abs(value["constant_term"] - target) <= 1e-2 * abs(target)
        assert identical

    def test_constant_term_flags_commutative_theta(self, tmp_path, capsys):
        # at Theta = 0 the perturbation cancels, so the 0 beside a nonzero target is expected
        codes, rows, identical = self.run_twice(
            tmp_path, ["action", "constant-term"],
            {"n": 4, "theta_preset": "zero",
             "one_form": [[1, [0, 1, 0, 0], 0.4, 0.0], [2, [1, 0, 0, 0], 0.25, 0.0]]},
            "action-constant-term")
        assert codes == [EXIT_OK, EXIT_OK]
        value = {row["parameter"]: float(row["value"]) for row in rows}
        assert value["constant_term"] == 0.0
        assert value["gauge_curvature_target"] == pytest.approx(11.712, abs=1e-3)
        out = capsys.readouterr().out
        assert out.count("D_A = D") == 2  # one line per run
        assert identical

    def test_correction_ordering(self, tmp_path, capsys):
        code = run_cli(["action", "correction", "--n", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rep = {row["theta"]: row for row in
               csv.DictReader(open(tmp_path / "action-correction" / "results.csv"))}
        rational, jarnik = float(rep["rational"]["slope"]), float(rep["jarnik"]["slope"])
        assert abs(rational + 1.0) <= 0.1
        assert rep["golden"]["flag"] == "exponentially-small"
        assert rep["jarnik"]["flag"] == "ok"
        assert rational + 0.05 < jarnik < -0.05

    def test_fit_preflight_rejects_grid_before_solving(self, tmp_path, capsys):
        # the default grid reaches a basis of 20,402 at lam = 7.3 with this
        # spread-1 non-collinear form; lam = 6 alone would be a minutes-long solve
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "one_form": [[1, [1, 0], 0.3, 0.0],
                                                        [2, [0, 1], 0.2, 0.0]]}))
        start = time.perf_counter()
        code = run_cli(["action", "fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert time.perf_counter() - start < 1.0
        assert "20402" in capsys.readouterr().err

    def test_heat_rejects_stochastic_window_before_assembly(self, tmp_path, capsys):
        # the default t grid starts at t = 1e-4, whose window (K = 651) has a basis of
        # 3,395,618 for this non-collinear form, far above the stochastic limit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "one_form": [[1, [1, 0], 0.3, 0.0],
                                                        [2, [0, 1], 0.2, 0.0]]}))
        start = time.perf_counter()
        code = run_cli(["action", "heat", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert time.perf_counter() - start < 1.0
        assert "3395618 exceeds stochastic limit" in capsys.readouterr().err

    def test_fit_preflight_rejects_lattice_box_before_summing(self, tmp_path, capsys):
        # the r = 3 rational profile needs a box of side 10343 at lam = 24; the
        # smaller scales of the default grid alone would take most of a minute
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "profile": "rational", "profile_params": {"r": 3.0},
                                   "theta_preset": "zero"}))
        start = time.perf_counter()
        code = run_cli(["action", "fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert time.perf_counter() - start < 1.0
        assert "106977649 points" in capsys.readouterr().err
