import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinestop
import affinestop.cli
from affinestop.cli import _KEYS, ConfigError, RunConfig, main, parse_config, run

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

GBM_CONFIG = """\
# flagship diffusion, a hair inside the psi(1) < r screen
model.r = 1.0
model.sigma = 1.4142135
payoff.alpha = 1
payoff.c = 1
solver = closed
"""

LATTICE_CONFIG = """\
model.r = 1.0
model.sigma = 1.4142135
payoff.alpha = 1
payoff.c = 1
solver = lattice
grid.v_min = 1e-4
grid.v_max = 8.0
grid.n_states = 300
grid.dt = 0.01
"""

MC_CONFIG = """\
model.r = 1.0
model.sigma = 1.4142135
payoff.alpha = 1
payoff.c = 1
solver = mc
grid.v_min = 0.05
grid.v_max = 4.0
mc.n_paths = 2000
mc.t_max = 5.0
mc.dt = 0.01
mc.seed = 11
"""

ORACLE_CONFIG = """\
model.r = 0.05
model.sigma = 0.3
payoff.alpha = 1
payoff.c = 1
solver = oracle
oracle.depth = 5
grid.dt = 0.1
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(GBM_CONFIG)
        assert cfg.solver == "closed"
        assert cfg.model.sigma == 1.4142135
        assert cfg.payoff.alpha == 1.0
        assert cfg.grid.n_states == 2000  # default
        assert cfg.output == "out"

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match="r must be > 0"):
            parse_config("model.r = -1\npayoff.alpha = 1\npayoff.c = 1\nsolver = closed")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'model.rr'"):
            parse_config("model.rr = 1")

    def test_duplicate_key(self):
        text = "model.r = 1\nmodel.r = 2\npayoff.alpha = 1\npayoff.c = 1\nsolver = closed"
        with pytest.raises(ConfigError, match="line 2: duplicate"):
            parse_config(text)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="model.r: required"):
            parse_config("payoff.alpha = 1\npayoff.c = 1\nsolver = closed")

    def test_bad_number_and_bad_int(self):
        base = "model.r = 1\npayoff.alpha = 1\npayoff.c = 1\nsolver = lattice\n"
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(base + "grid.dt = fast")
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(base + "grid.n_states = 10.5")

    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="solver: must be one of"):
            parse_config("model.r = 1\npayoff.alpha = 1\npayoff.c = 1\nsolver = pde")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("\n# comment\nmodel.r = 2.0  # trailing\n"
                           "payoff.alpha = 1\npayoff.c = 1\nsolver = closed\n")
        assert cfg.model.r == 2.0

    def test_every_key_lands_in_its_field(self):
        values = {
            "model.mu": -0.1, "model.sigma": 0.9, "model.lambda_j": 0.3,
            "model.p_up": 0.25, "model.eta_up": 7.5, "model.eta_down": 3.5,
            "model.r": 0.8, "payoff.alpha": 2.0, "payoff.c": 3.0,
            "solver": "lattice", "v0": 1.5, "grid.v_min": 0.01,
            "grid.v_max": 9.0, "grid.n_states": 123, "grid.dt": 0.02,
            "mc.n_paths": 4321, "mc.t_max": 6.5, "mc.dt": 0.005,
            "mc.seed": 17, "oracle.depth": 3, "output": "elsewhere",
        }
        assert set(values) == set(_KEYS)
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))
        defaults = parse_config(
            "model.r = 1\npayoff.alpha = 1\npayoff.c = 1\nsolver = closed")
        for key, want in values.items():
            assert _field(cfg, key) == want and type(_field(cfg, key)) is type(want), key
            assert _field(defaults, key) != want, key

    def test_readme_config_block_matches_parser(self):
        # the README block: keys that are set, then "# key = default" lines
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```$",
                            README.read_text(encoding="utf-8"), re.S | re.M)
        (block,) = [b for b in blocks if "\nsolver = " in b]
        set_lines = [ln for ln in block.splitlines() if not ln.startswith("#")]
        documented = dict(
            pair for ln in block.splitlines() if ln.startswith("#")
            for pair in re.findall(r"([\w.]+) = (\S+)", ln))
        set_keys = {ln.split("=", 1)[0].strip() for ln in set_lines}
        assert not set_keys & set(documented)
        assert set_keys | set(documented) == set(_KEYS)
        base = "\n".join(set_lines)
        cfg = parse_config(base)
        for key, text in documented.items():
            assert parse_config(f"{base}\n{key} = {text}") == cfg, key


def _field(cfg: RunConfig, key: str):
    section, _, name = key.rpartition(".")
    return getattr(getattr(cfg, section) if section else cfg, name)


@pytest.mark.parametrize("key, text", [
    ("grid.n_states", "inf"), ("grid.n_states", "nan"), ("mc.t_max", "inf"),
    ("v0", "inf"), ("payoff.c", "inf"),
])
def test_non_finite_number_is_usage_error_naming_key(tmp_path, capsys, key, text):
    lines = [ln for ln in GBM_CONFIG.splitlines() if not ln.startswith(f"{key} ")]
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"error: {key}: " in capsys.readouterr().err


class TestRunClosed:
    def test_flagship_exit_zero_and_summary(self, tmp_path):
        cfg = parse_config(GBM_CONFIG)
        out = tmp_path / "o"
        assert run(cfg, out_dir=str(out)) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "b_star,value_at_v0,solver,residual_or_stderr"
        b_star, value, solver, resid = summary[1].split(",")
        assert solver == "closed"
        assert abs(float(b_star) - 0.5) < 1e-6
        assert abs(float(value) - 0.25) < 1e-6
        report = (out / "report.txt").read_text()
        assert "result=PASS" in report
        assert "check=convexity status=PASS" in report
        assert (out / "value_function.csv").exists()
        assert (out / "policy.csv").read_text().startswith(
            "b_star,value_at_v,stderr,n_paths,bias_bound")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(GBM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=str(out1)) == 0
        assert run(cfg, out_dir=str(out2)) == 0
        for name in ("value_function.csv", "summary.csv", "policy.csv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestHypothesisScreen:
    def test_boundary_refused_with_exit_2(self, tmp_path):
        # exact float boundary: psi(1) = 0.5 + 0.5 = 1.0 == r
        text = ("model.r = 1.0\nmodel.mu = 0.5\nmodel.sigma = 1.0\n"
                "payoff.alpha = 1\npayoff.c = 1\nsolver = closed")
        assert run(parse_config(text), out_dir=str(tmp_path / "o")) == 2
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_sqrt_two_sigma_refused(self, tmp_path):
        # sigma = sqrt(2) in floats puts psi(1) a hair above r = 1
        text = (f"model.r = 1.0\nmodel.sigma = {math.sqrt(2.0)!r}\n"
                "payoff.alpha = 1\npayoff.c = 1\nsolver = closed")
        assert run(parse_config(text), out_dir=str(tmp_path / "o")) == 2

    def test_lowering_r_flips_acceptance_to_refusal(self, tmp_path):
        cfg_ok = parse_config(GBM_CONFIG)
        assert run(cfg_ok, out_dir=str(tmp_path / "ok")) == 0
        lowered = GBM_CONFIG.replace("model.r = 1.0", "model.r = 0.9")
        assert run(parse_config(lowered), out_dir=str(tmp_path / "no")) == 2

    def test_force_proceeds(self, tmp_path):
        text = ("model.r = 1.0\nmodel.mu = 0.5\nmodel.sigma = 1.0\n"
                "payoff.alpha = 1\npayoff.c = 1\nsolver = closed")
        with pytest.warns(UserWarning):
            code = run(parse_config(text), force=True, out_dir=str(tmp_path / "o"))
        assert code == 0
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "forced past the screen" in report


class TestRunLattice:
    def test_pipeline(self, tmp_path):
        cfg = parse_config(LATTICE_CONFIG)
        out = tmp_path / "o"
        assert run(cfg, out_dir=str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "check=put_equivalence status=PASS" in report
        assert "check=limit_at_zero status=PASS" in report
        assert "check=threshold_extraction status=PASS" in report
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[2] == "lattice"
        # coarse grid and step, but the threshold must land near 0.5
        assert 0.4 < float(summary[0]) < 0.65
        assert abs(float(summary[1]) - 0.25) < 0.02

    def test_continuous_exercise_estimate(self, tmp_path):
        # Flagship grid (the config defaults: 2000 states on [1e-3, 20],
        # dt = 1e-3): the chain's threshold sits ~4.6 cells above b* = 0.5,
        # the shifted estimate ~0.65 cells below it.
        cfg = parse_config(GBM_CONFIG.replace("closed", "lattice"))
        out = tmp_path / "o"
        assert run(cfg, out_dir=str(out)) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[-1] == "result=PASS"
        (line,) = [x for x in lines if x.startswith("check=continuous_exercise_estimate ")]
        assert line.startswith("check=continuous_exercise_estimate status=INFO b = ")
        estimate = float(line.split("b = ")[1].split(";")[0])
        h = math.log(20.0 / 1e-3) / 1999
        assert abs(math.log(estimate / 0.5)) <= 2.0 * h

        jump = parse_config(LATTICE_CONFIG + "model.lambda_j = 0.5\n")
        assert run(jump, out_dir=str(tmp_path / "j")) == 0
        report = (tmp_path / "j" / "report.txt").read_text()
        assert ("check=continuous_exercise_estimate status=INFO n/a (jump model)"
                in report)

    def test_v0_outside_grid_is_usage_error(self, tmp_path):
        cfg = parse_config(LATTICE_CONFIG + "v0 = 100.0\n")
        assert run(cfg, out_dir=str(tmp_path / "o")) == 3


class TestRunMc:
    def test_pipeline_and_determinism(self, tmp_path):
        cfg = parse_config(MC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=str(out1)) == 0
        assert run(cfg, out_dir=str(out2)) == 0
        for name in ("value_function.csv", "summary.csv", "policy.csv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        b_star, value, solver, stderr = (
            (out1 / "summary.csv").read_text().splitlines()[1].split(","))
        assert solver == "mc"
        assert 0.3 < float(b_star) < 0.7
        assert abs(float(value) - 0.25) < 0.05
        assert float(stderr) > 0.0

    def test_different_seed_changes_output(self, tmp_path):
        cfg = parse_config(MC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        from dataclasses import replace
        assert run(cfg, out_dir=str(out1)) == 0
        assert run(replace(cfg, mc=replace(cfg.mc, seed=12)), out_dir=str(out2)) == 0
        assert ((out1 / "summary.csv").read_bytes()
                != (out2 / "summary.csv").read_bytes())


    def test_two_sweeps_and_deepest_row_is_scalar(self, tmp_path, monkeypatch):
        # one CRN ladder sweep for the search, one sweep for the table and
        # the estimate at v0; the largest start is the lowest passage level,
        # so its row is bitwise the scalar estimate at that start
        import affinestop.threshold as threshold

        calls = []
        sweep = threshold._sweep_first_passage

        def counted(*args, **kwargs):
            calls.append(len(args[3]))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(threshold, "_sweep_first_passage", counted)
        cfg = parse_config(MC_CONFIG)
        out = tmp_path / "o"
        assert run(cfg, out_dir=str(out)) == 0
        assert len(calls) == 2
        assert calls[0] == 101
        b_star = float((out / "summary.csv").read_text().splitlines()[1].split(",")[0])
        v, s = (out / "value_function.csv").read_text().splitlines()[-1].split(",")[:2]
        assert float(v) > b_star
        est = threshold.hitting_value_mc(
            cfg.model, cfg.payoff, float(v), b_star, n_paths=cfg.mc.n_paths,
            t_max=cfg.mc.t_max, dt=cfg.mc.dt, seed=cfg.mc.seed)
        assert s == repr(est.mean)

    def test_verbose_notes_each_sweep_outputs_unchanged(self, tmp_path, capsys):
        cfg = parse_config(MC_CONFIG)
        quiet, loud = tmp_path / "q", tmp_path / "l"
        assert run(cfg, out_dir=str(quiet)) == 0
        capsys.readouterr()
        assert run(cfg, out_dir=str(loud), verbose=True) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("mc sweep:")]
        assert len(notes) == 2
        assert all(" levels=" in n and " paths=2000 " in n and " wall_s=" in n
                   and " deepest_truncated_frac=" in n for n in notes)
        assert sorted(p.name for p in quiet.iterdir()) == sorted(
            p.name for p in loud.iterdir())
        for path in quiet.iterdir():
            assert path.read_bytes() == (loud / path.name).read_bytes(), path.name

    def test_verbose_notes_intervals_per_path(self, tmp_path, capsys):
        # a diffusion path runs one interval: the kill or the t_max cut
        assert run(parse_config(MC_CONFIG), out_dir=str(tmp_path), verbose=True) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("mc sweep:")]
        assert len(notes) == 2
        assert all(n.endswith(" intervals_per_path=1.000") for n in notes)

    def test_v0_value_is_out_of_sample(self, tmp_path):
        # b* is picked on a noisy curve; valuing v0 on those same paths
        # would bias the value up.  Over seeded runs the value at v0 must
        # centre on the exact value of the run's own b*: mean z within 3
        # standard errors of the mean, 3/sqrt(N).
        from affinestop.threshold import hitting_value_closed

        base = MC_CONFIG.replace("mc.n_paths = 2000", "mc.n_paths = 2048")
        base = base.replace("mc.t_max = 5.0", "mc.t_max = 20.0")
        z = []
        for seed in range(300):
            cfg = parse_config(base.replace("mc.seed = 11", f"mc.seed = {seed}"))
            out = tmp_path / str(seed)
            assert run(cfg, out_dir=str(out)) == 0
            b_star, value, _, stderr = (
                (out / "summary.csv").read_text().splitlines()[1].split(","))
            exact = hitting_value_closed(cfg.model, cfg.payoff, cfg.v0, float(b_star))
            z.append((float(value) - exact) / float(stderr))
        assert abs(np.mean(z)) <= 3.0 / math.sqrt(len(z))


class TestRunOracle:
    def test_pipeline(self, tmp_path):
        cfg = parse_config(ORACLE_CONFIG)
        out = tmp_path / "o"
        assert run(cfg, out_dir=str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "check=exhaustive_equals_backward status=PASS" in report
        assert "check=smallest_rule_first_contact status=PASS" in report
        assert "check=threshold_form_downset status=PASS" in report
        thresholds = (out / "thresholds.csv").read_text().splitlines()
        assert thresholds[0] == "level,threshold"
        assert len(thresholds) == 7  # header + levels 0..5

    def test_depth_six_hits_guard(self, tmp_path):
        cfg = parse_config(ORACLE_CONFIG.replace("oracle.depth = 5",
                                                 "oracle.depth = 6"))
        assert run(cfg, out_dir=str(tmp_path / "o")) == 3

    def test_enumerates_rules_once(self, tmp_path, monkeypatch):
        # the smallest-rule check reuses the argmax rules of the one
        # enumeration instead of valuing all 458,330 rules again
        import affinestop.oracle as oracle

        calls = []
        table = oracle._rule_value_table

        def counted(*args, **kwargs):
            calls.append(args)
            return table(*args, **kwargs)

        monkeypatch.setattr(oracle, "_rule_value_table", counted)
        assert run(parse_config(ORACLE_CONFIG), out_dir=str(tmp_path)) == 0
        assert len(calls) == 1


_SUITE = ["convexity", "monotone_bounds", "limit_at_zero", "contact_downset",
          "put_equivalence"]
_TABLES = {"value_function.csv", "summary.csv", "report.txt"}


@pytest.mark.parametrize("config, code, files, checks", [
    (GBM_CONFIG, 0, _TABLES | {"policy.csv"}, ["hypothesis_screen", *_SUITE]),
    (LATTICE_CONFIG, 0, _TABLES,
     ["hypothesis_screen", "threshold_extraction", "continuous_exercise_estimate",
      *_SUITE]),
    (MC_CONFIG, 0, _TABLES | {"policy.csv"}, ["hypothesis_screen", *_SUITE]),
    (ORACLE_CONFIG, 0, _TABLES | {"thresholds.csv"},
     ["hypothesis_screen", "exhaustive_equals_backward",
      "smallest_rule_first_contact", "threshold_form_downset"]),
    (LATTICE_CONFIG + "v0 = 100.0\n", 3, set(), []),
], ids=["closed", "lattice", "mc", "oracle", "lattice-v0-outside-grid"])
def test_solver_output_contract(tmp_path, config, code, files, checks):
    # which files each solver leaves and the order of its report lines; a
    # usage error (exit 3) leaves no table behind
    out = tmp_path / "o"
    assert run(parse_config(config), out_dir=str(out)) == code
    assert {path.name for path in out.iterdir()} == files
    if checks:
        lines = (out / "report.txt").read_text().splitlines()
        assert [line.split()[0] for line in lines] == [
            *(f"check={name}" for name in checks), "result=PASS"]


def test_bench_span_names_are_cli_attributes():
    # bench/spans.py wraps getattr(affinestop.cli, name) for every key of
    # SPAN_NAMES, so a name cli no longer binds crashes a traced bench run
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    (names,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPAN_NAMES" for t in node.targets)]
    assert names
    assert [n for n in names if not hasattr(affinestop.cli, n)] == []


def test_import_leaves_scipy_signal_out():
    # A fresh interpreter, so that no other test has imported them already.
    # scipy.signal and scipy.special are most of a fresh import's cost.
    src = str(Path(affinestop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, affinestop.cli; print([m for m in "
            "('scipy.signal', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestMainEntry:
    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(GBM_CONFIG)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_solve_subcommand_overrides_solver(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(GBM_CONFIG.replace("solver = closed", "solver = lattice"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "closed" in (out / "summary.csv").read_text()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent")]) == 3

    def test_bad_flag_is_usage_error(self):
        assert main(["run", "--bogus"]) == 3

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(MC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["mc", "--config", str(cfg_path), "--out", str(out2),
                     "--seed", "999"]) == 0
        assert ((out1 / "summary.csv").read_bytes()
                != (out2 / "summary.csv").read_bytes())

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(MC_CONFIG)
        assert main(["mc", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 3
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_verify_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(GBM_CONFIG)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        csv_path = out / "value_function.csv"
        assert main(["verify", str(csv_path), "--alpha", "1", "--c", "1"]) == 0
        assert "result=PASS" in capsys.readouterr().out

        broken = tmp_path / "broken.csv"
        lines = csv_path.read_text().splitlines()
        v0, s0, rest = lines[1].split(",", 2)
        lines[1] = ",".join([v0, repr(float(s0) + 0.5), rest])
        broken.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(broken), "--alpha", "1", "--c", "1"]) == 1
        assert "status=FAIL" in capsys.readouterr().out

    def test_verify_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["verify", str(bad), "--alpha", "1", "--c", "1"]) == 3

    def test_verify_short_row_is_usage_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("v,s\n0.1,0.9\n0.2\n")
        assert main(["verify", str(short), "--alpha", "1", "--c", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: ")
