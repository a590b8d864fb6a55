"""Batch front end: flat key-value config in, CSV tables and a report out.

Config format: one ``section.key = value`` per line, ``#`` starts a
comment, decimal numbers with optional exponent.  Unknown and duplicate
keys are errors; every value is validated against the solver preconditions
before any computation starts.

Exit codes: 0 success, 1 a property check failed, 2 refused because the
discounted-growth screen psi(1) < r fails (override with --force), 3 usage
errors (bad config, bad flags, unsupported solver/model combinations,
instance-size guards).

Outputs, all UTF-8 with newline line endings, full-precision shortest
round-trip decimals, byte-identical for identical config and seed:

* value_function.csv -- ``v,s,f,is_stop``
* summary.csv        -- ``b_star,value_at_v0,solver,residual_or_stderr``
* policy.csv         -- ``b_star,value_at_v,stderr,n_paths,bias_bound``
                        (threshold solvers: closed form and Monte Carlo)
* thresholds.csv     -- ``level,threshold`` (tree oracle solver)
* report.txt         -- one line per property check plus a final verdict;
                        INFO lines report estimates and never fail a run
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from affinestop.lattice import (
    StructureError,
    build_chain,
    extract_threshold,
    value_iteration,
)
from affinestop.model import (
    ModelSpec,
    PayoffSpec,
    UnsupportedModelError,
    check_hypotheses,
    payoff,
)
from affinestop.oracle import (
    GuardError,
    Tree,
    best_rule_exhaustive,
    count_rules,
    recombined_values,
    smallest_optimal_rule,
    snell_value,
    threshold_form_check,
    ENUMERATION_GUARD,
)
from affinestop.threshold import (
    McEstimate,
    hitting_value_mc,
    hitting_value_mc_curve,
    optimal_threshold_closed,
    optimize_threshold,
)
from affinestop.verify import (
    SampledValueFunction,
    check_contact_downset,
    check_convexity,
    check_limit_at_zero,
    check_monotone_bounds,
    check_put_equivalence,
)

SOLVERS = ("closed", "lattice", "mc", "oracle")

# key -> (type, default); None default means the key is required
_SCHEMA = {
    "model.mu": (float, 0.0),
    "model.sigma": (float, 0.0),
    "model.lambda_j": (float, 0.0),
    "model.p_up": (float, 0.5),
    "model.eta_up": (float, 10.0),
    "model.eta_down": (float, 5.0),
    "model.r": (float, None),
    "payoff.alpha": (float, None),
    "payoff.c": (float, None),
    "solver": (str, None),
    "v0": (float, 1.0),
    "grid.v_min": (float, 1e-3),
    "grid.v_max": (float, 20.0),
    "grid.n_states": (int, 2000),
    "grid.dt": (float, 1e-3),
    "mc.n_paths": (int, 100_000),
    "mc.t_max": (float, 20.0),
    "mc.dt": (float, 1e-3),
    "mc.seed": (int, 0),
    "oracle.depth": (int, 5),
    "output": (str, "out"),
}

_MC_TABLE_POINTS = 17
_LADDER_POINTS = 101


class ConfigError(ValueError):
    """Unparseable or invalid configuration; message names line or key."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    payoff: PayoffSpec
    solver: str
    v0: float
    grid_v_min: float
    grid_v_max: float
    grid_n_states: int
    grid_dt: float
    mc_n_paths: int
    mc_t_max: float
    mc_dt: float
    mc_seed: int
    oracle_depth: int
    output: str


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a flat key-value configuration."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        raw[key] = value

    values: dict[str, object] = {}
    for key, (typ, default) in _SCHEMA.items():
        if key in raw:
            text_value = raw[key]
            if typ is str:
                values[key] = text_value
            elif typ is int:
                try:
                    as_float = float(text_value)
                except ValueError:
                    raise ConfigError(f"{key}: not a number: '{text_value}'") from None
                if as_float != int(as_float):
                    raise ConfigError(f"{key}: must be an integer, got {text_value}")
                values[key] = int(as_float)
            else:
                try:
                    values[key] = float(text_value)
                except ValueError:
                    raise ConfigError(f"{key}: not a number: '{text_value}'") from None
        else:
            if default is None:
                raise ConfigError(f"{key}: required key missing")
            values[key] = default

    if values["solver"] not in SOLVERS:
        raise ConfigError(
            f"solver: must be one of {', '.join(SOLVERS)}, got '{values['solver']}'"
        )
    try:
        model = ModelSpec(
            mu=values["model.mu"],
            sigma=values["model.sigma"],
            lambda_j=values["model.lambda_j"],
            p_up=values["model.p_up"],
            eta_up=values["model.eta_up"],
            eta_down=values["model.eta_down"],
            r=values["model.r"],
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    try:
        pay = PayoffSpec(alpha=values["payoff.alpha"], c=values["payoff.c"])
    except ValueError as exc:
        raise ConfigError(f"payoff: {exc}") from None
    if not values["v0"] > 0.0:
        raise ConfigError(f"v0: must be > 0, got {values['v0']}")
    if not (0.0 < values["grid.v_min"] < values["grid.v_max"]):
        raise ConfigError(
            f"grid: need 0 < v_min < v_max, got "
            f"[{values['grid.v_min']}, {values['grid.v_max']}]"
        )
    if values["grid.n_states"] < 1:
        raise ConfigError(f"grid.n_states: must be >= 1, got {values['grid.n_states']}")
    if not values["grid.dt"] > 0.0:
        raise ConfigError(f"grid.dt: must be > 0, got {values['grid.dt']}")
    if values["mc.n_paths"] < 1:
        raise ConfigError(f"mc.n_paths: must be >= 1, got {values['mc.n_paths']}")
    if not (0.0 < values["mc.dt"] <= values["mc.t_max"]):
        raise ConfigError(
            f"mc: need 0 < dt <= t_max, got dt={values['mc.dt']}, "
            f"t_max={values['mc.t_max']}"
        )
    if values["mc.seed"] < 0:
        raise ConfigError(f"mc.seed: must be >= 0, got {values['mc.seed']}")
    if values["oracle.depth"] < 0:
        raise ConfigError(f"oracle.depth: must be >= 0, got {values['oracle.depth']}")

    return RunConfig(
        model=model,
        payoff=pay,
        solver=values["solver"],
        v0=values["v0"],
        grid_v_min=values["grid.v_min"],
        grid_v_max=values["grid.v_max"],
        grid_n_states=values["grid.n_states"],
        grid_dt=values["grid.dt"],
        mc_n_paths=values["mc.n_paths"],
        mc_t_max=values["mc.t_max"],
        mc_dt=values["mc.dt"],
        mc_seed=values["mc.seed"],
        oracle_depth=values["oracle.depth"],
        output=values["output"],
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_value_function(path: Path, v, s, f, is_stop) -> None:
    rows = (
        (_fmt(vi), _fmt(si), _fmt(fi), "1" if stop else "0")
        for vi, si, fi, stop in zip(v, s, f, is_stop)
    )
    _write_csv(path, "v,s,f,is_stop", rows)


class _Report:
    """Accumulates check lines; knows whether anything failed.  Under
    ``verbose`` it also streams progress notes to stderr; notes never reach
    an output file."""

    def __init__(self, verbose: bool = False) -> None:
        self.lines: list[str] = []
        self.failed = False
        self.verbose = verbose

    def note(self, message: str) -> None:
        if self.verbose:
            print(message, file=sys.stderr)

    def add(self, name: str, status: str, detail: str) -> None:
        if status == "FAIL":
            self.failed = True
        self.lines.append(f"check={name} status={status} {detail}")

    def add_check(self, report) -> None:
        self.add(report.name, "PASS" if report.passed else "FAIL", report.detail)

    def write(self, path: Path) -> None:
        verdict = "FAIL" if self.failed else "PASS"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            fh.write(f"result={verdict}\n")


def _run_value_suite(
    report: _Report,
    svf: SampledValueFunction,
    svf_clipped: SampledValueFunction | None,
) -> float | None:
    """Standard battery on a sampled value function; returns b_hat."""
    report.add_check(check_convexity(svf))
    report.add_check(check_monotone_bounds(svf))
    if svf.v[0] <= 1e-3 * svf.payoff.root:
        report.add_check(check_limit_at_zero(svf))
    else:
        report.add(
            "limit_at_zero", "SKIP",
            f"grid starts at {svf.v[0]:g}, above 1e-3 * c/alpha; "
            "refine v_min to probe the v -> 0 limit",
        )
    contact = check_contact_downset(svf)
    status = "PASS" if contact.passed else "FAIL"
    report.add("contact_downset", status, contact.detail)
    if svf_clipped is not None:
        report.add_check(check_put_equivalence(svf, svf_clipped))
    else:
        report.add(
            "put_equivalence", "SKIP",
            "needs a matched clipped-payoff solve (lattice solver runs both)",
        )
    return contact.b_hat


def _interp_log(v0: float, states: np.ndarray, values: np.ndarray) -> float:
    if not (states[0] <= v0 <= states[-1]):
        raise ConfigError(f"v0={v0:g} lies outside the grid [{states[0]:g}, {states[-1]:g}]")
    return float(np.interp(math.log(v0), np.log(states), values))


def _run_closed(cfg: RunConfig, out: Path, report: _Report) -> int:
    b_star, value_fn = optimal_threshold_closed(cfg.model, cfg.payoff)
    v = np.geomspace(cfg.grid_v_min, cfg.grid_v_max, cfg.grid_n_states)
    s = np.atleast_1d(value_fn(v))
    f = np.atleast_1d(payoff(cfg.payoff, v))
    _write_value_function(out / "value_function.csv", v, s, f, v <= b_star)
    value_at_v0 = float(value_fn(cfg.v0))
    _write_csv(
        out / "policy.csv",
        "b_star,value_at_v,stderr,n_paths,bias_bound",
        [(_fmt(b_star), _fmt(value_at_v0), _fmt(0.0), "0", _fmt(0.0))],
    )
    svf = SampledValueFunction(v=v, s=s, payoff=cfg.payoff, tolerance=1e-8)
    _run_value_suite(report, svf, None)
    _write_csv(
        out / "summary.csv",
        "b_star,value_at_v0,solver,residual_or_stderr",
        [(_fmt(b_star), _fmt(value_at_v0), "closed", _fmt(0.0))],
    )
    return 0


# Broadie-Glasserman-Kou constant -zeta(1/2)/sqrt(2*pi): exercise allowed
# only every dt moves a diffusion's threshold up by about this many
# sigma*sqrt(dt) in log space.
_EXERCISE_SHIFT = 0.5826


def _run_lattice(cfg: RunConfig, out: Path, report: _Report) -> int:
    tol = 1e-9
    ch = build_chain(cfg.model, cfg.grid_v_min, cfg.grid_v_max,
                     cfg.grid_n_states, cfg.grid_dt)
    res = value_iteration(ch, cfg.payoff, clipped=False, tol=tol)
    res_clip = value_iteration(ch, cfg.payoff, clipped=True, tol=tol)
    f = np.atleast_1d(np.asarray(payoff(cfg.payoff, ch.states), dtype=float))
    is_stop = np.zeros(len(ch.states), dtype=bool)
    for i in res.stop_set:
        is_stop[i] = True
    _write_value_function(out / "value_function.csv", ch.states, res.values, f, is_stop)

    try:
        b_star = extract_threshold(res, ch)
        report.add("threshold_extraction", "PASS",
                   f"stop set is a lower interval; b = {b_star:g}")
    except (StructureError, ValueError) as exc:
        b_star = math.nan
        report.add("threshold_extraction", "FAIL", str(exc))
    if cfg.model.lambda_j > 0.0:
        estimate = "n/a (jump model)"
    else:
        shift = _EXERCISE_SHIFT * cfg.model.sigma * math.sqrt(cfg.grid_dt)
        estimate = f"b = {b_star * math.exp(-shift):g}"
    report.add("continuous_exercise_estimate", "INFO",
               f"{estimate}; diffusion-only "
               f"b_hat*exp(-{_EXERCISE_SHIFT}*sigma*sqrt(dt))")

    suite_tol = 10.0 * tol
    svf = SampledValueFunction(ch.states, res.values, cfg.payoff, suite_tol)
    svf_clip = SampledValueFunction(ch.states, res_clip.values, cfg.payoff, suite_tol)
    _run_value_suite(report, svf, svf_clip)
    value_at_v0 = _interp_log(cfg.v0, ch.states, res.values)
    _write_csv(
        out / "summary.csv",
        "b_star,value_at_v0,solver,residual_or_stderr",
        [(_fmt(b_star), _fmt(value_at_v0), "lattice", _fmt(res.residual))],
    )
    return 0


def _note_sweep(report: _Report, levels: int, seconds: float,
                deepest: McEstimate) -> None:
    report.note(
        f"mc sweep: levels={levels} paths={deepest.n_paths} "
        f"wall_s={seconds:.3f} deepest_truncated_frac={deepest.truncated_frac!r}"
    )


def _run_mc(cfg: RunConfig, out: Path, report: _Report) -> int:
    root = cfg.payoff.root
    b_lo = max(cfg.grid_v_min, 0.02 * root)
    b_hi = 0.98 * min(root, cfg.v0)
    if not b_lo < b_hi:
        raise ConfigError(
            f"mc: empty threshold search range [{b_lo:g}, {b_hi:g}]; "
            "v0 must sit above the searchable thresholds"
        )
    mc_args = dict(n_paths=cfg.mc_n_paths, t_max=cfg.mc_t_max,
                   dt=cfg.mc_dt, seed=cfg.mc_seed)
    ladder = np.linspace(b_lo, b_hi, _LADDER_POINTS)
    t0 = time.perf_counter()
    curve = hitting_value_mc_curve(cfg.model, cfg.payoff, cfg.v0, ladder, **mc_args)
    _note_sweep(report, len(ladder), time.perf_counter() - t0, curve[0])
    means = np.array([e.mean for e in curve])
    b_star = optimize_threshold(
        lambda b: float(np.interp(b, ladder, means)),
        b_lo, b_hi, tol=1e-3 * (b_hi - b_lo),
    )

    # Policy-value table plus the estimate at v0, all from one sweep: tau_b*
    # from each start is one passage level of the same paths (common
    # randomness, same seed).  Starts at or below b* are the exact payoff.
    v_grid = np.geomspace(cfg.grid_v_min, cfg.grid_v_max, _MC_TABLE_POINTS)
    starts, where = np.unique(np.append(v_grid, cfg.v0), return_inverse=True)
    t0 = time.perf_counter()
    ests = hitting_value_mc(cfg.model, cfg.payoff, starts, b_star, **mc_args)
    _note_sweep(report, int(np.sum(starts > b_star)), time.perf_counter() - t0,
                ests[-1])
    est = ests[where[-1]]
    table = [ests[i] for i in where[:-1]]
    _write_csv(
        out / "policy.csv",
        "b_star,value_at_v,stderr,n_paths,bias_bound",
        [(
            _fmt(b_star), _fmt(est.mean), _fmt(est.stderr),
            str(est.n_paths), _fmt(est.bias_bound),
        )],
    )
    s_vals = np.array([e.mean for e in table])
    max_err = max(e.stderr for e in table)
    f_grid = np.atleast_1d(payoff(cfg.payoff, v_grid))
    _write_value_function(out / "value_function.csv", v_grid, s_vals, f_grid,
                          v_grid <= b_star)

    # Stochastic table: run the suite with noise-aware slack (4 standard
    # errors; chord gaps combine two values, hence the factor 2).
    base_tol = max(4.0 * max_err, 1e-8)
    svf = SampledValueFunction(v_grid, s_vals, cfg.payoff, 2.0 * base_tol)
    _run_value_suite(report, svf, None)
    _write_csv(
        out / "summary.csv",
        "b_star,value_at_v0,solver,residual_or_stderr",
        [(_fmt(b_star), _fmt(est.mean), "mc", _fmt(est.stderr))],
    )
    return 0


def _run_oracle(cfg: RunConfig, out: Path, report: _Report) -> int:
    n_rules = count_rules(cfg.oracle_depth, 2)
    if n_rules > ENUMERATION_GUARD:
        raise GuardError(
            f"oracle.depth={cfg.oracle_depth} gives {n_rules} rules, over the "
            f"{ENUMERATION_GUARD} enumeration guard"
        )
    m = cfg.model
    dt = cfg.grid_dt
    up = math.exp(m.mu * dt + m.sigma * math.sqrt(dt))
    down = math.exp(m.mu * dt - m.sigma * math.sqrt(dt))
    if up == down:
        raise ConfigError("oracle: binary tree needs sigma > 0 to branch")
    tree = Tree(depth=cfg.oracle_depth, v0=cfg.v0, multipliers=(up, down),
                probs=(0.5, 0.5), dt=dt, r=m.r)

    best, _rules = best_rule_exhaustive(tree, cfg.payoff)
    backward = snell_value(tree, cfg.payoff)
    gap = abs(best - backward)
    report.add(
        "exhaustive_equals_backward",
        "PASS" if gap <= 1e-12 else "FAIL",
        f"|sup over all {n_rules} rules - backward induction| = {gap:.3e}",
    )
    try:
        smallest_optimal_rule(tree, cfg.payoff)
        report.add("smallest_rule_first_contact", "PASS",
                   "pointwise-minimal optimal rule stops at first payoff contact")
    except RuntimeError as exc:
        report.add("smallest_rule_first_contact", "FAIL", str(exc))

    tf = threshold_form_check(tree, cfg.payoff)
    report.add(
        "threshold_form_downset",
        "PASS" if tf.passed else "FAIL",
        "per-level contact sets are lower intervals" if tf.passed
        else f"contact resumes above a gap at {list(tf.violations)[:4]}",
    )
    _write_csv(
        out / "thresholds.csv",
        "level,threshold",
        (
            (str(level), "" if th is None else _fmt(th))
            for level, th in enumerate(tf.level_thresholds)
        ),
    )

    # Node table, level by level (v repeats across levels).
    rows = [
        (level, v, s, payoff(cfg.payoff, v))
        for level, nodes in enumerate(recombined_values(tree, cfg.payoff))
        for v, s in sorted(nodes.values())
    ]
    _write_value_function(
        out / "value_function.csv",
        [rv for _, rv, _, _ in rows],
        [rs for _, _, rs, _ in rows],
        [rf for _, _, _, rf in rows],
        [abs(rs - rf) <= 1e-12 for _, _, rs, rf in rows],
    )

    decision_thresholds = [
        th for th in tf.level_thresholds[: max(tree.depth, 1)] if th is not None
    ]
    b_star = decision_thresholds[-1] if decision_thresholds else math.nan
    _write_csv(
        out / "summary.csv",
        "b_star,value_at_v0,solver,residual_or_stderr",
        [(_fmt(b_star), _fmt(backward), "oracle", _fmt(0.0))],
    )
    return 0


def run(cfg: RunConfig, force: bool = False, out_dir: str | None = None,
        verbose: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    rep = check_hypotheses(cfg.model)
    if verbose:
        print(
            f"hypothesis screen: psi(1)={rep.psi_at_one:g} r={cfg.model.r:g} "
            f"h3_ok={rep.h3_ok} h4_ok={rep.h4_ok}",
            file=sys.stderr,
        )
    if not rep.h3_ok and not force:
        print(
            f"refused: psi(1) = {rep.psi_at_one!r} is not < r = {cfg.model.r!r} "
            "(discounted growth does not vanish; the threshold theory does not "
            "protect these numbers). Re-run with --force to proceed anyway.",
            file=sys.stderr,
        )
        return 2

    out = Path(out_dir if out_dir is not None else cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    report = _Report(verbose)
    report.add(
        "hypothesis_screen",
        "PASS" if rep.h3_ok else "SKIP",
        f"psi(1)={rep.psi_at_one!r} r={cfg.model.r!r} h4_ok={rep.h4_ok}"
        + ("" if rep.h3_ok else " (forced past the screen)"),
    )

    try:
        dispatch = {
            "closed": _run_closed,
            "lattice": _run_lattice,
            "mc": _run_mc,
            "oracle": _run_oracle,
        }[cfg.solver]
        dispatch(cfg, out, report)
    except (UnsupportedModelError, GuardError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report.write(out / "report.txt")
    if report.failed:
        print(f"one or more checks failed; see {out / 'report.txt'}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    import csv as _csv

    try:
        pay = PayoffSpec(alpha=args.alpha, c=args.c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        with open(args.csv, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.DictReader(fh)
            if reader.fieldnames is None or not {"v", "s"} <= set(reader.fieldnames):
                print("error: CSV must have 'v' and 's' columns", file=sys.stderr)
                return 3
            v, s = [], []
            for row in reader:
                v.append(float(row["v"]))
                s.append(float(row["s"]))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        svf = SampledValueFunction(np.asarray(v), np.asarray(s), pay, args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report = _Report()
    _run_value_suite(report, svf, None)
    for line in report.lines:
        print(line)
    print(f"result={'FAIL' if report.failed else 'PASS'}")
    return 1 if report.failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _add_run_options(sub) -> None:
    sub.add_argument("--config", required=True, help="path to the config file")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--force", action="store_true",
                     help="run solvers even when the psi(1) < r screen fails")
    sub.add_argument("--seed", type=int, help="override mc.seed")
    sub.add_argument("--verbose", action="store_true")


def main(argv=None) -> int:
    parser = _Parser(prog="affinestop",
                     description="threshold policies for affine-payoff stopping")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "run the solver named in the config"),
        ("solve", "closed-form threshold solver"),
        ("mc", "Monte Carlo threshold solver"),
        ("oracle", "exhaustive tree oracle"),
    ):
        _add_run_options(subs.add_parser(name, help=blurb))
    ver = subs.add_parser("verify", help="property checks on a v,s CSV")
    ver.add_argument("csv", help="CSV file with v and s columns")
    ver.add_argument("--alpha", type=float, required=True)
    ver.add_argument("--c", type=float, required=True)
    ver.add_argument("--tol", type=float, default=1e-8)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3

    if args.command == "verify":
        return _cmd_verify(args)

    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.command != "run":
        solver = {"solve": "closed", "mc": "mc", "oracle": "oracle"}[args.command]
        cfg = replace(cfg, solver=solver)
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be >= 0", file=sys.stderr)
            return 3
        cfg = replace(cfg, mc_seed=args.seed)

    return run(cfg, force=args.force, out_dir=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
