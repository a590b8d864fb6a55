"""Batch front end: a sectioned key-value config in, CSV tables and a report out.

Config format: one ``section.key = value`` per line, ``#`` starts a
comment, decimal numbers with optional exponent.  A section is a frozen
spec dataclass (``model``: ModelSpec, ``payoff``: PayoffSpec, ``grid``,
``mc``, ``oracle``) whose fields, types and defaults are its keys; ``solver``,
``v0`` and ``output`` sit at top level.  Unknown and duplicate keys,
non-numbers and non-finite numbers are errors naming the key, and each spec
validates itself, all before any computation starts.

Exit codes: 0 success, 1 a property check failed, 2 refused because the
discounted-growth screen psi(1) < r fails (override with --force), 3 usage
errors (bad config, bad flags, unsupported solver/model combinations,
instance-size guards).

Each solver returns a ``Solution``; ``run`` writes every output from it
except thresholds.csv, which the tree oracle writes itself.  All are UTF-8
with newline line endings, full-precision shortest round-trip decimals,
byte-identical for identical config and seed:

* value_function.csv -- ``v,s,f,is_stop``
* policy.csv         -- ``b_star,value_at_v,stderr,n_paths,bias_bound``
                        (threshold solvers: closed form and Monte Carlo)
* summary.csv        -- ``b_star,value_at_v0,solver,residual_or_stderr``
* thresholds.csv     -- ``level,threshold`` (tree oracle solver)
* report.txt         -- one line per property check plus a final verdict;
                        INFO lines report estimates and never fail a run
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

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

_MC_TABLE_POINTS = 17
_LADDER_POINTS = 101


class ConfigError(ValueError):
    """Unparseable or invalid configuration; message names line or key."""


@dataclass(frozen=True)
class GridSpec:
    """Log grid of the value tables; dt is the lattice and tree time step."""

    v_min: float = 1e-3
    v_max: float = 20.0
    n_states: int = 2000
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not (0.0 < self.v_min < self.v_max):
            raise ValueError(
                f"need 0 < v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo paths, horizon and seed; dt is validated but inert, since
    the engine moves paths from event to event."""

    n_paths: int = 100_000
    t_max: float = 20.0
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (0.0 < self.dt <= self.t_max):
            raise ValueError(
                f"need 0 < dt <= t_max, got dt={self.dt}, t_max={self.t_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OracleSpec:
    """Depth of the exhaustive binary tree."""

    depth: int = 5

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")


@dataclass(frozen=True)
class RunConfig:
    """One run: a section per spec dataclass plus three top-level keys."""

    model: ModelSpec
    payoff: PayoffSpec
    grid: GridSpec
    mc: McSpec
    oracle: OracleSpec
    solver: str
    v0: float = 1.0
    output: str = "out"

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ConfigError(
                f"solver: must be one of {', '.join(SOLVERS)}, got '{self.solver}'")
        if not self.v0 > 0.0:
            raise ConfigError(f"v0: must be > 0, got {self.v0}")


def _fields(cls) -> list[tuple[str, type, object]]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name], f.default) for f in fields(cls)]


def _key_table():
    """Config key -> (section or None, field, type, default), read off the
    dataclass fields (a MISSING default marks a required key), and section
    name -> spec class."""
    keys, sections = {}, {}
    for name, typ, default in _fields(RunConfig):
        if is_dataclass(typ):
            sections[name] = typ
            keys.update((f"{name}.{k}", (name, k, t, d)) for k, t, d in _fields(typ))
        else:
            keys[name] = (None, name, typ, default)
    return keys, sections


_KEYS, _SECTIONS = _key_table()


def _convert(key: str, typ: type, text: str):
    if typ is str:
        return text
    try:
        number = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: '{text}'") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {text}")
    if typ is int:
        if number != int(number):
            raise ConfigError(f"{key}: must be an integer, got {text}")
        return int(number)
    return number


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a ``section.key = value`` configuration."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        raw[key] = value

    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for key, (section, name, typ, default) in _KEYS.items():
        if key in raw:
            value = _convert(key, typ, raw[key])
        elif default is MISSING:
            raise ConfigError(f"{key}: required key missing")
        else:
            continue
        (top if section is None else sections[section])[name] = value

    for name, cls in _SECTIONS.items():
        try:
            top[name] = cls(**sections[name])
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return RunConfig(**top)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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

    def text(self) -> str:
        """The check lines, then the final ``result=`` verdict."""
        verdict = "FAIL" if self.failed else "PASS"
        return "".join(f"{line}\n" for line in [*self.lines, f"result={verdict}"])


def _run_value_suite(
    report: _Report,
    svf: SampledValueFunction,
    s_clipped: np.ndarray | None = None,
) -> None:
    """Standard battery on a sampled value function; ``s_clipped``, the
    clipped-payoff values on the same grid, adds put_equivalence."""
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
    if s_clipped is not None:
        report.add_check(check_put_equivalence(svf, replace(svf, s=s_clipped)))
    else:
        report.add(
            "put_equivalence", "SKIP",
            "needs a matched clipped-payoff solve (lattice solver runs both)",
        )


@dataclass(frozen=True)
class Solution:
    """One solve, which ``run`` writes and checks: the value table, the
    summary.csv row, the suite slack (None skips the suite: the oracle's node
    table repeats v), clipped-payoff values for put_equivalence, and the
    policy.csv estimate at v0 (exact when its stderr is 0; None: no file)."""

    v: np.ndarray
    s: np.ndarray
    stop: np.ndarray
    b_star: float
    value_at_v0: float
    residual_or_stderr: float
    suite_tol: float | None
    s_clipped: np.ndarray | None = None
    policy: McEstimate | None = None


def _run_closed(cfg: RunConfig, out: Path, report: _Report) -> Solution:
    b_star, value_fn = optimal_threshold_closed(cfg.model, cfg.payoff)
    v = np.geomspace(cfg.grid.v_min, cfg.grid.v_max, cfg.grid.n_states)
    value_at_v0 = float(value_fn(cfg.v0))
    return Solution(
        v=v, s=np.atleast_1d(value_fn(v)), stop=v <= b_star, b_star=b_star,
        value_at_v0=value_at_v0, residual_or_stderr=0.0, suite_tol=1e-8,
        policy=McEstimate(mean=value_at_v0, stderr=0.0, n_paths=0,
                          truncated_frac=0.0, bias_bound=0.0),
    )


# Broadie-Glasserman-Kou constant -zeta(1/2)/sqrt(2*pi): exercise allowed
# only every dt moves a diffusion's threshold up by about this many
# sigma*sqrt(dt) in log space.
_EXERCISE_SHIFT = 0.5826


def _run_lattice(cfg: RunConfig, out: Path, report: _Report) -> Solution:
    tol = 1e-9
    g = cfg.grid
    ch = build_chain(cfg.model, g.v_min, g.v_max, g.n_states, g.dt)
    if not (ch.states[0] <= cfg.v0 <= ch.states[-1]):
        raise ConfigError(f"v0={cfg.v0:g} lies outside the grid "
                          f"[{ch.states[0]:g}, {ch.states[-1]:g}]")
    res = value_iteration(ch, cfg.payoff, clipped=False, tol=tol)
    res_clip = value_iteration(ch, cfg.payoff, clipped=True, tol=tol)

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
        shift = _EXERCISE_SHIFT * cfg.model.sigma * math.sqrt(g.dt)
        estimate = f"b = {b_star * math.exp(-shift):g}"
    report.add("continuous_exercise_estimate", "INFO",
               f"{estimate}; diffusion-only "
               f"b_hat*exp(-{_EXERCISE_SHIFT}*sigma*sqrt(dt))")

    return Solution(
        v=ch.states, s=res.values,
        stop=np.array([i in res.stop_set for i in range(len(ch.states))]),
        b_star=b_star,
        value_at_v0=float(np.interp(math.log(cfg.v0), np.log(ch.states), res.values)),
        residual_or_stderr=res.residual, suite_tol=10.0 * tol,
        s_clipped=res_clip.values,
    )


def _note_sweep(report: _Report, levels: int, seconds: float,
                deepest: McEstimate) -> None:
    report.note(
        f"mc sweep: levels={levels} paths={deepest.n_paths} "
        f"wall_s={seconds:.3f} deepest_truncated_frac={deepest.truncated_frac!r} "
        f"intervals_per_path={deepest.intervals_per_path:.3f}"
    )


def _run_mc(cfg: RunConfig, out: Path, report: _Report) -> Solution:
    root = cfg.payoff.root
    b_lo = max(cfg.grid.v_min, 0.02 * root)
    b_hi = 0.98 * min(root, cfg.v0)
    if not b_lo < b_hi:
        raise ConfigError(
            f"mc: empty threshold search range [{b_lo:g}, {b_hi:g}]; "
            "v0 must sit above the searchable thresholds"
        )
    mc_args = asdict(cfg.mc)
    ladder = np.linspace(b_lo, b_hi, _LADDER_POINTS)
    # The search draws from its own substreams: valuing v0 on the paths
    # whose noisy curve picked b* would bias that value upwards.
    t0 = time.perf_counter()
    curve = hitting_value_mc_curve(cfg.model, cfg.payoff, cfg.v0, ladder,
                                   **mc_args, stream=1)
    _note_sweep(report, len(ladder), time.perf_counter() - t0, curve[0])
    means = np.array([e.mean for e in curve])
    b_star = optimize_threshold(
        lambda b: float(np.interp(b, ladder, means)),
        b_lo, b_hi, tol=1e-3 * (b_hi - b_lo),
    )

    # Policy-value table plus the estimate at v0, all from one sweep on the
    # default substreams: tau_b* from each start is one passage level of the
    # same paths (common randomness).  Starts at or below b* are the exact
    # payoff.
    v_grid = np.geomspace(cfg.grid.v_min, cfg.grid.v_max, _MC_TABLE_POINTS)
    starts, where = np.unique(np.append(v_grid, cfg.v0), return_inverse=True)
    t0 = time.perf_counter()
    ests = hitting_value_mc(cfg.model, cfg.payoff, starts, b_star, **mc_args)
    _note_sweep(report, int(np.sum(starts > b_star)), time.perf_counter() - t0,
                ests[-1])
    est = ests[where[-1]]
    table = [ests[i] for i in where[:-1]]
    max_err = max(e.stderr for e in table)

    # Stochastic table: run the suite with noise-aware slack (4 standard
    # errors; chord gaps combine two values, hence the factor 2).
    return Solution(
        v=v_grid, s=np.array([e.mean for e in table]), stop=v_grid <= b_star,
        b_star=b_star, value_at_v0=est.mean, residual_or_stderr=est.stderr,
        suite_tol=2.0 * max(4.0 * max_err, 1e-8), policy=est,
    )


def _run_oracle(cfg: RunConfig, out: Path, report: _Report) -> Solution:
    depth = cfg.oracle.depth
    n_rules = count_rules(depth, 2)
    if n_rules > ENUMERATION_GUARD:
        raise GuardError(
            f"oracle.depth={depth} gives {n_rules} rules, over the "
            f"{ENUMERATION_GUARD} enumeration guard"
        )
    m = cfg.model
    dt = cfg.grid.dt
    up = math.exp(m.mu * dt + m.sigma * math.sqrt(dt))
    down = math.exp(m.mu * dt - m.sigma * math.sqrt(dt))
    if up == down:
        raise ConfigError("oracle: binary tree needs sigma > 0 to branch")
    tree = Tree(depth=depth, v0=cfg.v0, multipliers=(up, down),
                probs=(0.5, 0.5), dt=dt, r=m.r)

    best, rules = best_rule_exhaustive(tree, cfg.payoff)
    backward = snell_value(tree, cfg.payoff)
    gap = abs(best - backward)
    report.add(
        "exhaustive_equals_backward",
        "PASS" if gap <= 1e-12 else "FAIL",
        f"|sup over all {n_rules} rules - backward induction| = {gap:.3e}",
    )
    try:
        smallest_optimal_rule(tree, cfg.payoff, rules)
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
    v, s = (np.array(col) for col in zip(
        *(vs for nodes in recombined_values(tree, cfg.payoff)
          for vs in sorted(nodes.values()))))

    decision_thresholds = [
        th for th in tf.level_thresholds[: max(tree.depth, 1)] if th is not None
    ]
    return Solution(
        v=v, s=s, stop=np.abs(s - payoff(cfg.payoff, v)) <= 1e-12,
        b_star=decision_thresholds[-1] if decision_thresholds else math.nan,
        value_at_v0=backward, residual_or_stderr=0.0, suite_tol=None,
    )


def run(cfg: RunConfig, force: bool = False, out_dir: str | None = None,
        verbose: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    rep = check_hypotheses(cfg.model)
    report = _Report(verbose)
    report.note(f"hypothesis screen: psi(1)={rep.psi_at_one:g} r={cfg.model.r:g} "
                f"h3_ok={rep.h3_ok} h4_ok={rep.h4_ok}")
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
    report.add(
        "hypothesis_screen",
        "PASS" if rep.h3_ok else "SKIP",
        f"psi(1)={rep.psi_at_one!r} r={cfg.model.r!r} h4_ok={rep.h4_ok}"
        + ("" if rep.h3_ok else " (forced past the screen)"),
    )

    try:
        solve = {
            "closed": _run_closed,
            "lattice": _run_lattice,
            "mc": _run_mc,
            "oracle": _run_oracle,
        }[cfg.solver]
        sol = solve(cfg, out, report)
        if sol.suite_tol is not None:
            svf = SampledValueFunction(sol.v, sol.s, cfg.payoff, sol.suite_tol)
            _run_value_suite(report, svf, sol.s_clipped)
    except (UnsupportedModelError, GuardError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    f = payoff(cfg.payoff, sol.v)
    rows = ((_fmt(vi), _fmt(si), _fmt(fi), "1" if stop else "0")
            for vi, si, fi, stop in zip(sol.v, sol.s, f, sol.stop))
    _write_csv(out / "value_function.csv", "v,s,f,is_stop", rows)
    if sol.policy is not None:
        p = sol.policy
        _write_csv(out / "policy.csv", "b_star,value_at_v,stderr,n_paths,bias_bound",
                   [(_fmt(sol.b_star), _fmt(p.mean), _fmt(p.stderr), str(p.n_paths),
                     _fmt(p.bias_bound))])
    _write_csv(
        out / "summary.csv",
        "b_star,value_at_v0,solver,residual_or_stderr",
        [(_fmt(sol.b_star), _fmt(sol.value_at_v0), cfg.solver,
          _fmt(sol.residual_or_stderr))],
    )
    (out / "report.txt").write_text(report.text(), encoding="utf-8", newline="")
    if report.failed:
        print(f"one or more checks failed; see {out / 'report.txt'}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    import csv as _csv

    try:
        pay = PayoffSpec(alpha=args.alpha, c=args.c)
        with open(args.csv, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.DictReader(fh, restval="")  # short row: not a number
            if reader.fieldnames is None or not {"v", "s"} <= set(reader.fieldnames):
                raise ValueError("CSV must have 'v' and 's' columns")
            rows = list(reader)
        v = np.array([float(row["v"]) for row in rows])
        s = np.array([float(row["s"]) for row in rows])
        svf = SampledValueFunction(v, s, pay, args.tol)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report = _Report()
    _run_value_suite(report, svf)
    print(report.text(), end="")
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
        if args.seed is not None:  # McSpec validates it like mc.seed
            cfg = replace(cfg, mc=replace(cfg.mc, seed=args.seed))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.command != "run":
        solver = {"solve": "closed", "mc": "mc", "oracle": "oracle"}[args.command]
        cfg = replace(cfg, solver=solver)
    return run(cfg, force=args.force, out_dir=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
