"""The four workloads: seeded config streams and the gate on each solve.

Every request is the text of an ``affinestop run`` config; the program sees
nothing else.  After a solve, ``check`` reads the files the solve wrote and
compares them with the exact references in ``reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reference as ref

GRID = {"v_min": 1e-3, "v_max": 20.0, "n_states": 2000, "dt": 1e-3}
FLAGSHIP_SIGMA = 1.4142135  # just inside the psi(1) = sigma^2/2 < r = 1 screen
KOU = {"mu": 0.0, "sigma": 1.0, "lambda_j": 0.5, "p_up": 0.4,
       "eta_up": 8.0, "eta_down": 4.0, "r": 1.0}
LATTICE_REL_TOL = 0.01   # acceptance criterion 3b
CLOSED_ABS_TOL = 1e-8
ORACLE_ABS_TOL = 1e-12
ORACLE_DEPTH = 5         # 458 330 rules, the largest depth under the 1e6 guard


@dataclass
class Outcome:
    """Gate verdict for one solve plus the accuracy figures it measured."""

    ok: bool
    detail: str = ""
    value_abs_err: float | None = None
    threshold_err_cells: float | None = None
    stderr: float | None = None


@dataclass
class Request:
    config: str
    check: Callable[[int, Path], Outcome]


def _config(**keys) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in keys.items())


def _row(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[1].split(",")


def _common(code: int, out: Path) -> str | None:
    """Exit code 0 and a PASS verdict, or the reason the solve failed."""
    if code != 0:
        return f"exit code {code}"
    report = out / "report.txt"
    if not report.is_file():
        return "report.txt missing"
    last = report.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    if last != "result=PASS":
        return f"report verdict {last!r}"
    return None


def _lattice_check(v0: float, b_star: float, s_ref: Callable[[float], float]):
    h = math.log(GRID["v_max"] / GRID["v_min"]) / (GRID["n_states"] - 1)

    def check(code: int, out: Path) -> Outcome:
        why = _common(code, out)
        if why:
            return Outcome(False, why)
        b_hat, value = (float(x) for x in _row(out / "summary.csv")[:2])
        want = s_ref(v0)
        err = abs(value - want)
        cells = abs(math.log(b_hat / b_star)) / h
        ok = err <= LATTICE_REL_TOL * want
        return Outcome(ok, "" if ok else f"value {value!r} vs reference {want!r}",
                       value_abs_err=err, threshold_err_cells=cells)

    return check


def gbm_lattice(rng: np.random.Generator) -> Iterator[Request]:
    def s_ref(v):
        return float(ref.gbm_value(v, 0.0, FLAGSHIP_SIGMA, 1.0, 1.0, 1.0))

    b_star = ref.gbm_b_star(0.0, FLAGSHIP_SIGMA, 1.0, 1.0, 1.0)
    while True:
        v0 = float(rng.uniform(0.6, 2.0))
        text = _config(**{"model.sigma": FLAGSHIP_SIGMA, "model.r": 1.0,
                          "payoff.alpha": 1.0, "payoff.c": 1.0,
                          "solver": "lattice", "v0": v0},
                       **{f"grid.{k}": v for k, v in GRID.items()})
        yield Request(text, _lattice_check(v0, b_star, s_ref))


def _kou_config(**extra) -> str:
    return _config(**{f"model.{k}": v for k, v in KOU.items()},
                   **{"payoff.alpha": 1.0, "payoff.c": 1.0}, **extra)


def kou_lattice(rng: np.random.Generator) -> Iterator[Request]:
    kou = ref.Kou(**KOU, alpha=1.0, c=1.0)
    while True:
        v0 = float(rng.uniform(0.6, 2.0))
        text = _kou_config(solver="lattice", v0=v0,
                           **{f"grid.{k}": v for k, v in GRID.items()})
        yield Request(text, _lattice_check(v0, kou.b_star,
                                           lambda v: float(kou.value(v))))


MC_PATHS = 2048


def kou_mc(rng: np.random.Generator) -> Iterator[Request]:
    kou = ref.Kou(**KOU, alpha=1.0, c=1.0)

    def check(code: int, out: Path) -> Outcome:
        why = _common(code, out)
        if why:
            return Outcome(False, why)
        b_star, value, stderr, n_paths, bias = _row(out / "policy.csv")
        b_star, value, stderr, bias = map(float, (b_star, value, stderr, bias))
        want = float(kou.policy_value(1.0, b_star))
        ok = abs(value - want) <= 4.0 * stderr + bias and int(n_paths) == MC_PATHS
        return Outcome(ok, "" if ok else
                       f"value {value!r} +- {stderr:.2e} at b={b_star!r}, "
                       f"reference {want!r}, n_paths {n_paths}",
                       stderr=stderr)

    while True:
        text = _kou_config(solver="mc", v0=1.0,
                           **{"mc.n_paths": MC_PATHS, "mc.t_max": 20.0,
                              "mc.dt": 1e-3, "mc.seed": int(rng.integers(2**31))})
        yield Request(text, check)


def _random_gbm(rng: np.random.Generator) -> dict:
    """An admissible diffusion: psi(1) = mu + sigma^2/2 stays below r."""
    mu = float(rng.uniform(-0.5, 0.5))
    sigma = float(rng.uniform(0.2, 1.5))
    r = max(mu + 0.5 * sigma * sigma, 0.0) + float(rng.uniform(0.1, 1.0))
    return {"mu": mu, "sigma": sigma, "r": r,
            "alpha": float(rng.uniform(0.5, 2.0)), "c": float(rng.uniform(0.5, 2.0))}


def _model_keys(m: dict) -> dict:
    return {"model.mu": m["mu"], "model.sigma": m["sigma"], "model.r": m["r"],
            "payoff.alpha": m["alpha"], "payoff.c": m["c"]}


def _closed_request(rng: np.random.Generator) -> Request:
    m = _random_gbm(rng)
    root = m["c"] / m["alpha"]
    v0 = float(min(rng.uniform(0.3, 3.0) * root, 19.0))
    args = (m["mu"], m["sigma"], m["r"], m["alpha"], m["c"])

    def check(code: int, out: Path) -> Outcome:
        why = _common(code, out)
        if why:
            return Outcome(False, why)
        b_star, value = (float(x) for x in _row(out / "summary.csv")[:2])
        table = np.array([line.split(",")[:2] for line in (out / "value_function.csv")
                          .read_text(encoding="utf-8").splitlines()[1:]], dtype=float)
        errs = (abs(b_star - ref.gbm_b_star(*args)),
                abs(value - float(ref.gbm_value(v0, *args))),
                float(np.max(np.abs(table[:, 1] - ref.gbm_value(table[:, 0], *args)))))
        ok = len(table) == GRID["n_states"] and max(errs) <= CLOSED_ABS_TOL
        return Outcome(ok, "" if ok else f"closed-form errors {errs}, {len(table)} rows")

    return Request(_config(**_model_keys(m), solver="closed", v0=v0), check)


def _oracle_request(rng: np.random.Generator) -> Request:
    m = _random_gbm(rng)
    dt = float(rng.uniform(0.02, 0.25))
    v0 = float(rng.uniform(0.3, 1.2) * m["c"] / m["alpha"])
    up = math.exp(m["mu"] * dt + m["sigma"] * math.sqrt(dt))
    down = math.exp(m["mu"] * dt - m["sigma"] * math.sqrt(dt))
    want = ref.tree_value(ORACLE_DEPTH, v0, up, down, 0.5, math.exp(-m["r"] * dt),
                          m["alpha"], m["c"])

    def check(code: int, out: Path) -> Outcome:
        why = _common(code, out)
        if why:
            return Outcome(False, why)
        value = float(_row(out / "summary.csv")[1])
        ok = abs(value - want) <= ORACLE_ABS_TOL
        return Outcome(ok, "" if ok else f"oracle {value!r} vs backward {want!r}")

    text = _config(**_model_keys(m), solver="oracle", v0=v0,
                   **{"grid.dt": dt, "oracle.depth": ORACLE_DEPTH})
    return Request(text, check)


def desk_batch(rng: np.random.Generator) -> Iterator[Request]:
    while True:
        yield _closed_request(rng)
        yield _oracle_request(rng)


WORKLOADS = {
    "gbm_lattice": gbm_lattice,
    "kou_lattice": kou_lattice,
    "kou_mc": kou_mc,
    "desk_batch": desk_batch,
}
