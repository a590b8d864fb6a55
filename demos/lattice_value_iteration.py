"""Exact Snell solve on a log-spaced chain, against the closed form.

Policy iteration solves the chain exactly in a handful of iterations at
every dt (Bellman residual at rounding level).  Shows the extracted
stopping threshold and the one systematic gap between the two routes: with
exercise allowed only every dt, the stopping region is slightly wider than
the continuous one (its edge moves up by about 0.58 * sigma * sqrt(dt) in
log space), so the extracted threshold approaches b* only as dt shrinks.
"""

import math

import numpy as np

from affinestop import (
    ModelSpec,
    PayoffSpec,
    build_chain,
    extract_threshold,
    optimal_threshold_closed,
    value_iteration,
)

model = ModelSpec(mu=-0.1, sigma=1.0, r=0.8)
pay = PayoffSpec(alpha=1.0, c=1.0)
b_star, s = optimal_threshold_closed(model, pay)
print(f"closed form: b* = {b_star:.6f}, s(1) = {s(1.0):.6f}\n")

for dt in (0.02, 0.005, 0.00125):
    ch = build_chain(model, v_min=1e-3, v_max=15.0, n_states=900, dt=dt)
    res = value_iteration(ch, pay, tol=1e-9)
    s1 = float(np.interp(0.0, np.log(ch.states), res.values))
    b_hat = extract_threshold(res, ch)
    drift = math.log(b_hat / b_star) / (model.sigma * math.sqrt(dt))
    print(f"dt = {dt:<8g} policy iterations = {res.iterations:<3d} "
          f"residual = {res.residual:.1e}  "
          f"s(1) = {s1:.6f} (err {abs(s1 - s(1.0)):.2e})  "
          f"b_hat = {b_hat:.4f}  shift/(sigma*sqrt(dt)) = {drift:.2f}")

print("\nvalue errors vanish fast; the threshold shift scales with sqrt(dt),")
print("which is the discrete-exercise displacement, not solver error.")
