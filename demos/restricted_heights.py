"""
Counting points with bounded height
===================================

Restrict the point count to a rectangle: x in a window as before, y in
[1, p/2].  For y^2 = x each x has either no point or exactly one point
in that half interval, which is the single-solution condition the
restricted experiment checks before it runs.
"""

from curvestats import (
    Rect,
    ScanSpec,
    condition_star,
    condition_star_witness,
    curve,
    experiment_thm3,
    restricted_window_counts,
)
from curvestats.ffield import FieldSpec
from curvestats.polyff import x_poly

p = 10007
fs = FieldSpec.from_prime(p)
C = curve(fs, 2, x_poly(p))

half = Rect(0, p - 1, 1, p // 2)
print(f"rectangle: x in [0, {p - 1}], y in [1, {p // 2}]")
print(f"at most one y per x in the half interval: {condition_star(C, half)}")

# the full y range fails: y and p - y square to the same value
full = Rect(0, p - 1, 0, p - 1)
w = condition_star_witness(C, full)
print(f"full y range rejected, witness x = {w} has two matching y values")

spec = ScanSpec.full(p, 100, 10)
counts = restricted_window_counts(C, half, spec)
print(f"restricted counts of the first windows: {counts[:10].tolist()}")
print(f"mean restricted count: {counts.mean():.2f} "
      f"(about I * alpha with alpha = 1/2)")

rep = experiment_thm3(C, half, spec, m=3, trials=200, seed=19)
print(f"discrepancy {float(rep.discrepancy):.3e} vs bound {rep.bound:.2f}; "
      f"Bernoulli-step model verdict {rep.model_pass}")
for c in rep.hypotheses:
    mark = "ok" if c.passed else "VIOLATED"
    print(f"  [{mark}] {c.name}")
