"""
Joint window statistics and the shift degeneracy
================================================

Two curves scanned at a common x0 give a joint histogram over pairs of
residues.  Multiplicatively independent polynomials mix; the pair
P(x) and P(x + 1) does not, because the second curve's window counts are
the first curve's counts read one position later.
"""

from curvestats import ScanSpec, curve, experiment_thm2, joint_histogram
from curvestats.ffield import FieldSpec
from curvestats.polyff import poly, x_poly

p, ell, m = 10007, 2, 3
fs = FieldSpec.from_prime(p)
spec = ScanSpec.full(p, 100, 10)

# a pair that mixes: x and x^2 + 1 share no shifted power relation
pair = [curve(fs, ell, x_poly(p)), curve(fs, ell, poly([1, 0, 1], p))]
jh = joint_histogram(pair, spec, m)
diag = sum(jh.cell((a, a)) for a in range(m))
print(f"independent pair: diagonal mass {diag}/{jh.total} "
      f"= {diag / jh.total:.3f} (uniform would give {1 / m:.3f})")

rep = experiment_thm2(pair, spec, m=m, trials=200, seed=3)
print(f"joint discrepancy {float(rep.discrepancy):.3e}, "
      f"bound {rep.bound:.2f}, model verdict {rep.model_pass}")

# the shifted pair concentrates: N_2(x0) = N_1(x0 + 1)
shifted = [curve(fs, ell, x_poly(p)), curve(fs, ell, poly([1, 1], p))]
jh2 = joint_histogram(shifted, spec, m)
diag2 = sum(jh2.cell((a, a)) for a in range(m))
print(f"shifted pair: diagonal mass {diag2}/{jh2.total} = {diag2 / jh2.total:.3f}")

rep2 = experiment_thm2(shifted, spec, m=m, trials=200, seed=3)
print(f"shifted joint discrepancy {float(rep2.discrepancy):.3e}, "
      f"model verdict {rep2.model_pass}")
print("the model flags the shifted pair; consecutive windows share "
      "I - 1 of their I points, so their counts differ by at most 2")
