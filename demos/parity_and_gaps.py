"""
Parity, residue gaps, and half-range statistics
===============================================

Three small companions to the window scans: the Gauss lemma parity count,
the decay of windows that miss a residue class entirely, and the
beta-truncated quadratic residue scan.
"""

from fractions import Fraction

from curvestats import beta_residue_scan, cor4_exceptional, gauss_lemma_check
from curvestats.curvewin import ScanSpec
from curvestats.ffield import FieldSpec

# (a|p) = (-1)^r with r counting folds into the upper half
p = 23
print(f"Gauss lemma at p = {p}:")
for a in (2, 3, 5, 7):
    r, ok = gauss_lemma_check(a, p)
    sign = "+1" if r % 2 == 0 else "-1"
    print(f"  a = {a}: r = {r}, symbol {sign}, matches Euler criterion: {ok}")

# windows of length L with no quadratic nonresidue become rare fast
fs = FieldSpec.from_prime(100003)
print("windows with no nonresidue over F_100003:")
lengths = (5, 8, 11, 14, 17, 20)
for L, n in zip(lengths, cor4_exceptional(fs, 2, lengths, 1)):
    print(f"  L = {L:2d}: {n:6d} exceptional starts "
          f"(crude scale p/2^L = {fs.p / 2**L:9.1f})")

# beta scan: count x whose square roots reach only up to beta * p
fs = FieldSpec.from_prime(10007)
scan = beta_residue_scan(fs, Fraction(1, 4), ScanSpec(0, 9907, 100), m=3)
print(f"beta = 1/4 scan over F_{fs.p}: y range [1, {scan.y_max}]")
print(f"  {scan.positions} windows of 100, tallied mod 3")
print(f"  beta-residues R:           {scan.r_hist.counts}")
print(f"  nonresidues N = 100 - R:   {scan.n_hist.counts}")
