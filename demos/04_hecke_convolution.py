"""Hecke algebras by groupoid pull-push, against direct convolution.

Run:  python3 demos/04_hecke_convolution.py
"""

from hallalg.groups import (alternating_subgroup, symmetric_group,
                            symmetric_subgroup)
from hallalg.waldhausen.hecke import HeckeAlgebra, HeckeModule

S3 = symmetric_group(3)
S2 = symmetric_subgroup(S3, 2)

# Basis = double cosets H\G/H; the product is pushed through the span
# X_1 x X_1 <- X_2 -> X_1 and checked against
# (f*g)(x) = (1/|H|) sum_y f(y) g(y^-1 x) at construction time.
alg = HeckeAlgebra(S3, S2)
print("double cosets:", alg.labels)
for (a, b), prod in sorted(alg.constants.items()):
    print(f"  T{a} * T{b} =", prod)
print("unit index:", alg.unit_index)
print("associative and unital:", alg.check_associativity_and_unit()[0])

# The (S_4, S_3) table shows the generic quadratic relation at q = 3.
S4 = symmetric_group(4)
alg4 = HeckeAlgebra(S4, symmetric_subgroup(S4, 3))
other = 1 - alg4.unit_index
print("(S4,S3): T1*T1 =", alg4.constants[(other, other)])

# Modules on H\G/P: for P = H this is the right-regular module (same
# table); for P = G every double coset acts by its coset volume.
print("regular module equals the multiplication table:",
      HeckeModule(alg, S2).constants == alg.constants)
modG = HeckeModule(alg, S3)
print("P = G module:", modG.constants)
modA = HeckeModule(alg, alternating_subgroup(S3))
print("P = A_3 module axioms:", modA.check_module_axioms()[0])
