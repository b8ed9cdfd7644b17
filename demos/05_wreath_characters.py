"""Exact character tables of wreath products G wr S_n.

Run:  python3 demos/05_wreath_characters.py
"""

from hallalg.exactmath.cyclotomic import poly_string
from hallalg.groups import cyclic_group
from hallalg.wreath import character_table

# Z/2 wr S_2 is the dihedral group of order 8: five classes, five
# irreducibles labeled by partition-valued maps on the dual of Z/2.
tab = character_table(cyclic_group(2), 2)
print("group order:", tab.order)
print("classes:", [l.to_json() for l in tab.class_labels])
print("class sizes:", tab.class_sizes)
for i, lam in enumerate(tab.irr_labels):
    row = " ".join(f"{poly_string(v):>4s}" for v in tab.values[i])
    print(f"  X{lam.to_json()!s:24s} {row}")
print("orthogonality:", tab.check_orthogonality()[0])
print("sum of dim^2 = |W|:",
      sum(tab.dimension(l) ** 2 for l in tab.irr_labels) == tab.order)

# Values of Z/3 wr S_2 live in Z[zeta_3]: each is its coefficient vector in
# the basis 1, z, printed as a polynomial in z.
tab3 = character_table(cyclic_group(3), 2)
print("\nZ/3 wr S_2, conductor", tab3.e)
sample = tab3.values[4]
print("a character row:", [poly_string(v) for v in sample])
print("orthogonality:", tab3.check_orthogonality()[0])
