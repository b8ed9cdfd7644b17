"""The characteristic map: induction products of wreath irreducibles land on
componentwise Littlewood-Richardson products of Schur functions.

Run:  python3 demos/06_characteristic_map.py
"""

from hallalg.exactmath.littlewood import littlewood_richardson
from hallalg.exactmath.partitions import PartitionMap
from hallalg.exactmath.symfunc import MultiSymElem, multisym_mul
from hallalg.groups import cyclic_group, trivial_group
from hallalg.wreath import ch, ch_ring_hom_check, induction_product

# Over the trivial group this is the classical story: inducing the outer
# product of two copies of the standard label (1) from S_1 x S_1 to S_2
# splits into the two partitions of 2.
t = trivial_group()
one = PartitionMap((0,), ((1,),))
ind = induction_product(t, one, one)
print("Ind(X_(1) x X_(1)) =",
      {str(k.to_json()): v for k, v in ind.items()})
print("ch of it:", ch(t, ind).to_json())
print("s_1 * s_1:", multisym_mul(MultiSymElem.basis(one),
                                 MultiSymElem.basis(one)).to_json())

# One alphabet's coefficients: c^(3,2,1)_(2,1),(2,1) = 2 is the first
# Littlewood-Richardson coefficient above 1.
print("c^(3,2,1)_(2,1),(2,1) =",
      littlewood_richardson((2, 1), (2, 1), (3, 2, 1)))

# Over Z/2 the two linear characters each carry their own alphabet.
Z2 = cyclic_group(2)
la = PartitionMap((0, 1), ((1,), ()))
lb = PartitionMap((0, 1), ((), (1,)))
ind = induction_product(Z2, la, lb)
print("\nmixed induction:", {str(k.to_json()): v for k, v in ind.items()})

# The full ring-homomorphism check over a size range.
ok, fails = ch_ring_hom_check(Z2, 3)
print("ch is a ring homomorphism on sizes <= 3 over Z/2:", ok)
