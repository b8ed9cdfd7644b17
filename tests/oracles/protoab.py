"""Counting oracles for the proto-abelian instances: short exact
sequences by pairing every mono with every epi, and subobjects by listing
them."""


def count_ses(inst, l, m, n) -> int:
    """Number of pairs (mono L -> M, epi M -> N) with im = ker."""
    images = [inst.image_sub(i) for i in inst.monos(l, m)]
    zero_n = inst.image_sub(inst.monos(inst.zero_key(), n)[0])
    kernels = [inst.preimage_sub(p, zero_n) for p in inst.epis(m, n)]
    return sum(1 for im in images for ker in kernels if im == ker)


def total_subobjects(inst, m) -> int:
    return len(inst.subobjects(m))
