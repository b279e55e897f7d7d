"""Binary block decomposition of a genus and its derived invariants.

Every positive integer g splits uniquely as

    g = sum over blocks of 2^(s_i) * (2^(r_i + 1) - 1),

where the blocks are the maximal runs of consecutive 1-bits of g (block i
covers bits s_i .. s_i + r_i, and successive blocks are separated by at
least one zero bit, i.e. s_i >= s_{i-1} + r_{i-1} + 2).  Both curve
constructions are driven entirely by this decomposition.
"""

from collections import namedtuple


class GenusDecomposition(namedtuple("GenusDecomposition",
                                    "g blocks w m u moduli_bound")):
    """The blocks of g and their invariants.

    blocks holds ((s_i, r_i), ...) in increasing-s order; w is the binary
    weight of g, the sum of r_i + 1; m is the widest block, max(r_i + 1);
    u_i = (s_i + 1) - sum_{j<i} (r_j + 1); and moduli_bound is
    sum (r_i+1) u_i - 1, or None for g < 2.
    """

    __slots__ = ()

    @property
    def t(self):
        return len(self.blocks)

    @property
    def strata(self):
        """((u_i, r_i + 1), ...): the fibre-product stratum of each block."""
        return tuple((u, r + 1) for (_, r), u in zip(self.blocks, self.u))

    def recompose(self):
        return sum((1 << s) * ((1 << (r + 1)) - 1) for s, r in self.blocks)


def decompose(g):
    """Block decomposition of g > 0 (maximal runs of 1-bits, lowest first)."""
    if g < 1:
        raise ValueError("genus must be a positive integer")
    blocks = []
    bit = 0
    n = g
    while n:
        if n & 1:
            s = bit
            r = 0
            while n >> (r + 1) & 1:
                r += 1
            blocks.append((s, r))
            n >>= r + 1
            bit += r + 1
        else:
            n >>= 1
            bit += 1
    w = sum(r + 1 for _, r in blocks)
    m = max(r + 1 for _, r in blocks)
    u = []
    used = 0
    for s, r in blocks:
        u.append(s + 1 - used)
        used += r + 1
    bound = sum((r + 1) * ui for (_, r), ui in zip(blocks, u)) - 1 if g >= 2 else None
    d = GenusDecomposition(g, tuple(blocks), w, m, tuple(u), bound)
    assert d.recompose() == g
    return d


def moduli_lower_bound(d):
    """Lower bound for the dimension of the supersingular locus in genus g >= 2."""
    if d.g < 2:
        raise ValueError("moduli bound is defined for genus >= 2 only")
    return d.moduli_bound
