"""Block decompositions of the genus and the moduli-dimension lower bound.

Every g > 0 splits into the maximal runs of 1-bits of its binary expansion,
g = sum 2^s_i (2^(r_i+1) - 1).  Both curve constructions, the fields they
need, and the dimension bound for the supersingular locus all read off this
decomposition.
"""

from sscurves import decompose

print("g   binary        blocks (s, r)        w  m  u          moduli bound")
print("-" * 72)
for g in (1, 2, 5, 30, 221, 1000, 4096):
    d = decompose(g)
    bound = d.moduli_bound if g >= 2 else "-"
    print("%-5d %-12s %-20s %-2d %-2d %-10s %s"
          % (g, bin(g)[2:], list(d.blocks), d.w, d.m, list(d.u), bound))

print()
print("The reassembled sum always returns g:")
d = decompose(221)
parts = ["2^%d*(2^%d - 1)" % (s, r + 1) for s, r in d.blocks]
print("  221 =", " + ".join(parts), "=", d.recompose())

print()
print("For g = 2^n the bound specializes to n:")
for n in range(1, 11):
    print("  g = 2^%-2d -> dimension >= %d" % (n, decompose(1 << n).moduli_bound))
