"""Linearized-polynomial and L-polynomial helpers used only by the tests."""

from sscurves.linops import lin


def lin_compose(R, S):
    """R(S(x))."""
    if R.field != S.field:
        raise ValueError("field mismatch")
    F = R.field
    if R.is_zero() or S.is_zero():
        return lin(F, [])
    out = [0] * (len(R.coeffs) + len(S.coeffs) - 1)
    for i, a in enumerate(R.coeffs):
        if not a:
            continue
        for j, b in enumerate(S.coeffs):
            if b:
                out[i + j] ^= F.mul(a, F.frobenius(b, i))
    return lin(F, out)


def check_functional_equation(L):
    """c_(2g-i) = q^(g-i) c_i for every i <= g."""
    g = L.genus
    return all(L.coeffs[2 * g - i] == L.q ** (g - i) * L.coeffs[i]
               for i in range(g + 1))
