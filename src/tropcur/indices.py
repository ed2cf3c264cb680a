"""Increasing multi-indices: subsets, concatenation signs, shuffle signs,
and the one sign rule for products in the block basis d'u_I ^ d''u_J; and
the strata of a chart, as subsets of its infinite axes.

Shared by the fiber algebra, the form fields and the currents, so that
modules needing only these signs do not load the fiber algebra.
"""

import itertools


def merge_indices(a, b):
    """(sign, merged) for concatenating two increasing index tuples.

    Returns (0, None) when the tuples share an index.
    """
    if set(a) & set(b):
        return 0, None
    sign = 1
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
            if (len(a) - i) % 2:
                sign = -sign
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def wedge_key(I1, J1, I2, J2):
    """(sign, (I, J)) with (d'u_I1 ^ d''u_J1) ^ (d'u_I2 ^ d''u_J2) = sign d'u_I ^ d''u_J.

    None when the product is zero.  Moving d'u_I2 past d''u_J1 gives
    (-1)^{|I2||J1|}; merging each block gives the rest.
    """
    sI, I = merge_indices(I1, I2)
    if sI == 0:
        return None
    sJ, J = merge_indices(J1, J2)
    if sJ == 0:
        return None
    return (-sI * sJ if len(I2) * len(J1) % 2 else sI * sJ), (I, J)


def _shuffle_sign(idx):
    """eps(I) = (-1)^{sum_k (i_k - k)}: the sign of the shuffle (I, I^c)."""
    return -1 if (sum(idx) - len(idx) * (len(idx) - 1) // 2) % 2 else 1


def subsets(n, p):
    return [tuple(c) for c in itertools.combinations(range(n), p)]


def stratum_subsets(chart):
    """The strata of a chart, as the subsets of its infinite axes."""
    axes = sorted(chart.infinite_axes)
    return [frozenset(a for i, a in enumerate(axes) if mask >> i & 1)
            for mask in range(1 << len(axes))]
