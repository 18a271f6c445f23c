"""Output checks written without posetdim's own verifiers.

A family of orders realizes a poset exactly when, for every element x,
the intersection over the family of the elements above x equals the
strict upset of x.  Up-sets here are bitmask rows, bit y of row x set
when x < y.
"""

from __future__ import annotations


def realizer_problems(up: list[int], orders: list[list[int]],
                      label: str = "realizer") -> list[str]:
    """Why ``orders`` fails to realize the poset with up-set rows ``up``."""
    n = len(up)
    full = (1 << n) - 1
    if n and not orders:
        return [f"{label}: empty family for n={n}"]
    inter = [full] * n
    for order in {tuple(o) for o in orders}:  # repeats change nothing
        if len(order) != n:
            return [f"{label}: order of length {len(order)} for n={n}"]
        above = 0
        for v in reversed(order):
            inter[v] &= above
            above |= 1 << v
        if above != full:
            return [f"{label}: an order is not a permutation of 0..{n - 1}"]
    bad = [x for x in range(n) if inter[x] != up[x]]
    if bad:
        x = bad[0]
        return [f"{label}: {len(bad)} elements misplaced, first {x} "
                f"(above in all orders {inter[x]:#x}, upset {up[x]:#x})"]
    return []


def split_up_rows(up: list[int]) -> list[int]:
    """Up-set rows of the split: x' = x and x'' = n + x, with x' < y''
    exactly when x <= y in the input."""
    n = len(up)
    return [(up[x] | (1 << x)) << n for x in range(n)] + [0] * n


def certificate_problems(cert) -> list[str]:
    """Accounting of a peel certificate: totals and realizer size."""
    spent = sum(step.extensions_built for step in cert.steps)
    problems = []
    if cert.total_size != cert.base_dimension + spent:
        problems.append(
            f"total_size {cert.total_size} != base_dimension "
            f"{cert.base_dimension} + extensions built {spent}"
        )
    if len(cert.realizer.extensions) != cert.total_size:
        problems.append(
            f"realizer has {len(cert.realizer.extensions)} members, "
            f"total_size is {cert.total_size}"
        )
    return problems
