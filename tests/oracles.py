"""Brute-force reference implementations used to cross-check the library.

Everything here iterates over cells with plain Python dictionaries and
``math.log``, deliberately avoiding the library's vectorised marginal and
axis machinery, so the two paths can disagree if either has a bug.
``battery_masks`` is the one helper that reads the library: the entropy masks
a sweep cell evaluates.
"""

import math
from itertools import product


def _cells(joint):
    """Yield (assignment dict, probability) for every cell of a JointTable."""
    sizes = [a.size for a in joint.alphabets]
    for idx in product(*(range(s) for s in sizes)):
        yield dict(zip(joint.variables, idx)), float(joint.probs[idx])


def _project(assignment, variables):
    return tuple(assignment[v] for v in variables)


def brute_marginal(joint, variables):
    """Marginal as a dict {value tuple: probability}."""
    out = {}
    for assignment, p in _cells(joint):
        key = _project(assignment, variables)
        out[key] = out.get(key, 0.0) + p
    return out


def brute_entropy(joint, variables):
    return -sum(p * math.log(p) for p in brute_marginal(joint, variables).values() if p > 0.0)


def brute_mi(joint, x, y):
    x, y = list(x), list(y)
    pxy = brute_marginal(joint, x + y)
    px = brute_marginal(joint, x)
    py = brute_marginal(joint, y)
    total = 0.0
    for key, p in pxy.items():
        if p <= 0.0:
            continue
        kx, ky = key[: len(x)], key[len(x):]
        total += p * math.log(p / (px[kx] * py[ky]))
    return total


def brute_cmi(joint, x, y, z):
    """I(X; Y | Z) as sum over z of p(z) * MI inside the slice."""
    x, y, z = list(x), list(y), list(z)
    if not z:
        return brute_mi(joint, x, y)
    pz = brute_marginal(joint, z)
    pxyz = brute_marginal(joint, x + y + z)
    pxz = brute_marginal(joint, x + z)
    pyz = brute_marginal(joint, y + z)
    total = 0.0
    for key, p in pxyz.items():
        if p <= 0.0:
            continue
        kx = key[: len(x)]
        ky = key[len(x): len(x) + len(y)]
        kz = key[len(x) + len(y):]
        total += p * math.log(p * pz[kz] / (pxz[kx + kz] * pyz[ky + kz]))
    return total


def brute_bayes_accuracy(joint, prefix, target):
    """Exact accuracy of always guessing the most likely target given the prefix."""
    prefix = list(prefix)
    pt = brute_marginal(joint, prefix + [target])
    if not prefix:
        return max(pt.values())
    best = {}
    for key, p in pt.items():
        kp = key[:-1]
        best[kp] = max(best.get(kp, 0.0), p)
    return sum(best.values())


def battery_masks(n, identical):
    """The masks of a sweep cell's one ``mi_rows`` matrix per regime: the
    battery plan's sides, then both harmony objectives' score pairs."""
    from harmonia.information import _columns
    from harmonia.placement import Objective, _score_pairs
    from harmonia.sweep import battery_plan

    plan = battery_plan(n, identical)
    pairs = [pair for objective in (Objective.HEAD_PREDICTABILITY, Objective.DEPENDENT_PREDICTABILITY)
             for pairs in _score_pairs(objective, n, None, tuple(range(1, n + 1))) for pair in pairs]
    return _columns(tuple([e.lhs for e in plan] + [e.rhs for e in plan] + pairs))[0]
