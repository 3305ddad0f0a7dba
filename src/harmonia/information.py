"""Exact information measures.

All quantities are in nats and are arithmetic on the subset entropies of one
source, as in Cover & Thomas, *Elements of Information Theory*, ch. 2::

    I(X; Y)     = H(X) + H(Y) - H(XY)
    I(X; Y | Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z)

Entropies follow the ``0 * log 0 = 0`` convention.  Tiny negative results
from floating-point cancellation (within ``CLAMP_BAND`` of zero) are clamped
to exactly 0.0 so that downstream comparisons never see ``-1e-17``-style
noise.  A source is anything with a memoised ``entropy_of(mask)``: a
``FactoredModel``, which reads each marginal off its factors, or a dense
``JointTable``, which sums it out of the joint.

Symmetry of mutual information is bit-exact by construction: swapping X and
Y swaps the two leading terms, and IEEE addition commutes.  So a symmetry
check compares I(X; Y) from the entropies with I(Y; X) from ``direct_mi_of``,
an independent path that sums directly over a dense joint's marginal.

The public measures take a joint table and groups of variables (each one
``Variable`` or an iterable of distinct ones) and validate them; each
``*_of`` form takes trusted axis bitmasks instead, as ``entropy_of`` does,
and every one but ``direct_mi_of`` takes any source.  ``check_tolerance`` is
the one rule for a tolerance: a finite number >= 0, where 0.0 is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .distributions import (
    EntropySource,
    JointTable,
    ValidationError,
    Variable,
    variables_of,
)

#: Measured in nats.  Alias to keep signatures self-describing.
Nats = float

#: A group of variables, as the public measures accept it.
Vars = Variable | Iterable[Variable]

#: Shared default tolerance, in nats, for every comparison in the package.
DEFAULT_TOLERANCE: float = 1e-9

#: Negative values above this threshold are floating-point noise and clamp to 0.
CLAMP_BAND: float = 1e-12

LN2 = math.log(2.0)


def to_bits(value: Nats) -> float:
    """Convert nats to bits for display."""
    return value / LN2


def _clamp(value: float) -> float:
    if value < 0.0 and value > -CLAMP_BAND:
        return 0.0
    return value


def _masks(joint: JointTable, *groups) -> list[int]:
    """One axis bitmask per group, after checking the groups are non-empty,
    pairwise disjoint and made of the table's variables."""
    masks: list[int] = []
    seen = 0
    for group in groups:
        vs = variables_of(group)
        if not vs:
            raise ValidationError("variable set must be non-empty")
        mask = 0
        for v in vs:
            mask |= 1 << joint.axis_of(v)  # raises if missing
        if mask & seen:
            raise ValidationError(
                f"variable sets must be disjoint, {[v.name for v in vs]} overlaps an earlier set"
            )
        seen |= mask
        masks.append(mask)
    return masks


def entropy(joint: JointTable, subset: Vars) -> Nats:
    """Shannon entropy of the marginal over ``subset``, in nats."""
    (mask,) = _masks(joint, subset)
    return joint.entropy_of(mask)


def direct_mi_of(joint: JointTable, mx: int, my: int) -> Nats:
    """I(X; Y) on axis bitmasks, summed directly as p log(p / (p_x p_y)) over
    the marginal of X and Y.

    The reference path: it never reads the entropy table, so checks of
    identities that the table satisfies by construction (symmetry, the chain
    rule) still compare two independent computations.  It is symmetric bit
    for bit, because the only asymmetric step, ``p_x * p_y``, commutes in
    IEEE arithmetic.
    """
    keep = [i for i in range(joint.probs.ndim) if (mx | my) >> i & 1]
    drop = tuple(i for i in range(joint.probs.ndim) if i not in keep)
    p = joint.probs.sum(axis=drop) if drop else joint.probs
    px = p.sum(axis=tuple(a for a, i in enumerate(keep) if my >> i & 1), keepdims=True)
    py = p.sum(axis=tuple(a for a, i in enumerate(keep) if mx >> i & 1), keepdims=True)
    mask = p > 0.0
    # Only the cells in ``mask`` are summed, so the others may keep px * py;
    # px and py go first, and a table without zero cells is summed in place,
    # so that the reference path holds two arrays of the marginal's size.
    terms = px * py
    logs = None
    if not terms.all():
        # Where p > 0 but px * py underflowed to 0, p / (px py) would be inf:
        # those cells take log p - (log px + log py), which commutes like the product.
        under = np.nonzero((terms == 0.0) & mask)
        logs = np.log(p[under]) - (np.log(np.broadcast_to(px, p.shape)[under])
                                   + np.log(np.broadcast_to(py, p.shape)[under]))
        terms[under] = 1.0
    del px, py
    np.divide(p, terms, out=terms, where=mask)
    np.log(terms, out=terms, where=mask)
    if logs is not None:
        terms[under] = logs
    terms *= p
    return _clamp(float((terms if mask.all() else terms[mask]).sum()))


def mutual_information(joint: JointTable, x: Vars, y: Vars) -> Nats:
    """Mutual information between disjoint variable sets, in nats:
    I(X; Y) = H(X) + H(Y) - H(XY)."""
    return mi_of(joint, *_masks(joint, x, y))


def conditional_mutual_information(joint: JointTable, x: Vars, y: Vars, z: Vars = ()) -> Nats:
    """I(X; Y | Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z), in nats.

    An empty ``Z`` reduces to plain mutual information.  Values of Z with
    probability zero contribute nothing to any of the four entropies, so
    structural zeros in the conditioning marginal need no special care.
    """
    z = variables_of(z)
    groups = (x, y, z) if z else (x, y)
    return mi_of(joint, *_masks(joint, *groups))


def mi_of(source: EntropySource, mx: int, my: int, mz: int = 0) -> Nats:
    """I(X; Y | Z) on axis bitmasks.  The empty mask has entropy 0.0, so
    ``mz = 0`` gives I(X; Y) bit for bit, which is exactly 0.0 when X or Y
    is empty."""
    h = source.entropy_of
    return _clamp(h(mx | mz) + h(my | mz) - h(mx | my | mz) - h(mz))


def chain_rule_residual(joint: JointTable, x1: Vars, x2: Vars, y: Vars) -> Nats:
    """|I(X1, X2; Y) - I(X1; Y) - I(X2; Y | X1)|, which is 0 in exact arithmetic.

    The left side is summed directly and the right side comes from the
    entropy table, so the residual measures how far the two paths disagree.
    """
    m1, m2, my = _masks(joint, x1, x2, y)
    return chain_rule_residual_of(direct_mi_of(joint, m1 | m2, my), joint, m1, m2, my)


def chain_rule_residual_of(
    direct: Nats, source: EntropySource, m1: int, m2: int, my: int
) -> Nats:
    """``chain_rule_residual`` on axis bitmasks, with ``direct`` the left side
    summed directly and the right side from ``source``'s entropies."""
    return abs(direct - (mi_of(source, m1, my) + mi_of(source, m2, my, m1)))


def check_tolerance(tol: float) -> None:
    """Refuse ``tol`` unless it is a finite number >= 0, the one rule for a
    check's tolerance; ``0.0`` makes a check exact."""
    if not 0.0 <= tol < math.inf:  # False for NaN
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tol}")


@dataclass(frozen=True)
class MarkovVerdict:
    """Outcome of testing X -> Y -> Z within a tolerance: the residual is I(X; Z | Y)."""

    is_chain: bool
    residual: Nats


def is_markov_chain(
    joint: JointTable, x: Vars, y: Vars, z: Vars, tol: float = DEFAULT_TOLERANCE
) -> MarkovVerdict:
    """Test whether X -> Y -> Z holds, i.e. whether I(X; Z | Y) <= tol.

    Markov chains are reversible, and the test is too: swapping X and Z gives
    a bit-identical residual, because it only swaps the two leading terms of
    the entropy sum.
    """
    check_tolerance(tol)
    residual = conditional_mutual_information(joint, x, z, y)
    return MarkovVerdict(is_chain=residual <= tol, residual=residual)


def markov_of(source: EntropySource, mx: int, my: int, mz: int, tol: float) -> MarkovVerdict:
    """``is_markov_chain`` on axis bitmasks, with a tolerance already checked."""
    residual = mi_of(source, mx, mz, my)
    return MarkovVerdict(is_chain=residual <= tol, residual=residual)


def data_processing_gap(
    joint: JointTable, x: Vars, y: Vars, z: Vars, tol: float = DEFAULT_TOLERANCE
) -> Nats:
    """I(X; Y) - I(X; Z) along a verified chain X -> Y -> Z (never below -tol).

    Raises if the chain does not hold: the data-processing inequality says
    nothing about arbitrary triples.
    """
    verdict = is_markov_chain(joint, x, y, z, tol=tol)
    if not verdict.is_chain:
        raise ValidationError(
            f"not a Markov chain: I(X; Z | Y) = {verdict.residual:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )
    return mutual_information(joint, x, y) - mutual_information(joint, x, z)
