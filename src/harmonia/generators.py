"""Seeded generators for factored models and one deliberately broken joint.

Randomness comes from numpy's PCG64 via ``default_rng``; the same spec always
produces bit-identical tables.  Rows are Dirichlet draws realised as
normalised gamma variates (plain normalised exponentials at concentration 1),
so low concentrations give spiky rows and high concentrations give nearly
uniform ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    HEAD,
    Alphabet,
    FactoredModel,
    JointTable,
    ValidationError,
    dep,
)

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Child seed for model ``index`` of a sweep: splitmix64 of ``seed XOR index``.

    Keeps per-model streams independent of sweep order and of each other, so
    parallel and serial sweeps draw identical models.
    """
    if seed < 0 or index < 0:
        raise ValidationError("seed and index must be non-negative")
    x = ((seed ^ index) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to regenerate one random model.

    ``dep_sizes`` may be a single int (all dependents alike) or one size per
    dependent.  ``identical_channels=True`` draws a single conditional table
    and shares it across all dependents, which is the regime where the
    cross-slot placement relations are guaranteed; it requires equal
    dependent sizes.
    """

    n: int
    head_size: int = 2
    dep_sizes: tuple[int, ...] | int = 2
    concentration: float = 1.0
    seed: int = 0
    identical_channels: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need n >= 1 dependents, got {self.n}")
        sizes = self.dep_sizes
        if isinstance(sizes, int):
            sizes = (sizes,) * self.n
        else:
            sizes = tuple(int(s) for s in sizes)
        object.__setattr__(self, "dep_sizes", sizes)
        if len(sizes) != self.n:
            raise ValidationError(
                f"{self.n} dependents but {len(sizes)} dependent sizes"
            )
        if self.head_size < 1 or any(s < 1 for s in sizes):
            raise ValidationError("alphabet sizes must be >= 1")
        if self.concentration <= 0:
            raise ValidationError(
                f"concentration must be positive, got {self.concentration}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.identical_channels and len(set(sizes)) > 1:
            raise ValidationError(
                "identical channels need equal dependent sizes, got "
                f"{sizes}"
            )


def _dirichlet_rows(rng: np.random.Generator, rows: int, size: int, conc: float) -> np.ndarray:
    """Stack of ``rows`` Dirichlet(conc, ..., conc) draws of length ``size``."""
    out = np.empty((rows, size))
    for r in range(rows):
        draw = rng.gamma(shape=conc, scale=1.0, size=size)
        total = draw.sum()
        while total <= 0.0 or not np.isfinite(total):
            # At very small concentrations every gamma variate can underflow
            # to zero; redrawing keeps the row a genuine distribution.
            draw = rng.gamma(shape=conc, scale=1.0, size=size)
            total = draw.sum()
        out[r] = draw / total
    return out


def random_model(spec: ModelSpec) -> FactoredModel:
    """A seeded random factored model; identical specs give identical tables."""
    rng = np.random.default_rng(spec.seed)
    prior = _dirichlet_rows(rng, 1, spec.head_size, spec.concentration)[0]
    if spec.identical_channels:
        shared = _dirichlet_rows(rng, spec.head_size, spec.dep_sizes[0], spec.concentration)
        tables = tuple(shared.copy() for _ in range(spec.n))
    else:
        tables = tuple(
            _dirichlet_rows(rng, spec.head_size, size, spec.concentration)
            for size in spec.dep_sizes
        )
    return FactoredModel(
        head_alphabet=Alphabet(spec.head_size),
        dep_alphabets=tuple(Alphabet(s) for s in spec.dep_sizes),
        head_prior=prior,
        cond_tables=tables,
    )


def copy_model(n: int, size: int = 2, noise: float = 0.0) -> FactoredModel:
    """Uniform head, each dependent a noisy copy of it through one shared channel.

    Each row keeps mass ``1 - noise`` on the head's own value and spreads
    ``noise`` evenly over the others.  At ``noise = 0`` every dependent is an
    exact copy and therefore a sufficient statistic for the head.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 dependents, got {n}")
    if size < 2:
        raise ValidationError(f"copy model needs alphabet size >= 2, got {size}")
    if not 0.0 <= noise <= 0.5:
        raise ValidationError(f"noise must lie in [0, 0.5], got {noise}")
    table = np.full((size, size), noise / (size - 1))
    np.fill_diagonal(table, 1.0 - noise)
    alpha = Alphabet(size)
    return FactoredModel(
        head_alphabet=alpha,
        dep_alphabets=(alpha,) * n,
        head_prior=np.full(size, 1.0 / size),
        cond_tables=tuple(table.copy() for _ in range(n)),
    )


def independent_model(n: int, sizes: int | tuple[int, ...] = 2) -> FactoredModel:
    """Uniform head and dependents with no dependence anywhere.

    ``sizes`` is either one size for every variable or a sequence of
    ``n + 1`` sizes, head first.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 dependents, got {n}")
    if isinstance(sizes, int):
        all_sizes = (sizes,) * (n + 1)
    else:
        all_sizes = tuple(int(s) for s in sizes)
        if len(all_sizes) != n + 1:
            raise ValidationError(
                f"need {n + 1} sizes (head first), got {len(all_sizes)}"
            )
    if any(s < 1 for s in all_sizes):
        raise ValidationError("alphabet sizes must be >= 1")
    head_size, dep_sizes = all_sizes[0], all_sizes[1:]
    return FactoredModel(
        head_alphabet=Alphabet(head_size),
        dep_alphabets=tuple(Alphabet(s) for s in dep_sizes),
        head_prior=np.full(head_size, 1.0 / head_size),
        cond_tables=tuple(
            np.full((head_size, s), 1.0 / s) for s in dep_sizes
        ),
    )


def correlated_pair_counterexample() -> JointTable:
    """A joint that is *not* factored: two perfectly correlated dependents.

    The head is uniform binary and independent of everything; dep1 is uniform
    binary and dep2 copies it exactly.  The head-first remainder relation
    reverses on this table: the head says nothing about the dependents
    (0 nats) while dep1 pins down dep2 completely (ln 2 nats).  Useful for
    showing that the placement relations genuinely need the factorisation.
    """
    probs = np.zeros((2, 2, 2))
    for l in (0, 1):
        for m in (0, 1):
            probs[l, m, m] = 0.25
    binary = Alphabet(2)
    return JointTable(
        variables=(HEAD, dep(1), dep(2)),
        alphabets=(binary, binary, binary),
        probs=probs,
    )
