"""Exact information-theoretic analysis of head placement in head/dependent sequences.

The package root exports the names below; everything else is imported from
its module, for example ``from harmonia.information import entropy``.
"""

from .distributions import (
    HEAD,
    HarmoniaError,
    JointSizeError,
    ValidationError,
    ZeroProbabilityError,
    build_joint,
    dep,
    dep_range,
)
from .estimation import sample
from .generators import ModelSpec, copy_model, independent_model, random_model
from .information import mutual_information
from .placement import Placement, optimal_head_position, placement_profile
from .sweep import theorem_battery

__version__ = "0.1.0"

__all__ = [
    "HEAD",
    "HarmoniaError",
    "JointSizeError",
    "ModelSpec",
    "Placement",
    "ValidationError",
    "ZeroProbabilityError",
    "build_joint",
    "copy_model",
    "dep",
    "dep_range",
    "independent_model",
    "mutual_information",
    "optimal_head_position",
    "placement_profile",
    "random_model",
    "sample",
    "theorem_battery",
]
