"""Foreign-key random walks (Section V-A of the paper).

A *walk scheme* is a sequence of foreign-key steps, each traversed either
forward (from the referencing relation to the referenced one) or backward.
A *walk* instantiates a scheme with concrete facts.  This package enumerates
walk schemes, samples random walks, computes exact destination distributions
by breadth-first propagation, and evaluates the Expected Kernel Distance
(Equation (2)) between destination-attribute distributions.
"""

from repro.walks.schemes import (
    Direction,
    WalkScheme,
    WalkStep,
    enumerate_walk_schemes,
    walk_targets,
)
from repro.walks.random_walks import (
    AttributeDistribution,
    DestinationDistribution,
    attribute_distribution,
    destination_distribution,
    sample_walk,
)
from repro.walks.kd import expected_kernel_distance

__all__ = [
    "Direction",
    "WalkScheme",
    "WalkStep",
    "enumerate_walk_schemes",
    "walk_targets",
    "AttributeDistribution",
    "DestinationDistribution",
    "attribute_distribution",
    "destination_distribution",
    "sample_walk",
    "expected_kernel_distance",
]
