"""NumPy optimization substrate (stands in for the paper's PyTorch usage).

The two training objectives of the paper — the FoRWaRD bilinear regression
loss (Equation (5)) and the skip-gram negative-sampling loss used by the
Node2Vec adaptation — are small closed-form expressions, so their gradients
are derived analytically and applied with the optimizers in this package.
"""

from repro.optim.optimizers import Adam, Optimizer
from repro.optim.schedules import ConstantSchedule, ExponentialDecay, LinearDecay, Schedule
from repro.optim.gradcheck import numerical_gradient

__all__ = [
    "Optimizer",
    "Adam",
    "Schedule",
    "ConstantSchedule",
    "LinearDecay",
    "ExponentialDecay",
    "numerical_gradient",
]
