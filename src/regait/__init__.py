"""regait: behavior specifications as ranked differential constraint stacks,
encoding/learning of constraints from example trajectories, and gait recovery
after constraint-level damage.

Subsystems
----------
constraints   priority-ranked constraint stacks, rank analysis, velocity solves
encoding      encoding-map Jacobians, pullbacks, Fourier-in-phase learning
signals       Fourier series, PCA, phase estimation
trajectory    uniformly sampled state series with CSV round-trip
integrate     fixed-step integration with Newton projection onto manifolds
crawler       planar two-arm crawler: gait synthesis, jam damage, recovery
manipulator   force-signal matching on a constrained point-mass toy
ctslip        clock-torqued SLIP hopper with ensemble parameter recovery
optimize      Nelder-Mead and the constraint-violation cost builder
cli           reproducible command-line runs (CSV/JSON/SVG outputs)
"""

__version__ = "0.1.0"
