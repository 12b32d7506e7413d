"""scval: self-consistency validation for surrogate electronic structure.

Predicted (Hamiltonian, density) pairs can be screened without labels by
measuring how far they sit from mutual self-consistency; this package
provides the model system, SCF reference solver, surrogate predictors,
validation reports, statistics, and gated molecular dynamics built on
that idea.  Its API is its modules: ``from scval import model, scf``.
"""

__version__ = "0.1.0"
