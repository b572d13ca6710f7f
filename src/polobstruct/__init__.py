"""Exact-arithmetic toolkit for polarization obstructions on twisted powers
of elliptic curves.

The package constructs, for an odd prime p, the order-p integer cocycle
matrix and the degree-p^2 polarization form attached to the twist of a
(p-1)-st power of an elliptic curve, verifies the descent identities behind
the construction, and carries out the kernel-class calculus that shows the
resulting isogeny class admits no principal polarization.

Import each name from the module that defines it. The command line lives
in polobstruct.cli and is not imported here, so ``python -m
polobstruct.cli`` runs without runpy's already-imported warning.
"""

# perfbench/workloads.py imports these four names from the package root
from .cyclotomic import CycElem, complex_conj, format_element
from .kergroup import twist_model

__version__ = "0.1.0"
