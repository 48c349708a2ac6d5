"""Calculus at a scale on finite metric measure spaces.

The package works with a finite point set carrying a metric and a positive
measure. Everything else is built on four ideas:

* closed balls ``B(x, h)`` at a working scale ``h`` and the set calculus they
  induce (thickenings ``[A]_h``, boundaries ``bd_h A = [A]_h & [A^c]_h``);
* coarse gradients: the sup gradient over ``B(x, h)``, ball-averaged
  ``L^p`` gradients, and gradients against a kernel of probability measures
  (a "viewpoint");
* isoperimetric profiles ``j_{X,p}`` and their functional counterparts
  (Sobolev and Nash inequalities at scale ``h``);
* the correspondence between profiles and on-diagonal random-walk decay,
  and the invariance of all of it under large-scale equivalence.

Modules
-------
space       finite metric measure spaces and set calculus at a scale
zoo         deterministic benchmark space generators
viewpoint   kernels at a scale: validation, symmetry, persistence
calculus    gradients, Laplacians, eigensolves, co-area
profiles    isoperimetric profiles, Sobolev/Nash verification, Cheeger
randomwalk  kernel iteration, return-probability decay, gamma transform
coarse      large-scale equivalence, discretization, pullback transfer
cli         command-line driver and machine-readable reports
"""

from coarsecalc.space import (MetricMeasureSpace, Subset, boundary,
                              doubling_profile, load_space, save_space,
                              thicken)

__all__ = [
    "MetricMeasureSpace", "Subset", "boundary", "thicken",
    "doubling_profile", "load_space", "save_space",
]

__version__ = "0.1.0"
