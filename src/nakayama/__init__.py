"""Exact homological algebra for connected Nakayama algebras.

An algebra is specified by its Kupisch series (the list of projective
Loewy lengths) over a linear or cyclic quiver.  Every indecomposable
module is an interval, so dimensions, Ext spaces, Gorenstein invariants
and AR translates are computed exactly by combinatorics, with an
independent matrix oracle over small prime fields for cross-checking.
The package's public names are its modules' `__all__` lists.
"""

from .classify import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .homology import *  # noqa: F403
from .modules import *  # noqa: F403
from .notation import *  # noqa: F403
from .oracle import *  # noqa: F403
from .precluster import *  # noqa: F403

__version__ = "0.1.0"
