"""Chow groups of degree-zero 0-cycles on Chatelet surfaces over Q and its completions.

The surface y^2 - d z^2 = (x - c1)(x - c2)(x - c3) has an elementary abelian
2-group of degree-zero 0-cycle classes at every place of Q; `local_chow`
computes it at one place (with generators inside (Z/2)^3) and `global_chow`
assembles the group over Q from the finitely many places that matter.

Each module's `__all__` is its list of public names; the root re-exports
exactly those lists.
"""

from . import checks, factorint, globalchow, local, norms, padic
from .checks import *
from .factorint import *
from .globalchow import *
from .local import *
from .norms import *
from .padic import *

__version__ = "0.1.0"

__all__ = [
    *checks.__all__,
    *factorint.__all__,
    *globalchow.__all__,
    *local.__all__,
    *norms.__all__,
    *padic.__all__,
]
