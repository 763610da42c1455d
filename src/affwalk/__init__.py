"""Random walks on the group of rational affine maps.

The library works with exact rational arithmetic throughout: step measures
carry Fraction weights, trajectories keep exact group elements, and p-adic
digit expansions are computed by modular inversion rather than floating
point.  On top of that sit Monte Carlo experiment suites for drift laws,
boundary contraction, height growth, and convolution entropy, plus a CLI.

Each core module's ``__all__`` lists what the package exports from it.
"""

from . import errors, exact, group, measure, padic, prng, walk
from .errors import *  # noqa: F403
from .exact import *  # noqa: F403
from .group import *  # noqa: F403
from .measure import *  # noqa: F403
from .padic import *  # noqa: F403
from .prng import *  # noqa: F403
from .walk import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *exact.__all__,
    *group.__all__,
    *measure.__all__,
    *padic.__all__,
    *prng.__all__,
    *walk.__all__,
    "__version__",
]
