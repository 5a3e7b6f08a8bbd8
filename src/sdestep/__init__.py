"""Implicit multistep integrators for stiff SDEs with monotone coefficients.

The package bundles the drift-implicit Euler-Maruyama scheme, the
two-step BDF-Maruyama scheme and the general implicit stochastic linear
multistep family, together with a fully seeded Monte Carlo harness for
strong-error convergence studies against coupled reference solutions.
"""

from . import brownian, core, harness, models, schemes
from .core import *  # noqa: F401,F403
from .brownian import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += brownian.__all__
__all__ += schemes.__all__
__all__ += models.__all__
__all__ += harness.__all__
