"""Block-model operator algebras: K-class valued spectral flow and indices.

Every public name of the submodules (their ``__all__``) is re-exported here.
"""

__version__ = "0.1.0"

from . import corner, errors, flow, generators, model, pairing, projections, triples
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .projections import *  # noqa: F401,F403
from .corner import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .triples import *  # noqa: F401,F403
from .pairing import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (errors, model, projections, corner, flow, triples, pairing, generators)
    for name in module.__all__
]
