"""bumpsim: two unicycle robots, allowable elastic collisions, impulsive redesign.

The package root exports the library API; the modules hold the rest.
"""

from .hybrid import SimMode, metrics, simulate
from .scenario import Scenario, ScenarioError, load_scenario, validate_scenario

__version__ = "0.1.0"
