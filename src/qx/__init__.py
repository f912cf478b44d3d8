"""qx: exact construction-language compiler and certified number classifier.

Executes straightedge/compass/anglesector constructions as exact algebraic
expressions, classifies the resulting numbers (rational / algebraic /
transcendental-by-rule / unknown), and runs the ladder calculus (descent,
reduction, Schanuel-conditional ascent) over exponential-logarithmic
towers with an algebraic base.
"""

from .dyadic import Dyadic
from .expr import Context, Expr, EulerForm, TowerTag, quad_flatten, to_text
from .interval import CInterval, RInterval, refine
from .ladders import (AscentReport, Ladder, Relation, Rung, ascend, descend,
                      detect_relation, reduce_ladder)
from .minpoly import (IntPoly, Verdict, annihilator_sin_pi, olmsted_classify,
                      rational_root_scan, transcendence_rules)

__version__ = "0.1.0"

__all__ = [
    "AscentReport", "CInterval", "Context", "Dyadic", "Expr", "EulerForm",
    "IntPoly", "Ladder", "RInterval", "Relation", "Rung", "TowerTag",
    "Verdict", "annihilator_sin_pi", "ascend", "descend", "detect_relation",
    "olmsted_classify", "quad_flatten", "rational_root_scan", "reduce_ladder",
    "refine", "to_text", "transcendence_rules",
]
