"""qx: exact construction-language compiler and certified number classifier.

Executes straightedge/compass/anglesector constructions as exact algebraic
expressions, classifies the resulting numbers (rational / algebraic /
transcendental-by-rule / unknown), and runs the ladder calculus (descent,
reduction, Schanuel-conditional ascent) over exponential-logarithmic
towers with an algebraic base.

Importing `qx` loads no submodule: import the one you use, as in
`from qx import expr, minpoly`.
"""

__version__ = "0.1.0"
