"""rpv — exact verification engine for Ramanujan-type 1/pi series.

Layers, bottom up:

* numerics  — exact rationals, quadratic radical constants, error-tracked
              big floats, and the Machin pi oracle;
* fps       — truncated formal power series over exact rationals;
* hyper     — hypergeometric coefficient families and certified summation;
* transforms— the transformation-rule catalog with formal and numeric checks;
* translate — the theta-operator translation method with exact certificates;
* catalog   — the machine-readable series catalog and verification driver;
* binsplit  — binary-splitting digit computation for hypergeometric entries;
* special   — starting formula, limit formulas, and the Sun-type checks;
* cli       — the `rpv` command-line entry point.
"""

# the one arithmetic: stdlib int, fractions.Fraction and math.isqrt
BACKEND = "fraction"

__all__ = ["BACKEND", "__version__"]
__version__ = "0.1.0"
