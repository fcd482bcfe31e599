"""ellverify: certified numerical and exact-series verification of elliptic
hypergeometric integral identities.

Layers
------
``numerics``     pluggable complex backends (double precision / mpmath)
``kernel``       q-Pochhammer products, theta functions, elliptic gamma
``contour``      periodic trapezoid quadrature on one smooth path, pole audit
``special``      the integrands and closed forms under verification
``catalog``      registry of named identity checks with samplers
``series``       exact truncated Laurent arithmetic over the rationals
``conjectures``  order-by-order series verification of product conjectures
``bridge``       trigonometric degeneration checks tying both worlds together
``report``       batch runner producing JSON verdicts
"""

__version__ = "0.1.0"
