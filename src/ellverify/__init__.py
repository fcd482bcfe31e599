"""ellverify: audited numerical and exact-series verification of elliptic
hypergeometric integral identities.

Layers
------
``kernel``       q-Pochhammer products, theta functions, elliptic gamma
``contour``      periodic trapezoid quadrature on one smooth path, pole audit
``special``      the integrands and closed forms under verification
``lemmas``       pointwise auxiliary identities used by the larger evaluations
``catalog``      registry of every check and its kind: numeric checks with
                 samplers and tolerances, exact series checks with runners
``series``       exact truncated Laurent arithmetic over the integers
``conjectures``  order-by-order series verification of product conjectures
``bridge``       numeric evaluation of the series-side closed forms at complex
                 points, tying both routes together
``report``       batch runner producing JSON verdicts
``cli``          the ``ellverify`` entry point
"""

__version__ = "0.1.0"
