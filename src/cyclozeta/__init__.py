"""Exact symbolic machinery and numeric checks for the double shuffle and
distribution relations of cyclotomic multiple zeta values.

The package file imports nothing: each name lives in its home module
(``cyclozeta.algebra``, ``cyclozeta.checks``, ...), and importing one module
loads only the modules it depends on."""

__version__ = "0.1.0"
