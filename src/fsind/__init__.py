"""Frobenius-Schur indicators of near-group and Haagerup-Izumi categories.

Computes the indicator vector nu_k(rho) of the distinguished non-invertible
simple object three independent ways (closed Gauss-sum formulas, summation
over Drinfel'd-center modular data, and classical character theory where a
finite-group model exists), reproduces the bundled reference tables, and
reports indicator-rigidity conclusions.
"""
