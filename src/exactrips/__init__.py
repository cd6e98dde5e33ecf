"""Exact-arithmetic Vietoris-Rips homology over a 4-D sheet construction.

A point cloud samples a compact subset of R^4 built from digit-interleaved
Cantor-style sheets; across a whole interval of Rips scales its first F2
Betti number grows by one per sheet, driven by edges of length exactly the
scale that no triangle can contain.  Every comparison is exact rational
arithmetic; there is no floating point anywhere in the pipeline.

Import a module as exactrips.<module>: this namespace exports nothing.
"""
