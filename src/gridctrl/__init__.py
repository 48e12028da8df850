"""Controllability analysis for power grids under the DC approximation.

The pipeline: load a case (netmodel), build sensitivities (dcsens), count
how many controllers a topology admits (bounds), place HVDC node pairs by
conical-hull volume (place_cv) or by LP control effort (place_lp), and price
the placements through DC-OPF / security-constrained OPF (opf).  The cli
module fronts all of it.
"""

__version__ = "0.1.0"
