"""Spectral collocation solver for periodic steady states of forced systems.

Each public name is declared once, in its module's ``__all__``, and is
imported from that module, e.g. ``from limitcycle.solver import
newton_solve``.
"""

__version__ = "0.1.0"
