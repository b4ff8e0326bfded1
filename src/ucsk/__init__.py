"""Blue-targeted underwater color-shift-keying design and evaluation toolkit.

Design 4-point UCSK constellations on the CIE 1931 chromaticity plane by
constrained maximin optimization, and evaluate them over a per-wavelength
Beer-Lambert seawater channel: Monte Carlo and union-bound symbol error
rates plus achievable rates against an OOK baseline.

The package root re-exports nothing, so importing it loads no submodule.
Import the submodules directly: ``ucsk.colorimetry``, ``ucsk.channel``,
``ucsk.constellation``, ``ucsk.presets``, ``ucsk.optimizer``,
``ucsk.linksim`` and ``ucsk.cli``.
"""

__version__ = "0.1.0"
