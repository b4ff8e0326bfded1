"""Blue-targeted underwater color-shift-keying design and evaluation toolkit.

Design 4-point UCSK constellations on the CIE 1931 chromaticity plane by
constrained maximin optimization, and evaluate them over a per-wavelength
Beer-Lambert seawater channel: Monte Carlo and union-bound symbol error
rates plus achievable rates against an OOK baseline.
"""

from .channel import (
    WaterProperties,
    WaterTableError,
    WavelengthRangeError,
    attenuation_coefficient,
    effective_range,
    load_water_csv,
    path_loss,
    seawater,
)
from .colorimetry import (
    ChromaticityPoint,
    CollinearPrimariesError,
    DegenerateChromaticityError,
    GamutPolygon,
    OutOfGamutError,
    Tristimulus,
    centroid,
    load_locus_csv,
    photopic_efficacy,
    solve_fluxes,
    spectral_locus,
    xy_distance,
    xy_to_tristimulus,
)
from .constellation import (
    FIXED_BLUE,
    BlueTarget,
    Constellation4,
    build_constellation,
    constellation_document,
    document_to_constellation,
    min_distance,
    read_constellation_json,
    write_constellation_json,
)
from .linksim import (
    Curve,
    HypothesisSet,
    InfeasibleConstellationError,
    LinkConfig,
    build_hypotheses,
    detect_ml,
    mutual_information,
    noise_sigma,
    ook_hypotheses,
    qfunc,
    rate_curve,
    read_curve_csv,
    ser_curves,
    simulate_ser,
    union_bound_from_hypotheses,
    union_bound_ser,
    write_curve_csv,
)
from .optimizer import (
    ConvergenceError,
    DesignResult,
    InfeasibleTargetError,
    OptimizerConfig,
    design_constellation,
    dmin_upper_bound,
)
from .presets import (
    BLUE_TARGETS,
    TABLE1_FIXTURES,
    blue_target_preset,
    led_triangle_gamut,
)

__version__ = "0.1.0"
