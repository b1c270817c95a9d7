"""Steady-state photovoltaics of a tunnel-coupled quantum-dot molecule."""

from .analytics import (LinearityResult, TlsParams, TlsSteadyState,
                        asymptotic_current_qdm, asymptotic_current_sqd,
                        coherence_linearity_check, current_ratio_bound,
                        tls_saturation_threshold, tls_steady)
from .errors import (BoundaryMaximumError, ConfigError,
                     DegenerateSteadyStateError, DomainError,
                     InvalidGeometryError, NumericalSolveError, StepSizeError,
                     UndefinedEfficiencyError, VoltageUndefinedError)
from .model import (BAND_ALIGNMENTS, GeneratorMatrix, GeneratorStack,
                    LevelEnergies, ModelParams, ThermalOccupations,
                    apply_band_alignment, bose_occupation, build_generator,
                    build_generator_stack, thermal_occupations,
                    tunneling_from_distance)
from .observables import (PhotovoltaicPoint, absorption_fluxes,
                          photovoltaic_point)
from .steady import SteadyState, evolve, residual, solve_steady
from .sweeps import (CurrentGain, EfficiencyRow, GammaGridScan, GridSpec,
                     IVCurve, MaxPowerBatch, MaxPowerPoint,
                     OpenCircuitVoltage, PhononAssistedRow,
                     ShortCircuitCurrent,
                     efficiency_vs_distance, gamma_grid_scan, iv_curve,
                     max_power_batch, max_power_point, open_circuit_voltage,
                     phonon_assisted_comparison, relative_current_gain,
                     short_circuit_current)

__version__ = "0.1.0"
