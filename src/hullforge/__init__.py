"""hullforge: generate-and-filter ship hull design pipeline.

A parametric hull kernel with thin-ship physics feeds a dataset that
trains dense-network surrogates and a conditional tabular diffusion model;
guided sampling produces low-resistance hulls at requested principal
dimensions, benchmarked against an NSGA-II optimizer driving the same
surrogate.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, TestCase, WaterConstants, default_cases
from .geometry import (GeoCurves, HullParams, FeasibilityReport, half_breadth,
                       measure_at, measure_curves, validate)
from .hydro import (FlowCondition, friction_resistance, michell_wave_resistance,
                    predicted_total_resistance, resistance_grid)
from .dataset import (HullTable, Normalizer, build_dataset, fit_normalizer,
                      sample_random_hull)
from .neural import MlpModel, TrainConfig, train_classifier, train_regressor
from .diffusion import (ConditioningVector, DenoiserModel, GuidanceModels,
                        NoiseSchedule, forward_noise, linear_schedule,
                        sample_guided, train_diffusion)
from .optimize import Individual, Problem, evaluate_individual, nsga2
from .evaluate import (AuditTable, ComparisonReport, audit_samples, compare,
                       kde, volume_error_fraction)
