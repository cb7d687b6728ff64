"""Simulation lab comparing orthogonal-array (Taguchi) analysis with an
elitist evolutionary optimizer on synthetic conversion-rate landscapes."""

# Defined before the submodule imports: harness records it in every manifest.
__version__ = "0.1.0"

from .evaluator import Evaluator, WeightConfig, brute_force_best, sample_evaluator
from .evolution import EvolutionConfig, run_evolution
from .genome import Candidate, SearchSpace, control, one_gene_variants
from .harness import ExperimentConfig, PRESETS, result_series, sweep
from .simstats import BetaPosterior, prob_beats_control
from .taguchi import OrthogonalArray, load_array, main_effect, predict_best, validate
