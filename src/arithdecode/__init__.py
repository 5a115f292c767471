"""Arithmetic sampling: diverse, unbiased sample sets from autoregressive
sequence models via shifted-lattice code points on an implicit arithmetic
codebook, with an exact rational oracle and a statistics harness."""

from .codebook import (
    CategoricalDistribution,
    LatticeSpec,
    UnitInterval,
    cdf_intervals,
    lattice_codes,
    locate,
    renormalize,
    shift_mod1,
)
from .models import (
    MarkovModel,
    ModifierChain,
    Nucleus,
    SequenceModel,
    SyntheticLM,
    TabularModel,
    Temperature,
    TopK,
    Vocabulary,
    conditional_modified,
    load_model,
    save_model,
    sequence_logprob,
)
from .oracle import (
    ExactCodebook,
    ExactJoint,
    brute_force_decode,
    enumerate_joint,
    exact_codebook,
    exact_expectation,
    full_period_average,
)
from .sampler import (
    SampleEntry,
    SampleSet,
    ancestral_sample,
    arithmetic_sample,
    code_interval_of_sequence,
    decode_code,
    parallel_decode,
)
from .evaluation import (
    EstimatorReport,
    StepFunction,
    covariance_constants,
    estimator_sd,
    eval_step_function,
    ngram_diversity,
    sample_mean,
    sentence_bleu,
    step_variance_experiment,
)

__version__ = "0.1.0"
