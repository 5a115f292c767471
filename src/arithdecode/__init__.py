"""Arithmetic sampling: diverse, unbiased sample sets from autoregressive
sequence models via shifted-lattice code points on an implicit arithmetic
codebook, with an exact rational oracle and a statistics harness, which load
on first use (PEP 562), so that a process that only decodes never imports them."""

import importlib
import types

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
from .sampler import (
    SampleEntry,
    SampleSet,
    ancestral_sample,
    arithmetic_sample,
    code_interval_of_sequence,
    decode_code,
    parallel_decode,
)

# Each name served on first use, with the module that defines it.
_HOME = {
    **dict.fromkeys(("ExactCodebook", "ExactJoint", "brute_force_decode", "enumerate_joint", "exact_codebook",
                     "exact_expectation", "full_period_average"), "oracle"),
    **dict.fromkeys(("EstimatorReport", "StepFunction", "covariance_constants", "estimator_sd",
                     "eval_step_function", "ngram_diversity", "sample_mean", "sentence_bleu",
                     "step_variance_experiment"), "evaluation"),
}

# Every name imported above, then every lazily served one.
__all__ = [name for name, value in vars().items() if name[0] != "_" and not isinstance(value, types.ModuleType)]
__all__ += _HOME

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
