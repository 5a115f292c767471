"""One table of the checks that reject bad input: each case is a call, the
exception it raises and a fragment of its message.

A CLI case runs `cli.main` in process; its call raises `ExitOne` with the
single `error:` line when the command exits 1 with that line alone on stderr.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from arithdecode import (
    CategoricalDistribution,
    ExactCodebook,
    ExactJoint,
    MarkovModel,
    Nucleus,
    StepFunction,
    SyntheticLM,
    TabularModel,
    TopK,
    UnitInterval,
    Vocabulary,
    ancestral_sample,
    enumerate_joint,
    estimator_sd,
    full_period_average,
    ngram_diversity,
    parallel_decode,
    shift_mod1,
    step_variance_experiment,
)
from arithdecode.cli import main
from arithdecode.errors import (
    EmptyIntervalError,
    InvalidDistributionError,
    InvalidModelError,
    InvalidPrefixError,
    InvalidSequenceError,
    ParameterError,
)
from arithdecode.models import SequenceModel, model_from_dict, model_to_dict
from util import AB, bernoulli_model, deterministic_model

BERNOULLI = {"type": "markov", "vocabulary": ["A", "B"], "max_length": 2, "order": 0, "rows": {"": ["0.6", "0.4"]}}
HALF = UnitInterval(F(0), F(1, 2))
WHOLE = StepFunction(((UnitInterval(F(0), F(1)), 1),))


class ExitOne(Exception):
    """A CLI command exited 1 with one `error:` line and nothing on stdout."""


def cli(tmp, *argv, files=None):
    """Run the CLI in `tmp`, where model.json holds the Bernoulli model and
    `files` maps more file names to their bytes."""
    (tmp / "model.json").write_text(json.dumps(BERNOULLI))
    for name, content in (files or {}).items():
        (tmp / name).write_bytes(content)
    argv = [str(tmp / a) if a.endswith((".json", ".txt")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 1 and out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "):
        raise ExitOne(lines[0])
    return code


class Foreign(SequenceModel):
    vocabulary, max_length = AB, 1

    def conditional(self, prefix):
        return CategoricalDistribution((F(1, 2), F(1, 2)))


EOS_MODEL = MarkovModel(0, {(): (F(1, 2), F(1, 2))}, Vocabulary(("a", "b"), eos=1), 3)
DIVERSITY = ("diversity", "--model", "model.json", "--reference", "refs.txt")

CASES = {
    "unit-interval-empty": (lambda t: UnitInterval(F(1, 2), F(1, 2)), ParameterError, "not a valid unit subinterval"),
    "distribution-empty": (lambda t: CategoricalDistribution(()), InvalidDistributionError, "empty distribution"),
    "shift-code-one": (lambda t: shift_mod1(1.0, 0), ParameterError, "both operands must lie in [0, 1)"),
    "vocabulary-empty": (lambda t: Vocabulary(()), InvalidModelError, "empty vocabulary"),
    "vocabulary-duplicate": (lambda t: Vocabulary(("a", "a")), InvalidModelError, "duplicate vocabulary symbols"),
    "vocabulary-eos-range": (lambda t: Vocabulary(("a", "b"), eos=2), InvalidModelError, "eos index 2 out of range"),
    "tokens-too-long": (lambda t: bernoulli_model().validate_tokens((0, 0, 0)), InvalidSequenceError,
                        "sequence longer than max_length"),
    "token-after-eos": (lambda t: EOS_MODEL.validate_tokens((1, 0)), InvalidSequenceError, "token follows EOS"),
    "top-k-zero": (lambda t: TopK(0), ParameterError, "top-k needs k >= 1"),
    "nucleus-zero": (lambda t: Nucleus(0), ParameterError, "nucleus p must lie in (0, 1]"),
    "table-negative": (lambda t: TabularModel({(0,): F(3, 2), (1,): F(-1, 2)}, AB, 1), InvalidModelError,
                       "negative table probability"),
    "table-incomplete-key": (lambda t: TabularModel({(0,): F(1)}, AB, 2), InvalidModelError,
                             "table key (0,) is not a complete sequence"),
    "markov-order-negative": (lambda t: MarkovModel(-1, {}, AB, 2), ParameterError, "order must be >= 0"),
    "markov-row-arity": (lambda t: MarkovModel(0, {(): (F(1),)}, AB, 2), InvalidModelError,
                         "row for context () has wrong arity"),
    "tabular-complete-prefix": (lambda t: deterministic_model().conditional((0, 1, 0)), InvalidPrefixError,
                                "prefix (0, 1, 0) is complete"),
    "markov-complete-prefix": (lambda t: bernoulli_model().conditional((0, 0)), InvalidPrefixError,
                               "prefix (0, 0) is complete"),
    "synthetic-complete-prefix": (lambda t: SyntheticLM(0, 2, 1).conditional((1,)), InvalidPrefixError,
                                  "prefix (1,) is complete"),
    "synthetic-one-symbol": (lambda t: SyntheticLM(0, 1, 3), ParameterError, "vocab_size >= 2"),
    "file-bad-probability": (lambda t: model_from_dict(dict(BERNOULLI, rows={"": ["x", "1"]})), InvalidModelError,
                             "unparseable probability 'x'"),
    "file-unknown-type": (lambda t: model_from_dict(dict(BERNOULLI, type="beam")), InvalidModelError,
                          "unknown model type 'beam'"),
    "serialize-foreign": (lambda t: model_to_dict(Foreign()), InvalidModelError, "cannot serialize Foreign"),
    "joint-not-one": (lambda t: ExactJoint((((0,), F(1, 2)),)), InvalidModelError,
                      "joint probabilities do not sum to 1"),
    "joint-negative": (lambda t: ExactJoint((((0,), F(3, 2)), ((1,), F(-1, 2)))), InvalidModelError,
                       "negative joint probability"),
    "enumerate-float-model": (lambda t: enumerate_joint(SyntheticLM(0, 2, 1)), ParameterError,
                              "enumerate_joint needs exact (rational) conditionals"),
    "codebook-decode-one": (lambda t: ExactCodebook(enumerate_joint(bernoulli_model())).decode(1), ParameterError,
                            "code 1 outside [0, 1)"),
    "codebook-interval-empty": (lambda t: ExactCodebook(enumerate_joint(
                                    MarkovModel(0, {(): (F(1), F(0))}, AB, 2))).interval_of((1, 1)),
                                EmptyIntervalError, "sequence (1, 1) owns no codebook interval"),
    "full-period-mode": (lambda t: full_period_average(ExactCodebook(enumerate_joint(bernoulli_model())), 2,
                                                       lambda s: 1, mode="bogus"),
                         ParameterError, "unknown lattice mode 'bogus'"),
    "decode-no-workers": (lambda t: parallel_decode(bernoulli_model(), [0.5], worker_count=0), ParameterError,
                          "worker_count must be >= 1"),
    "ancestral-no-samples": (lambda t: ancestral_sample(bernoulli_model(), 0, 1), ParameterError, "n must be >= 1"),
    "step-empty": (lambda t: StepFunction(()), ParameterError, "needs at least one piece"),
    "step-not-at-zero": (lambda t: StepFunction(((UnitInterval(F(1, 2), F(1)), 1),)), ParameterError,
                         "pieces must start at 0"),
    "step-gap": (lambda t: StepFunction(((HALF, 1), (UnitInterval(F(3, 4), F(1)), 0))), ParameterError,
                 "pieces must be contiguous and ordered"),
    "step-variance-one-rep": (lambda t: step_variance_experiment(WHOLE, 4, reps=1), ParameterError,
                              "reps must be >= 2"),
    "estimator-one-rep": (lambda t: estimator_sd(bernoulli_model(), "arithmetic", 4, None, len, 1), ParameterError,
                          "reps must be >= 2"),
    "diversity-no-sequences": (lambda t: ngram_diversity([]), ParameterError, "empty sequence list"),
    "cli-missing-references": (lambda t: cli(t, *DIVERSITY), ExitOne, "No such file or directory"),
    "cli-empty-references": (lambda t: cli(t, *DIVERSITY, files={"refs.txt": b"\n  \n"}), ExitOne,
                             "refs.txt: no references"),
    "cli-binary-references": (lambda t: cli(t, *DIVERSITY, files={"refs.txt": b"\xff A B\n"}), ExitOne,
                              "can't decode byte 0xff"),
    "cli-binary-model": (lambda t: cli(t, "sample", "--model", "binary.json", files={"binary.json": b"\xff"}),
                         ExitOne, "can't decode byte 0xff"),
    "cli-missing-step-function": (lambda t: cli(t, "stepfn", "--stepfn", "stepfn.txt"), ExitOne,
                                  "No such file or directory"),
    "cli-step-function-short": (lambda t: cli(t, "stepfn", "--stepfn", "stepfn.txt",
                                              files={"stepfn.txt": b"0 1/2 1\n"}),
                                ExitOne, "stepfn.txt: pieces must cover [0, 1)"),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises(case, tmp_path):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert fragment in str(raised.value)
