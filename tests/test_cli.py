"""CLI commands: CSV determinism, experiment protocols, exit codes."""

import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arithdecode
from arithdecode.cli import main
from util import all_complete_sequences

BERNOULLI = {
    "type": "markov",
    "vocabulary": ["A", "B"],
    "eos": None,
    "max_length": 2,
    "order": 0,
    "rows": {"": ["0.6", "0.4"]},
}

DETERMINISTIC = {
    "type": "tabular",
    "vocabulary": ["A", "B"],
    "eos": None,
    "max_length": 2,
    "table": {"A B": "1"},
}

SYNTH = {"type": "synthetic", "seed": 5, "vocab_size": 4, "max_length": 3, "eos": None}


@pytest.fixture
def model_file(tmp_path):
    def write(spec, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


def run(args):
    return main(args)


class TestSample:
    def test_deterministic_rows(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        assert run(["sample", "--model", model_file(DETERMINISTIC), "--n", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# shift_b=")
        assert lines[1] == "index,code,sequence,logprob"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 3
        assert all(r[2] == "A B" and r[3] == "0.0" for r in rows)

    def test_rows_sorted_by_code(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        run(["sample", "--model", model_file(BERNOULLI), "--n", "5", "--seed", "3", "--out", str(out)])
        codes = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[2:]]
        assert codes == sorted(codes)

    def test_byte_identical_reruns(self, model_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--model", model_file(SYNTH), "--n", "8", "--seed", "11"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_output(self, model_file, tmp_path):
        outs = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"w{w}.csv"
            run(
                ["sample", "--model", model_file(SYNTH), "--n", "32", "--seed", "7",
                 "--workers", w, "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_ancestral_has_empty_code_column(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        run(["sample", "--model", model_file(BERNOULLI), "--method", "ancestral", "--n", "4",
             "--seed", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "index,code,sequence,logprob"
        assert all(ln.split(",")[1] == "" for ln in lines[1:])

    def test_missing_model_file(self, tmp_path):
        assert run(["sample", "--model", str(tmp_path / "nope.json"), "--n", "2"]) == 1

    def test_large_vocabulary_synthetic_model(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        spec = dict(SYNTH, vocab_size=16, max_length=5)
        assert run(["sample", "--model", model_file(spec), "--n", "16", "--seed", "3", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 16
        assert all(len(r.split(",")[2].split()) == 5 for r in rows)

    def test_zero_width_float_intervals_decode(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        spec = {"type": "synthetic", "seed": 1, "vocab_size": 8, "max_length": 32, "peakedness": 4, "eos": 3}
        assert run(["sample", "--model", model_file(spec), "--n", "256", "--seed", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 256
        assert all(math.isfinite(float(r.split(",")[3])) for r in rows)

    def test_extreme_peakedness_decodes(self, model_file, tmp_path):
        # peakedness * log(u) overflows to -inf for every symbol of the root conditional
        spec = {"type": "synthetic", "seed": 10, "vocab_size": 2, "max_length": 2, "peakedness": 1e308}
        out = tmp_path / "out.csv"
        assert run(["sample", "--model", model_file(spec), "--n", "4", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 4
        assert all(math.isfinite(float(r.split(",")[3])) for r in rows)

    def test_small_temperature_decodes_the_mode(self, tmp_path):
        # every p ** (1 / 0.0009) of this file's rows underflows to 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "markov.json")
        out = tmp_path / "out.csv"
        assert run(["sample", "--model", golden, "--n", "8", "--seed", "3", "--temperature", "0.0009",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        assert len(rows) == 8
        assert all(r[2] == "a b e" and r[3] == "0.0" for r in rows)


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(arithdecode.__file__))
    probe = "import sys, arithdecode.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def _probe(code: str):
    """Run `code` in a fresh interpreter and return the JSON it prints.

    -S: without `site`, only the interpreter's own start-up and the program import
    anything. numpy's directory goes on the path so that a command that needs it
    loads it rather than failing.
    """
    src = os.path.dirname(os.path.dirname(arithdecode.__file__))
    site_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, site_dir]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_sample_imports_only_what_it_runs(tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "golden", "markov.json")
    out = tmp_path / "out.csv"
    unused = ["arithdecode.oracle", "arithdecode.evaluation", "dataclasses", "inspect", "hashlib", "numpy"]
    probe = (
        "import json, sys\n"
        "from arithdecode import cli\n"
        f"code = cli.main(['sample', '--model', {golden!r}, '--n', '64', '--out', {str(out)!r}])\n"
        f"print(json.dumps([code, [m for m in {unused!r} if m in sys.modules]]))\n"
    )
    assert _probe(probe) == [0, []]
    assert len(out.read_text().splitlines()) == 2 + 64


def test_commands_but_stepfn_leave_numpy_unloaded(tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "golden")
    model, refs = os.path.join(golden, "markov.json"), os.path.join(golden, "refs_markov.txt")
    commands = [
        ["variance", "--model", model, "--n", "4,16", "--reps", "20", "--reference", refs],
        ["diversity", "--model", model, "--n", "8", "--reference", refs],
        ["oracle-check", "--model", model],
    ]
    commands = [c + ["--out", str(tmp_path / c[0])] for c in commands]
    probe = (
        "import json, sys\n"
        "from arithdecode import cli\n"
        f"print(json.dumps([[c[0], cli.main(c), 'numpy' in sys.modules] for c in {commands!r}]))\n"
    )
    assert _probe(probe) == [["variance", 0, False], ["diversity", 0, False], ["oracle-check", 0, False]]


def test_package_serves_every_public_name():
    from arithdecode import errors, evaluation, oracle, sampler

    assert len(set(arithdecode.__all__)) == len(arithdecode.__all__)
    for name in arithdecode.__all__:
        assert getattr(arithdecode, name) is not None
    assert set(arithdecode.__all__) <= set(dir(arithdecode))
    assert arithdecode.ExactJoint is oracle.ExactJoint and arithdecode.sentence_bleu is evaluation.sentence_bleu
    assert arithdecode.oracle is oracle and arithdecode.evaluation is evaluation
    namespace = {}
    exec("from arithdecode import *", namespace)
    assert {name: namespace[name] for name in arithdecode.__all__} == {
        name: getattr(arithdecode, name) for name in arithdecode.__all__
    }
    assert evaluation.draw is sampler.draw
    assert oracle.DEFAULT_BOUND == errors.DEFAULT_BOUND == 10**6
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arithdecode.no_such_name


class TestDiversity:
    def test_deterministic_mean_equals_max(self, model_file, tmp_path):
        ref = tmp_path / "refs.txt"
        ref.write_text("A B\n")
        out = tmp_path / "out.csv"
        assert run(
            ["diversity", "--model", model_file(DETERMINISTIC), "--n", "4",
             "--reference", str(ref), "--out", str(out)]
        ) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == row[5]  # mean_reward == max_reward

    def test_duplicate_samples_diversity(self, model_file, tmp_path):
        ref = tmp_path / "refs.txt"
        ref.write_text("A B\n")
        out = tmp_path / "out.csv"
        run(["diversity", "--model", model_file(DETERMINISTIC), "--n", "5",
             "--reference", str(ref), "--out", str(out)])
        div = float(out.read_text().splitlines()[1].split(",")[6])
        # 5 copies of a 2-token sequence: d = 2/10 + 1/5 + 0 + 0
        assert div == pytest.approx(0.4)

    def test_sweep_max_ge_mean(self, model_file, tmp_path):
        ref = tmp_path / "refs.txt"
        ref.write_text("t0 t1 t2\nt1 t1 t0\n")
        out = tmp_path / "out.csv"
        run(["diversity", "--model", model_file(SYNTH), "--n", "6",
             "--temperature", "0.5,1.0,1.5", "--reference", str(ref), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for ln in lines[1:]:
            parts = ln.split(",")
            assert float(parts[5]) >= float(parts[3]) >= float(parts[4])

    def test_unknown_reference_token(self, model_file, tmp_path):
        ref = tmp_path / "refs.txt"
        ref.write_text("A Z\n")
        assert run(["diversity", "--model", model_file(BERNOULLI), "--reference", str(ref)]) == 1


class TestVariance:
    def test_deterministic_zero_sd(self, model_file, tmp_path):
        ref = tmp_path / "refs.txt"
        ref.write_text("A B\n")
        out = tmp_path / "out.csv"
        run(["variance", "--model", model_file(DETERMINISTIC), "--n", "2,4",
             "--reference", str(ref), "--reps", "5", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,mean,sd,p2_5,p97_5"
        for ln in lines[1:]:
            assert float(ln.split(",")[3]) == 0.0


class TestStepFn:
    def test_half_indicator(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("0 0.5 1\n0.5 1 0\n")
        out = tmp_path / "out.csv"
        assert run(["stepfn", "--stepfn", str(fpath), "--n", "2,4", "--reps", "2000",
                    "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_points,lattice_var,mc_var,exact_integral,c_on_hat,c_off_hat"
        n2 = lines[1].split(",")
        assert float(n2[1]) == 0.0  # width-1/2 pieces, 2 uniform points: zero variance
        assert float(n2[3]) == 0.5
        n4 = lines[2].split(",")
        assert abs(float(n4[4]) - (0.25 - 1)) < 0.1
        assert abs(float(n4[5]) - 0.25) < 0.1

    def test_bad_file(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("0 0.5\n")
        assert run(["stepfn", "--stepfn", str(fpath)]) == 1


class TestOracleCheck:
    def test_all_pass(self, model_file, tmp_path):
        out = tmp_path / "out.csv"
        assert run(["oracle-check", "--model", model_file(BERNOULLI), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "property,pass,worst_deviation"
        assert all(ln.split(",")[1] == "pass" for ln in lines[1:])

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "markov", "vocabulary": ["a", "b"], "max_length": 1500, "order": 0, "rows": {"": ["1", "0"]}},
            {"type": "markov", "vocabulary": ["a", "e"], "eos": 1, "max_length": 1500, "order": 1,
             "rows": {"": ["1/2", "1/2"], "a": ["1", "0"]}},
        ],
        ids=["no-eos", "eos"],
    )
    def test_sequences_deeper_than_the_recursion_limit(self, spec, model_file, tmp_path):
        out = tmp_path / "out.csv"
        assert run(["oracle-check", "--model", model_file(spec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert all(ln.split(",")[1] == "pass" for ln in lines[1:])

    def test_non_normalized_model(self, model_file):
        bad = dict(BERNOULLI, rows={"": ["0.5", "0.4"]})
        assert run(["oracle-check", "--model", model_file(bad)]) == 1

    def test_bound_exceeded(self, model_file):
        assert run(["oracle-check", "--model", model_file(BERNOULLI), "--bound", "2"]) == 1

    def test_bound_limits_shift_sweep(self, model_file, capsys):
        # 127 sequences, but a full-period sweep of 900,000 shifts at n=4
        spec = {
            "type": "markov", "vocabulary": ["a", "b", "e"], "eos": 2, "max_length": 6, "order": 1,
            "rows": {"": ["1/3", "1/3", "1/3"], "a": ["1/10", "3/10", "3/5"], "b": ["1/6", "1/2", "1/3"]},
        }
        start = time.perf_counter()
        assert run(["oracle-check", "--model", model_file(spec), "--bound", "1000"]) == 1
        assert time.perf_counter() - start < 1.0
        assert "shift grid" in one_error_line(capsys)

    def test_bound_checked_before_the_lattice_is_built(self, model_file, capsys):
        # 10^8 lattice codes would take minutes to build; the bound refuses them first
        start = time.perf_counter()
        assert run(["oracle-check", "--model", model_file(BERNOULLI), "--n", "100000000", "--bound", "1000"]) == 1
        assert time.perf_counter() - start < 1.0
        assert "shift grid" in one_error_line(capsys)

    def test_sweep_runs_at_the_given_n(self, model_file, capsys):
        # lcm(21, 25) = 525 shifts at n = 20; n = 16 would sweep 425
        assert run(["oracle-check", "--model", model_file(BERNOULLI), "--n", "20", "--bound", "500"]) == 1
        assert one_error_line(capsys) == "error: full-period shift grid has 525 shifts, more than 500"


def one_error_line(capsys) -> str:
    """The single stderr line of a failed command, checked to be an error line."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "command,text",
    [
        (["stepfn"], "0 1/2 abc\n"),
        (["stepfn"], "0 1/0 1\n"),
        (["stepfn", "--n", "0"], "0 1 1\n"),
        (["stepfn", "--n", "-2"], "0 1 1\n"),
        (["oracle-check", "--n", "-1"], None),
        (["oracle-check", "--n", "-3"], None),
        (["oracle-check", "--n", "0"], None),
        (["sample", "--workers", "0"], None),
        (["sample", "--method", "ancestral", "--workers", "0"], None),
        (["diversity", "--method", "ancestral", "--workers", "0"], None),
        (["variance", "--workers", "0"], None),
        (["variance", "--method", "ancestral", "--workers", "-1"], None),
        (["sample", "--temperature", "nan"], None),
        (["sample", "--temperature", "inf"], None),
        (["diversity", "--temperature", "nan"], None),
        (["diversity", "--temperature", "inf"], None),
        (["variance", "--temperature", "nan"], None),
        (["variance", "--temperature", "inf"], None),
        (["variance", "--n", "4,,16"], None),
        (["sample", "--n", "abc"], None),
        (["sample", "--bogus"], None),
        (["sample", "--method", "beam"], None),
    ],
    ids=[
        "stepfn-non-numeric", "stepfn-zero-denominator", "stepfn-n0", "stepfn-n-2",
        "oracle-n-1", "oracle-n-3", "oracle-n0", "sample-workers0", "sample-ancestral-workers0",
        "diversity-ancestral-workers0", "variance-workers0", "variance-ancestral-workers-1",
        "sample-temperature-nan", "sample-temperature-inf", "diversity-temperature-nan",
        "diversity-temperature-inf", "variance-temperature-nan", "variance-temperature-inf",
        "usage-variance-n-empty-item", "usage-sample-n-not-int", "usage-sample-unknown-option",
        "usage-sample-unknown-method",
    ],
)
def test_bad_input_is_one_error_line(command, text, model_file, tmp_path, capsys):
    if text is None:
        command = command + ["--model", model_file(BERNOULLI)]
    else:
        (tmp_path / "f.txt").write_text(text)
        command = command + ["--stepfn", str(tmp_path / "f.txt")]
    if command[0] in ("diversity", "variance"):
        (tmp_path / "refs.txt").write_text("A B\n")
        command = command + ["--reference", str(tmp_path / "refs.txt")]
    assert run(command) == 1
    line = one_error_line(capsys)
    if "--workers" in command:
        assert line == "error: worker_count must be >= 1"
    if "--temperature" in command:
        assert line == f"error: temperature must be positive and finite, not {command[2]}"


@pytest.mark.parametrize(
    "command, line",
    [
        (["variance", "--n", "4,,16"], "error: argument --n: expected comma-separated integers, not '4,,16'"),
        (["diversity", "--temperature", "0.5,,1"],
         "error: argument --temperature: expected comma-separated numbers, not '0.5,,1'"),
    ],
)
def test_bad_comma_list_message(command, line, model_file, tmp_path, capsys):
    (tmp_path / "refs.txt").write_text("A B\n")
    assert run(command + ["--model", model_file(BERNOULLI), "--reference", str(tmp_path / "refs.txt")]) == 1
    assert one_error_line(capsys) == line


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sample", "--help"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: arithdecode sample")


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(BERNOULLI, rows=[["0.6", "0.4"]]), "bad model definition"),
        (dict(DETERMINISTIC, table=[["A B", "1"]]), "bad model definition"),
        (dict(BERNOULLI, vocabulary=["A", 1]), "symbol 1 is not"),
        (dict(BERNOULLI, vocabulary=["A,", "B"]), "symbol 'A,' is not"),
        (dict(BERNOULLI, vocabulary=["A B", "C"]), "symbol 'A B' is not"),
        (dict(BERNOULLI, vocabulary=["", "B"]), "symbol '' is not"),
        (dict(BERNOULLI, eos=True), "eos True is not a vocabulary index"),
        (dict(BERNOULLI, eos=1.5), "eos 1.5 is not a vocabulary index"),
        (dict(SYNTH, eos=True), "eos True is not a vocabulary index"),
        (dict(SYNTH, peakedness=math.nan), "peakedness nan is not finite and positive"),
        (dict(SYNTH, peakedness=math.inf), "peakedness inf is not finite and positive"),
        (dict(BERNOULLI, max_length=1.7), "max_length 1.7 has the wrong JSON type"),
        (dict(BERNOULLI, max_length=0), "max_length 0 is not positive"),
        (dict(SYNTH, max_length=-3), "max_length -3 is not positive"),
        (dict(BERNOULLI, max_length=True), "max_length True has the wrong JSON type"),
        (dict(BERNOULLI, vocabulary="AB"), "vocabulary 'AB' has the wrong JSON type"),
        (dict(BERNOULLI, rows={"": [0.6, 0.4]}), "probability 0.6 has the wrong JSON type"),
        (dict(BERNOULLI, rows={"": "01"}), "row '01' has the wrong JSON type"),
        (dict(DETERMINISTIC, table={"A B": 1}), "probability 1 has the wrong JSON type"),
        (dict(SYNTH, seed=1.9), "seed 1.9 has the wrong JSON type"),
        (dict(SYNTH, vocab_size=4.7), "vocab_size 4.7 has the wrong JSON type"),
        (dict(BERNOULLI, order=0.5), "order 0.5 has the wrong JSON type"),
        (dict(SYNTH, peakedness="2"), "peakedness '2' has the wrong JSON type"),
        (dict(SYNTH, peakedness=True), "peakedness True has the wrong JSON type"),
    ],
    ids=[
        "rows-list", "table-list", "non-string-symbol", "comma-symbol", "space-symbol", "empty-symbol",
        "eos-bool", "eos-float", "synthetic-eos-bool", "peakedness-nan", "peakedness-infinity",
        "max-length-float", "max-length-zero", "max-length-negative", "max-length-bool", "vocabulary-string",
        "number-probabilities", "row-string", "table-number", "seed-float", "vocab-size-float", "order-float",
        "peakedness-string", "peakedness-bool",
    ],
)
def test_malformed_model_file_is_one_error_line(spec, message, model_file, capsys):
    assert run(["sample", "--model", model_file(spec), "--n", "2"]) == 1
    assert message in one_error_line(capsys)


def test_non_integer_seed_variable_is_one_error_line(model_file, monkeypatch, capsys):
    monkeypatch.setenv("ARITH_DECODE_SEED", "abc")
    assert run(["sample", "--model", model_file(BERNOULLI), "--n", "2"]) == 1
    assert "ARITH_DECODE_SEED" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# Robustness fuzz: generated model files, flags and subcommands


def _weights(draw, count: int) -> list[str]:
    """`count` probabilities as exact strings; some are zero, and all are "0" when every weight is."""
    weights = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    total = sum(weights) or 1
    return [str(Fraction(w, total)) for w in weights]


@st.composite
def fuzz_models(draw) -> dict:
    """A Markov file of order 0-2 with some rows missing, a tabular file with
    some zero weights, or a synthetic file over an extreme range of peakedness."""
    kind = draw(st.sampled_from(["markov", "tabular", "synthetic"]))
    size = draw(st.sampled_from([2, 3, 8, 9, 17]) if kind == "synthetic" else st.integers(2, 3))
    spec = {"type": kind, "max_length": draw(st.integers(1, 3)), "eos": draw(st.sampled_from([None, size - 1, 0]))}
    if kind == "synthetic":
        peak = draw(st.floats(1e-300, 1e308))
        return dict(spec, seed=draw(st.integers(0, 99)), vocab_size=size, peakedness=peak)
    symbols = list("abc"[:size])
    spec["vocabulary"] = symbols
    if kind == "tabular":
        seqs = all_complete_sequences(size, spec["max_length"], spec["eos"])
        probs = _weights(draw, len(seqs))
        return dict(spec, table={" ".join(symbols[t] for t in s): p for s, p in zip(seqs, probs)})
    order = draw(st.integers(0, 2))
    contexts = [ctx for k in range(order + 1) for ctx in itertools.product(symbols, repeat=k)]
    kept = draw(st.lists(st.sampled_from([True] * 7 + [False]), min_size=len(contexts), max_size=len(contexts)))
    rows = {" ".join(ctx): _weights(draw, size) for ctx, keep in zip(contexts, kept) if keep}
    return dict(spec, order=order, rows=rows)


@st.composite
def fuzz_commands(draw, symbols: list[str]) -> tuple[list[str], str]:
    """argv after `--model`, and the text of the reference file it may name."""
    command = draw(st.sampled_from(["sample", "diversity", "variance", "oracle-check"]))
    if command == "oracle-check":
        return [command, "--n", draw(st.sampled_from(["1", "3", "0"])), "--bound", "2000"], ""
    argv = [command, "--method", draw(st.sampled_from(["arithmetic", "ancestral"])), "--seed", "1"]
    temperature = st.sampled_from(["0.5", "1.0", "3", "1e-320", "1e300", "0", "-1", "inf", "nan"])
    flags = {
        "--top-k": st.sampled_from(["1", "2", "5", "0", "-1", "1.5"]),
        "--nucleus-p": st.sampled_from(["0.9", "1", "1e-300", "0", "1.5", "nan"]),
        "--temperature": temperature,
        "--lattice-mode": st.sampled_from(["paper", "uniform"]),
    }
    if command == "diversity":
        flags["--temperature"] = st.lists(temperature, min_size=1, max_size=2).map(",".join)
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if command == "variance":
        argv += ["--n", draw(st.sampled_from(["1", "2,5"])), "--reps", "2"]
    else:
        argv += ["--n", draw(st.sampled_from(["1", "4", "9"]))]
    refs = draw(st.lists(st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(" ".join), min_size=1,
                         max_size=2))
    unknown = ["zz"] * (draw(st.integers(0, 7)) == 7)
    return argv, "\n".join(refs + unknown) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_exits_cleanly(data, tmp_path_factory):
    """Every generated run exits 0 or 2 with nothing on stderr, or 1 with one `error:` line."""
    spec = data.draw(fuzz_models())
    symbols = spec.get("vocabulary") or [f"t{i}" for i in range(spec["vocab_size"])]
    argv, refs = data.draw(fuzz_commands(symbols))
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "fuzz.json").write_text(json.dumps(spec))
    (tmp / "fuzz_refs.txt").write_text(refs)
    if argv[0] in ("diversity", "variance"):
        argv += ["--reference", str(tmp / "fuzz_refs.txt")]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--model", str(tmp / "fuzz.json")])
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ") and out.getvalue() == "", (argv, spec, lines)
    else:
        assert code in (0, 2) and lines == [], (argv, spec, code, lines)
