"""Fixed-seed CLI runs replayed against recorded output bytes.

Each case's argv names files in tests/golden/ by bare name; its expected
stdout is tests/golden/<case>.csv.  Every case exits 0 with nothing on stderr.
"""

from pathlib import Path

import pytest

from arithdecode.cli import main

GOLDEN = Path(__file__).parent / "golden"
CHAIN = ["--top-k", "2", "--nucleus-p", "0.8", "--temperature", "0.7"]

CASES = {
    "variance_arithmetic": ["variance", "--model", "markov.json", "--n", "4,16", "--reps", "20",
                            "--reference", "refs_markov.txt", "--seed", "3"],
    "variance_ancestral": ["variance", "--model", "markov.json", "--method", "ancestral", "--n", "4,16",
                           "--reps", "20", "--reference", "refs_markov.txt", "--seed", "3"],
    # 1,680 decoded sequences with many repeats: pins BLEU scores served from the cache
    "variance_ancestral_n64": ["variance", "--model", "markov.json", "--method", "ancestral", "--n", "4,16,64",
                               "--reps", "20", "--reference", "refs_markov.txt", "--seed", "3"],
    "diversity_arithmetic": ["diversity", "--model", "markov.json", "--n", "8", "--temperature", "0.5,1.0",
                             "--reference", "refs_markov.txt", "--seed", "3"],
    "diversity_ancestral": ["diversity", "--model", "markov.json", "--method", "ancestral", "--n", "8",
                            "--temperature", "0.5,1.0", "--reference", "refs_markov.txt", "--seed", "3"],
    "oracle_check": ["oracle-check", "--model", "markov.json"],
    "oracle_check_tabular": ["oracle-check", "--model", "tabular.json"],
    "oracle_check_markov_n7": ["oracle-check", "--model", "markov.json", "--n", "7"],
    "sample_synthetic_uniform_workers2": ["sample", "--model", "synthetic.json", "--n", "32", "--seed", "5",
                                          "--lattice-mode", "uniform", "--workers", "2"],
    "stepfn_paper": ["stepfn", "--stepfn", "stepfn.txt", "--n", "1,2,3,5,16", "--lattice-mode", "paper",
                     "--reps", "200", "--seed", "4"],
    "stepfn_uniform": ["stepfn", "--stepfn", "stepfn.txt", "--n", "1,2,3,5,16", "--reps", "200", "--seed", "4"],
}
for model in ("markov", "tabular"):
    for method in ("arithmetic", "ancestral"):
        argv = ["sample", "--model", f"{model}.json", "--method", method, "--n", "16", "--seed", "7"]
        CASES[f"sample_{model}_{method}"] = argv
        CASES[f"sample_{model}_{method}_chain"] = argv + CHAIN
# V=8, L=12 with no EOS: past the first few tokens every code decodes alone.
LONE = ["sample", "--model", "synthetic_v8.json", "--n", "256", "--seed", "7"]
CASES["sample_synthetic_v8_arithmetic"] = LONE
CASES["sample_synthetic_v8_ancestral"] = LONE + ["--method", "ancestral"]
CASES["sample_synthetic_v8_arithmetic_chain"] = LONE + ["--temperature", "0.7", "--nucleus-p", "0.9"]
# V=16 (more than one digest block per step), EOS on a float model, and a
# modified float distribution through the CLI.
EOS16 = ["sample", "--model", "synthetic_v16_eos.json", "--n", "256", "--seed", "11"]
CASES["sample_synthetic_v16_eos_arithmetic"] = EOS16
CASES["sample_synthetic_v16_eos_ancestral"] = EOS16 + ["--method", "ancestral"]
CASES["sample_synthetic_v16_eos_arithmetic_chain"] = EOS16 + ["--temperature", "0.7", "--top-k", "5"]
# BLEU and n-gram diversity on a float model, with EOS stripped from every hypothesis.
for method in ("arithmetic", "ancestral"):
    CASES[f"diversity_synthetic_v16_eos_{method}"] = [
        "diversity", "--model", "synthetic_v16_eos.json", "--method", method, "--n", "64",
        "--temperature", "0.5,1.0", "--reference", "refs_synthetic_v16_eos.txt", "--seed", "11"]


def resolve(argv: list[str]) -> list[str]:
    """The argv with every golden-directory file name made a full path."""
    return [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    assert main(resolve(CASES[case])) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{case}.csv").read_bytes()
