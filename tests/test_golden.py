"""Byte-for-byte gate on whole CLI reports.

Each case runs `minifair run` or `minifair sweep` on a tiny seeded synthetic
table and compares the report file with the committed one in tests/golden/.
The cases cover trainer paths that the default configuration never takes
(a zero gap weight, the all_features embedder on law, compas and the wide
one-hot adult table, BCE, a diverging gap weight in a sweep) and the
boosted-stump heads on raw features and latent codes for both tasks, so a
refactor that changes any float operation order on those paths shows up
here.

Regenerate the files only when a report change is intended:

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""
import sys
from pathlib import Path

import pytest

from minifair.cli import main
from minifair.synthdata import generate_adult_csv, generate_compas_csv, generate_law_csv

GOLDEN = Path(__file__).parent / "golden"

GENERATORS = {"law": generate_law_csv, "compas": generate_compas_csv, "adult": generate_adult_csv}
ROWS = {"law": 500, "compas": 450, "adult": 500}

COMMON = (
    "repeats = 2\n"
    "seed = 0\n"
    "train.epochs = 4\n"
    "ae.epochs = 3\n"
    "baseline.ae_epochs = 3\n"
    "boost.rounds = 5\n"
)

# name -> (command, dataset, format, extra config lines, extra CLI arguments)
CASES = {
    "law-run-mixed": (
        "run", "law", "json", "methods = full-lr, ae-gboost, invenc-lr, invfair\n", []),
    "law-lambda-zero": ("run", "law", "csv", "methods = invfair\ntrain.lambda = 0\n", []),
    "law-ae-all-features": (
        "run", "law", "csv", "methods = invfair\nae.input = all_features\n", []),
    "law-sweep": ("sweep", "law", "csv", "", ["--lambda", "0,0.5,4"]),
    # λ = 1e9 trips the divergence bound, so one λ entry reads {"failed": true}
    "compas-sweep-json": (
        "sweep", "compas", "json", "ae.input = all_features\n", ["--lambda", "0.1,10,1e9"]),
    "law-run-gboost": (
        "run", "law", "csv", "methods = full-gboost, unaware-gboost, invenc-gboost\n", []),
    "compas-run-gboost": (
        "run", "compas", "csv",
        "methods = full-gboost, unaware-gboost, invenc-gboost\nboost.learning_rate = 1\n", []),
    # every race x sex combination, embedded with the wide one-hot-heavy X
    "adult-all-features": (
        "run", "adult", "csv", "methods = invenc-gboost, invfair\nae.input = all_features\n", []),
}


def run_case(name, work_dir) -> bytes:
    """Report bytes of one case, written under work_dir."""
    command, dataset, fmt, extra, args = CASES[name]
    work_dir = Path(work_dir)
    data = work_dir / f"{dataset}.csv"
    if not data.exists():
        GENERATORS[dataset](data, n=ROWS[dataset], seed=0)
    cfg = work_dir / f"{name}.cfg"
    cfg.write_text(f"dataset = {dataset}\ndata.path = {data}\n" + COMMON + extra)
    out = work_dir / f"{name}.{fmt}"
    status = main([command, "--config", str(cfg), "--out", str(out), "--format", fmt] + args)
    assert status == 0, f"{name}: CLI exited with {status}"
    return out.read_bytes()


def golden_path(name) -> Path:
    return GOLDEN / f"{name}.{CASES[name][2]}"


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, work_dir):
    assert run_case(name, work_dir) == golden_path(name).read_bytes()


def _regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            golden_path(name).write_bytes(run_case(name, tmp))
            print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 tests/test_golden.py --regenerate")
    _regenerate()
