"""The benchmark repeats itself: same seed, same inputs, same counts.

    python3 -m pytest perfbench/test_determinism.py

For each workload, at a small size and one seed, two generations must give
byte-identical inputs and identical references, and two traced runs must
give every pair its reference verdict in every round, and the same counts: issued oracle queries,
query-cache hits and misses, norm-cache hits, disjuncts after splitting and
normalization rule applications.  A later change may claim a count only
if it is repeatable in this sense.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 5
SCALE = 0.1


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _verdicts(report: dict) -> list:
    """The verdicts of each timed pair over every round, in pair order.
    Which pairs run after round 0 depends on their timing; what they answer
    must not."""
    by_pair = {}
    for rd in report["untraced"] + report["traced"]:
        for row in rd["rows"]:
            by_pair.setdefault((row[0], row[1]), set()).add(row[2])
    return [sorted(by_pair[key]) for key in sorted(by_pair)]


def _counts(report: dict) -> dict:
    first = report["traced"][0]
    layers = first["layers"]
    return {
        "verdicts": _verdicts(report),
        "per_check": [row[4:7] for row in report["untraced"][0]["rows"]],
        "calls": {k: v for k, v in layers["calls"].items() if k != "engine"},
        "rules": layers["rules"],
        "split": (layers["split_in"], layers["split_out"]),
        "caches": first["caches"],
    }


@pytest.fixture
def work_dir():
    """A working directory inside the checkout, like the benchmark's own."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="determinism-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(run.workload_generators()))
def test_same_seed_same_inputs_verdicts_and_counts(workload, work_dir):
    runs = []
    for i in range(2):
        out = work_dir / f"gen{i}"
        refs = run.generate(workload, SEED, out, SCALE)
        report = run.run_runner(out, 0, 1)
        runs.append((_files(out), refs, _counts(report)))
    (files_a, refs_a, counts_a), (files_b, refs_b, counts_b) = runs
    assert files_a == files_b
    assert refs_a == refs_b
    assert counts_a["verdicts"] == [[ref] for ref in refs_a]
    assert counts_a == counts_b
