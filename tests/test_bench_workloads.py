"""The in-process benchmark workloads pass their own checks.

One pool round of monad-flatness (20 operations) and pointdata-roundtrip
(25 operations) at the benchmark's seed is set up, run and checked with
each workload's own `check`, as `bench/run.py` does; a change that makes
an operation fail shows here before any benchmark run.  The workload
modules are imported from `bench/` as they are.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import monad_flatness  # noqa: E402
import pointdata_roundtrip  # noqa: E402
from adequiver import linalg  # noqa: E402
from helpers import reference_char_poly  # noqa: E402

SEED = 4242


@pytest.fixture(scope="module")
def rounds():
    """(workload, operations) of one pool round at SEED, by module, each set up once."""
    made = {}

    def get(module):
        if module not in made:
            workload = module.Workload(str(Path(module.__file__).parent.parent), SEED, 1)
            workload.setup()
            made[module] = workload, workload.rounds[0]
        return made[module]

    return get


@pytest.mark.parametrize(("module", "count"), [(monad_flatness, 20), (pointdata_roundtrip, 25)])
def test_every_operation_of_a_round_passes_its_check(rounds, module, count):
    workload, ops = rounds(module)
    assert len(ops) == count
    failed = [inst.cell for inst in ops if not workload.check(inst, workload.run(inst))]
    assert failed == []


def test_pointdata_loops_have_the_reference_char_poly(rounds):
    _, ops = rounds(pointdata_roundtrip)
    loops = [inst.rep.loops[a] for inst in ops for a in inst.rep.dims]
    assert max(len(m[0]) for m in loops) == 10
    for m in loops:
        assert linalg.char_poly_coeffs(m) == reference_char_poly(m)
