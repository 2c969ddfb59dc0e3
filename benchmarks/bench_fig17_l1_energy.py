"""Figure 17 — L1 cache energy (absolute nanojoules).

Shape target from the paper's discussion: TC consumes slightly *less*
L1 energy than G-TSC (G-TSC makes more L1 accesses — its lines stay
useful longer, and renewals re-probe the tags), even though G-TSC wins
on total energy.
"""

from repro.harness import experiments
from repro.workloads import COHERENT_NAMES


def test_fig17_l1_energy(benchmark, runner, emit):
    result = benchmark.pedantic(
        lambda: experiments.fig17(runner), rounds=1, iterations=1)
    emit(result)
    headers = result.headers
    # every protocol with an L1 burns some L1 energy
    for row in result.rows:
        assert all(v >= 0 for v in row[2:])
    # aggregate direction: G-TSC's L1 works at least as hard as TC's
    tc = sum(result.row(n)[headers.index("TC-RC")]
             for n in COHERENT_NAMES)
    gtsc = sum(result.row(n)[headers.index("G-TSC-RC")]
               for n in COHERENT_NAMES)
    assert gtsc >= tc * 0.9
