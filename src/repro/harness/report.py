"""EXPERIMENTS.md generator: paper-vs-measured for every experiment.

:func:`build_report` runs the complete experiment set on one runner
and renders a markdown document recording, per table/figure, what the
paper reports and what this reproduction measured.  The checked-in
EXPERIMENTS.md is produced by::

    python -m repro.cli report --output EXPERIMENTS.md
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.harness import experiments
from repro.harness.runner import ExperimentRunner
from repro.harness.tables import ExperimentResult, format_result


@dataclass(frozen=True)
class PaperExpectation:
    """What the paper reports for one experiment, in prose."""

    experiment_id: str
    title: str
    paper_says: str
    shape_target: str
    fn: Callable[[ExperimentRunner], ExperimentResult]


EXPECTATIONS: List[PaperExpectation] = [
    PaperExpectation(
        "table2", "Table II — absolute execution cycles of TC and BL",
        "BL and TC cycle counts per benchmark, validating the authors' "
        "TC re-implementation against the original TC simulator "
        "(e.g. KM is the longest at ~28.7M BL cycles; BFS is where TC "
        "regresses hardest, 2.32M vs 0.79M BL).",
        "TC regresses most on the irregular coherent benchmarks "
        "(BFS-like) and is near-neutral on compute-bound ones "
        "(CCP/HS); absolute counts are machine-scale-dependent.",
        experiments.table2,
    ),
    PaperExpectation(
        "fig12", "Figure 12 — performance, normalised to no-L1",
        "G-TSC outperforms TC by 38% with RC; G-TSC-SC beats TC-RC by "
        "26% on the coherence benchmarks; the RC/SC gap under G-TSC is "
        "~12% (coherent) and ~9% overall; G-TSC's overhead vs the "
        "non-coherent L1 is ~11% on the second group; CC is the one "
        "benchmark where SC can beat RC (NoC congestion).",
        "same winners, same orderings, small G-TSC SC/RC gap, "
        "near-equal bars for CCP/HS/KM.",
        experiments.fig12,
    ),
    PaperExpectation(
        "fig13", "Figure 13 — memory-induced pipeline stalls",
        "TC encounters ~45% more stalls than G-TSC on the coherent "
        "set and over 1.4x for the second set.",
        "TC stall ratio > G-TSC at both consistency levels.",
        experiments.fig13,
    ),
    PaperExpectation(
        "fig14", "Figure 14 — G-TSC-RC lease sensitivity",
        "performance unchanged across leases 8-20.",
        "flat series; in this model the flatness is exact because "
        "logical timestamps scale affinely with the lease.",
        experiments.fig14,
    ),
    PaperExpectation(
        "fig15", "Figure 15 — NoC traffic, normalised to no-L1",
        "G-TSC reduces traffic by 20% vs TC with RC and 15.7% with SC "
        "on the coherent set; the second group shows almost no RC/SC "
        "difference.",
        "double-digit traffic reduction from data-less renewals.",
        experiments.fig15,
    ),
    PaperExpectation(
        "fig16", "Figure 16 — total energy, normalised to no-L1",
        "G-TSC consumes ~11% less total energy than TC with RC on the "
        "coherent set (2% L2, 4% NoC, 5% rest vs baseline).",
        "G-TSC below TC; savings driven by runtime and NoC bytes.",
        experiments.fig16,
    ),
    PaperExpectation(
        "fig16-components",
        "Section VI-D — per-component energy breakdown",
        "G-TSC reduces L2 energy by 2%, NoC by 4% and the remaining "
        "GPU components by 5% vs the baseline, with further margins "
        "over TC (1% L2, 3% NoC, 5% rest).",
        "G-TSC at or below TC in every component; NoC and "
        "runtime-driven (static/core) components carry the saving.",
        experiments.fig16_components,
    ),
    PaperExpectation(
        "fig17", "Figure 17 — L1 cache energy (nanojoules)",
        "TC consumes slightly less L1 energy than G-TSC.",
        "G-TSC's L1 works at least as hard as TC's (more hits and "
        "renewal probes) even though G-TSC wins on total energy.",
        experiments.fig17,
    ),
    PaperExpectation(
        "expiration", "Section VI-E — lease-expiration misses",
        "~48% fewer expiration misses under G-TSC, attributed to "
        "kernels with more loads than stores (logical time rolls "
        "slower than physical).",
        "large reductions on the read-mostly benchmarks (BH/VPR/BFS); "
        "store-heavy synthetic kernels advance logical time as fast "
        "as physical and can go the other way.",
        experiments.expiration,
    ),
    PaperExpectation(
        "headline", "Headline claims (abstract)",
        "+38% over TC-RC, +26% for G-TSC-SC over TC-RC, -20% traffic.",
        "all three signs reproduced at comparable magnitude.",
        experiments.headline,
    ),
    PaperExpectation(
        "ablation-visibility", "Section V-A — update visibility",
        "option 1 (delay accesses until ack) performs on par with the "
        "old-copy buffer, so the hardware for option 2 is unjustified.",
        "delay and old-copy within a few percent of each other.",
        experiments.ablation_visibility,
    ),
    PaperExpectation(
        "ablation-combining", "Section V-B — request combining",
        "forwarding all requests raises memory request counts by "
        "12-35%; the paper keeps waiters in the MSHR and renews.",
        "forward-all sends measurably more messages.",
        experiments.ablation_combining,
    ),
    PaperExpectation(
        "ablation-inclusion", "Section V-C — cache inclusion",
        "timestamp ordering lets G-TSC keep the GPU-standard "
        "non-inclusive L2; TC must force inclusion.",
        "forcing inclusion adds recall traffic and no performance.",
        experiments.ablation_inclusion,
    ),
    PaperExpectation(
        "mesi-motivation",
        "Section II-C — conventional directory protocols, measured",
        "the paper argues (citing prior work) that invalidation-based "
        "protocols are ill-suited for GPUs: invalidation and recall "
        "traffic, plus storage up to 28% of L2 for worst-case "
        "transaction buffering.",
        "a real MSI directory implementation loses to G-TSC on the "
        "sharing-heavy coherent benchmarks and ships more bytes; its "
        "write-back locality can still win on write-private kernels "
        "(BH), which keeps the comparison honest.",
        experiments.mesi_motivation,
    ),
    PaperExpectation(
        "cc-congestion", "Section VI-B — the CC anomaly (SC vs RC)",
        "on CC, G-TSC-SC beats G-TSC-RC: SC's single outstanding "
        "request per warp cuts the request rate by 14% and average "
        "NoC latency by 29%.",
        "SC shows a lower injection rate and lower per-message "
        "latency than RC on the memory-intensive benchmarks.",
        experiments.cc_congestion,
    ),
    PaperExpectation(
        "traffic-breakdown", "Traffic breakdown (Fig. 15 mechanism)",
        "renewal responses carry no data (Table I), which is where "
        "the 20% traffic saving comes from.",
        "G-TSC shifts bytes from the data class to the (small) "
        "control class relative to TC.",
        experiments.traffic_breakdown,
    ),
    PaperExpectation(
        "ablation-adaptive-lease",
        "Extension — adaptive leases (Tardis 2.0-style)",
        "not in the paper; its related-work section cites Tardis 2.0's "
        "optimized lease policies as the natural follow-on.",
        "renewal traffic drops on read-mostly benchmarks at no "
        "performance cost.",
        experiments.ablation_adaptive_lease,
    ),
    PaperExpectation(
        "multigpu", "Extension — multi-GPU scale-out (HALCONE-style)",
        "not in the paper; HALCONE (arXiv 2007.04292) extends "
        "timestamp coherence across GPUs with a shared memory "
        "timestamp home and shows it scales without invalidation "
        "traffic.",
        "all three protocols stay correct at 2-8 GPUs; G-TSC ships "
        "fewer interlink bytes than MESI's invalidation chatter on "
        "the sharing-heavy exchanges, and its cycles scale no worse "
        "than TC's as remote leases renew data-lessly.",
        experiments.multigpu,
    ),
    PaperExpectation(
        "ablation-tc-lease", "Section II-D3 — TC lease sensitivity",
        "TC performance is sensitive to the lease period; a suitable "
        "period is hard to pick.",
        "a clear optimum exists and bad leases cost double-digit "
        "slowdowns — the contrast with Figure 14.",
        experiments.ablation_tc_lease,
    ),
]


def build_report(runner: ExperimentRunner) -> str:
    """Run every experiment and render the markdown report."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.cli report`.",
        "",
        f"Machine preset: `{runner.preset}`, workload scale "
        f"{runner.scale}, seed {runner.seed}.",
        "",
        "Absolute numbers are not comparable to the paper's (its "
        "substrate is GPGPU-Sim running CUDA binaries on a full-size "
        "GPU; ours is a trace-driven model on synthetic workloads — "
        "see DESIGN.md).  What is compared is the *shape*: who wins, "
        "by roughly what factor, and where the crossovers fall.",
        "",
    ]
    for expectation in EXPECTATIONS:
        result = expectation.fn(runner)
        lines.append(f"## {expectation.title}")
        lines.append("")
        lines.append(f"**Paper:** {expectation.paper_says}")
        lines.append("")
        lines.append(f"**Shape target:** {expectation.shape_target}")
        lines.append("")
        lines.append("**Measured:**")
        lines.append("")
        lines.append("```")
        lines.append(format_result(result))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
