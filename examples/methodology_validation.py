"""Validating the measurement methodology against ground truth.

The paper argues its 40 us sampling window is fine because "typical
component duration is hundreds of micro-seconds on our P6 system".  On
real hardware that claim cannot be checked — there is no ground truth.
The simulator has one: this example simulates one execution, measures
it with progressively coarser DAQs, and reports how much energy each
measurement attributed to the wrong component, plus the
instrumentation's own perturbation.

Run with::

    python examples/methodology_validation.py
"""

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.report import render_table
from repro.core.simulation import MeasurementConfig
from repro.jvm.components import Component

PERIODS = (10e-6, 40e-6, 200e-6, 1e-3, 10e-3, 100e-3)


def main():
    experiment = Experiment(ExperimentConfig(
        benchmark="_202_jess", collector="GenCopy", heap_mb=64, seed=42,
    ))
    print("Executing _202_jess (Jikes RVM, GenCopy, 64 MB) ...")
    sim = experiment.simulate()
    run = sim.run

    pert = run.perturbation_cycles / run.timeline.total_cycles
    print(
        f"instrumentation: {run.port_writes} parallel-port writes, "
        f"{100 * pert:.3f}% of all cycles — the 'low-perturbation' "
        "claim, quantified\n"
    )

    rows = []
    for period in PERIODS:
        report = experiment.measure(
            sim, MeasurementConfig(daq_period_s=period)
        ).attribution
        rows.append([
            f"{period * 1e6:.0f}",
            100 * report.total_misattribution_fraction(),
            100 * report.relative_error(Component.GC),
            100 * report.relative_error(Component.CL),
            100 * report.relative_error(Component.OPT),
        ])
    print(render_table(
        ["period us", "misattributed %", "GC err %", "CL err %",
         "Opt err %"],
        rows,
        title="Energy-attribution error vs DAQ sampling period:",
    ))
    print(
        "\nAt the paper's 40 us the error is negligible because "
        "component activations last hundreds of microseconds; by "
        "1-10 ms (OS-timer rates) short components like the class "
        "loader and the compilers lose much of their energy to "
        "whoever surrounds them."
    )


if __name__ == "__main__":
    main()
