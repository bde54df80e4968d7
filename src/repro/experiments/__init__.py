"""Experiment drivers: runners and renderers for every artefact.

:data:`~repro.experiments.registry.EXPERIMENTS` is the table of
experiments behind the CLI, ``RESULTS.txt`` and ``GOLDEN.txt``: each
row names the runner and renderer of one experiment, and its entries
marked ``in_all`` render the paper's Tables 1-3 and Figures 2 and 4-7.
"""

from .chaos import (
    ChaosArmResult,
    chaos_config,
    render_chaos,
    run_chaos_arm,
    run_chaos_sweep,
)
from .mplayer import (
    QoSLadderResult,
    TriggerPairResult,
    TriggerRunResult,
    render_figure6,
    render_figure7,
    render_table3,
    render_trigger,
    run_qos_ladder,
    run_trigger_arm,
    run_trigger_pair,
    trigger_config,
)
from .fabric import (
    FabricArmResult,
    render_fabric,
    run_fabric,
    run_fabric_arm,
)
from .fabric_sharded import (
    FabricShardedArmResult,
    render_fabric_sharded,
    run_fabric_sharded,
    run_fabric_sharded_arm,
    sharded_topology,
)
from .shard_chaos import (
    ShardChaosArmResult,
    chaos_scenarios,
    render_shard_chaos,
    run_shard_chaos,
    run_shard_chaos_arm,
)
from .scalability import (
    ScalabilityArmResult,
    render_scalability,
    run_scalability,
    run_scalability_arm,
)
from .energyqos import (
    GUEST_SPECS,
    EnergyQosArmResult,
    EnergyQosResult,
    render_energy_qos,
    run_energy_qos,
    run_energy_qos_arm,
)
from .power import (
    PowerCapArmResult,
    PowerCapResult,
    render_power_cap,
    run_power_cap,
    run_power_cap_arm,
)
from .registry import EXPERIMENTS, Experiment, get
from .report import percent_change, render_bars, render_minmax, render_series, render_table
from .rubis import (
    RubisPairResult,
    RubisRunResult,
    render_figure2,
    render_figure4,
    render_figure5,
    render_rubis,
    render_table1,
    render_table2,
    run_rubis,
    run_rubis_pair,
)
from .trace import (
    DEFAULT_TRACE_DURATION,
    TraceRunResult,
    render_control_loops,
    run_traced_rubis,
)

__all__ = [
    "ChaosArmResult",
    "DEFAULT_TRACE_DURATION",
    "EXPERIMENTS",
    "Experiment",
    "chaos_config",
    "TraceRunResult",
    "QoSLadderResult",
    "RubisPairResult",
    "RubisRunResult",
    "TriggerPairResult",
    "TriggerRunResult",
    "EnergyQosArmResult",
    "EnergyQosResult",
    "FabricArmResult",
    "FabricShardedArmResult",
    "ScalabilityArmResult",
    "ShardChaosArmResult",
    "chaos_scenarios",
    "render_fabric",
    "render_fabric_sharded",
    "render_scalability",
    "render_shard_chaos",
    "run_fabric",
    "run_fabric_arm",
    "run_fabric_sharded",
    "run_fabric_sharded_arm",
    "run_shard_chaos",
    "run_shard_chaos_arm",
    "sharded_topology",
    "run_scalability",
    "run_scalability_arm",
    "GUEST_SPECS",
    "PowerCapArmResult",
    "PowerCapResult",
    "render_energy_qos",
    "render_power_cap",
    "run_energy_qos",
    "run_energy_qos_arm",
    "run_power_cap",
    "run_power_cap_arm",
    "percent_change",
    "render_bars",
    "render_chaos",
    "render_control_loops",
    "render_figure2",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_figure7",
    "render_rubis",
    "render_minmax",
    "render_series",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_trigger",
    "run_chaos_arm",
    "run_chaos_sweep",
    "run_traced_rubis",
    "get",
    "run_qos_ladder",
    "run_rubis",
    "run_rubis_pair",
    "run_trigger_arm",
    "run_trigger_pair",
    "trigger_config",
]
