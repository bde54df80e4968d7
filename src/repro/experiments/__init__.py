"""Experiment drivers: one callable + renderer per paper table/figure.

| Artefact | Runner | Renderer |
|---|---|---|
| Figure 2 | :func:`run_rubis_pair` | :func:`render_figure2` |
| Figure 4 | :func:`run_rubis_pair` | :func:`render_figure4` |
| Table 1  | :func:`run_rubis_pair` | :func:`render_table1` |
| Table 2  | :func:`run_rubis_pair` | :func:`render_table2` |
| Figure 5 | :func:`run_rubis_pair` | :func:`render_figure5` |
| Figure 6 | :func:`run_qos_ladder` | :func:`render_figure6` |
| Figure 7 | :func:`run_trigger_pair` | :func:`render_figure7` |
| Table 3  | :func:`run_trigger_pair` | :func:`render_table3` |
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
from .registry import Experiment, all_experiments, experiment, get, names, register
from .report import percent_change, render_bars, render_minmax, render_series, render_table
from .rubis import (
    RubisPairResult,
    RubisRunResult,
    render_figure2,
    render_figure4,
    render_figure5,
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
    "Experiment",
    "chaos_config",
    "TraceRunResult",
    "all_experiments",
    "experiment",
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
    "names",
    "register",
    "render_bars",
    "render_chaos",
    "render_control_loops",
    "render_figure2",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_figure7",
    "render_minmax",
    "render_series",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
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
