"""cellless: minimum-power configuration of cell-less radio networks.

Simulates a cluster-ray stochastic channel with steerable antenna panels,
evaluates per-user rates and per-human whole-body SAR, and solves for
low-power network configurations via the Cluster-then-Match heuristic,
benchmarked against a max-min-rate simulated annealer.
"""

#: Versions the numbers too: a change that moves any rate or SAR bumps it.
#: Set before the submodules load, since ``harness`` writes it into every
#: summary.json.
__version__ = "0.2.0"

from .antenna import PanelGeometry, SteeringDirection, element_gain_db, panel_field, width_to_panel
from .channel import ChannelParams, LinkRealization, los_probability, sample_link
from .exposure import FrequencyMap, PhantomProfile, incident_field, sar_wb
from .radio_metrics import Evaluator, MetricsBundle, evaluate, power_density
from .scenario import (EndUser, Human, PoA, Position3D, Scenario, builtin_scenario,
                       builtin_template, generate_placements, load_scenario, save_scenario)
from .solution import BeamConfig, SolutionState, validate
from .solver_ctm import CtmConfig, NoFeasibleSolutionError, solve_ctm
from .solver_maxrate import AnnealConfig, solve_maxrate
from .harness import ExperimentSpec, RunRecord, emit_plot_data, run_experiment
