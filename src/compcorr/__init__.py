"""Two-qubit correlation toolkit.

Complementary correlations, classical correlation, discord and entanglement
measures for Bell-diagonal states, with brute-force oracles and a simulator
for entanglement distribution with separable states.
"""

from .correlations import (
    CorrelationReport,
    classical_correlation,
    complementary_correlations,
    discord_bd,
    holevo_quantity,
    outcome_mutual_information,
    total_mutual_information,
)
from .edss import (
    EdssSearchResult,
    ProtocolTrace,
    SweepRow,
    ancilla_state,
    edss_useful,
    run_protocol,
    sweep,
)
from .entanglement import (
    PptVerdict,
    is_separable_bd,
    negativity,
    rel_entropy_entanglement_bd,
)
from .oracle import (
    OptimizationResult,
    discord_numeric,
    maximize_holevo,
    mub_check,
)
from .report import report_for_bd, report_for_state
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    bloch_decompose,
    classically_correlated,
    family_eq15,
    load_state,
    save_state,
    werner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
