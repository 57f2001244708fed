"""qspirlab: a desk-scale laboratory for symmetrically-private information retrieval.

Classical linear-reconstruction PIR schemes, their compilation into quantum
protocols that also hide the database from an honest user, a two-server
Bell-pair scheme, exact recovery/privacy audits with witnesses, and a
dishonest-user attack suite with its measurement countermeasure.
"""

__version__ = "0.1.0"

from .registers import RegisterLayout, bits, parse_bits
from .states import (
    SparseState,
    apply_local_map,
    apply_phase_oracle,
    conditional_xor_relabel,
    equal_up_to_global_phase,
    measurement_branches,
    tensor,
)
from .density import DensityMatrix, mix, partial_trace, trace_distance

__all__ = [
    "RegisterLayout",
    "SparseState",
    "DensityMatrix",
    "bits",
    "parse_bits",
    "tensor",
    "apply_phase_oracle",
    "apply_local_map",
    "conditional_xor_relabel",
    "measurement_branches",
    "equal_up_to_global_phase",
    "partial_trace",
    "mix",
    "trace_distance",
    "__version__",
]
