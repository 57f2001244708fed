"""The term-map kernels every caller uses.

They are implemented in :mod:`qspirlab._kernels_py` and re-exported here, so
that wrapping an attribute of this module (as a profiler does) leaves the
kernels' own internal calls to ``extract_sub`` and ``insert_sub`` unwrapped.
"""

from ._kernels_py import (  # noqa: F401  (re-exported)
    apply_map_terms,
    branch_split,
    conditional_xor,
    dot2,
    extract_sub,
    insert_sub,
    masked_parities,
    norm_sq,
    phase_apply,
    ptrace_accumulate,
    scale_terms,
    tensor_terms,
    xor_relabel,
)

BACKEND = "py"
