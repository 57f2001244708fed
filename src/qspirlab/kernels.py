"""Kernel backend selection.

Imports the compiled extension when available, else the pure-Python
fallback.  ``QSPIRLAB_KERNELS=py`` forces the fallback and
``QSPIRLAB_KERNELS=c`` demands the extension (raising if it is missing);
anything else is auto.  The active backend name is exposed as ``BACKEND``.
"""

import os

_requested = os.environ.get("QSPIRLAB_KERNELS", "auto").lower()

if _requested == "py":
    from . import _kernels_py as impl
elif _requested == "c":
    from . import _kernels as impl  # noqa: F401  (ImportError is the point)
else:
    try:
        from . import _kernels as impl
    except ImportError:
        from . import _kernels_py as impl

BACKEND = impl.BACKEND

tensor_terms = impl.tensor_terms
scale_terms = impl.scale_terms
norm_sq = impl.norm_sq
phase_apply = impl.phase_apply
xor_relabel = impl.xor_relabel
extract_sub = impl.extract_sub
insert_sub = impl.insert_sub
conditional_xor = impl.conditional_xor
apply_map_terms = impl.apply_map_terms
branch_split = impl.branch_split
ptrace_accumulate = impl.ptrace_accumulate
masked_parities = impl.masked_parities
dot2 = impl.dot2
