"""Page-granular out-of-core I/O substrate.

The paper's model assumes output data can be written to disk *partially*,
and motivates this by paging: "all data are divided in same-size pages,
which can be moved from main memory to secondary storage when needed"
(Section 1).  This package makes that concrete:

* :mod:`repro.io.pages`    — page tables mapping task outputs to frames;
* :mod:`repro.io.policies` — victim-selection policies (Belady/FiF, LRU,
  FIFO, random, pessimal);
* :mod:`repro.io.pager`    — a pinned-frame paging simulator executing a
  schedule at page granularity;
* :mod:`repro.io.device`   — the seek+bandwidth disk timing model, the
  package's only device model: it prices these access traces, and a
  traversal's read/write events at one unit per page.

The key consistency theorem (tested): with page size 1 and the Belady
policy, the pager's write volume equals the node-level FiF simulator's
I/O volume for the same schedule — the two models are isomorphic.  With
page size ``P`` it equals FiF on the tree with weights rounded up to
multiples of ``P`` under the memory ``P * (M // P)``.
"""

from .device import HDD, SSD, DiskModel, estimate_time
from .pager import PagingResult, paged_io, page_policy_comparison
from .pages import PageMap
from .policies import POLICIES, EvictionPolicy, make_policy

__all__ = [
    "DiskModel",
    "EvictionPolicy",
    "HDD",
    "POLICIES",
    "PageMap",
    "PagingResult",
    "SSD",
    "estimate_time",
    "make_policy",
    "paged_io",
    "page_policy_comparison",
]
