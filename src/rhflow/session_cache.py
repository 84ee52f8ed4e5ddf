"""The session cache of the solvers' shared, read-only problem parts.

rh_solver keeps its theta-free problems (theta_free_problem) and scalar_bvp
its eta0-free ones (line_problem, base_point_log) for the session, each in
a cache of its own bounded by the bytes of the results it keeps.
"""

from __future__ import annotations

import collections
import functools

# each cache keeps results up to this many bytes of their arrays: 36
# pentagon theta-free problems at M = 512 or 9 at M = 2048, about 170
# scalar lines or 500 base-point logs at M = 512
CACHE_BYTES = 8 * 2**20

CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxbytes currbytes")


class BytesLRU:
    """A least-recently-used cache of a function's results keyed by its
    positional arguments, bounded by the bytes of the results it keeps
    (their nbytes) at CACHE_BYTES: the newest result is always kept, and the
    oldest go first.  cache_info and cache_clear as functools.lru_cache's."""

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self._build = build
        self.cache_clear()

    def __call__(self, *args):
        kept = self._kept
        result = kept.get(args)
        if result is not None:
            self._hits += 1
            kept.move_to_end(args)
            return result
        self._misses += 1
        result = kept[args] = self._build(*args)
        self._bytes += result.nbytes
        while self._bytes > CACHE_BYTES and len(kept) > 1:
            self._bytes -= kept.popitem(last=False)[1].nbytes
        return result

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, CACHE_BYTES, self._bytes)

    def cache_clear(self) -> None:
        self._kept: collections.OrderedDict = collections.OrderedDict()
        self._hits = self._misses = self._bytes = 0
