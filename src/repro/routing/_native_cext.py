"""C-extension backend of the native kernel tier.

Used by :mod:`repro.routing.native`: a ~110-line C translation of the
two Floyd-Warshall kernels and the incremental engine's update,
compiled on first use with the system C compiler into a
content-addressed, per-user cache directory
(``$XDG_CACHE_HOME/repro/native``, else ``~/.cache/repro/native``;
``REPRO_NATIVE_CACHE`` overrides) and loaded through :mod:`ctypes`.
No third-party build dependency: the shared object is plain C (no
``Python.h``), so only ``cc``/``gcc``/``clang`` is needed, and only
once per machine -- the cache key hashes the C source together with
the compile flags, so an edit to either recompiles.  Nothing is written
under the working directory.  A cached file that fails to load
(truncated, foreign, torn by a crash) is rebuilt once and published
over the bad one; only a failed rebuild (no compiler, or no writable
cache) makes the tier unavailable.

Bit-identity contract
---------------------

The kernels assume the domain the weight builders guarantee:
nonnegative weights, zero diagonals, ``inf`` for missing edges, never
NaN.  On that domain the in-place relaxation of iteration ``k`` cannot
change row ``k`` or column ``k`` (``d[k][k] == 0`` and improvements are
strict), so every candidate ``d[i][k] + d[k][j]`` reads exactly the
values the out-of-place NumPy form reads, the IEEE additions are the
same, ties resolve the same way, and the results are bitwise equal --
the property the cross-tier parity suites pin.  The row kernel visits
the same ``i < k < j`` block as its NumPy twin, in the same pivot
order; the engine kernel forms each candidate with its twin's
association, and a min does not depend on the order it scans.  The
build deliberately avoids ``-ffast-math`` and forces ``-ffp-contract=off``
so the compiler cannot re-associate or fuse those additions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

#: Override for the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Left-to-right row Floyd-Warshall, distances only, in place.
 * d is a C-contiguous (B, n, n) stack of left-to-right row graphs
 * (zero diagonal, inf below it), so pivot k can only improve cells
 * i < k < j: the loops visit exactly that block.  Row k and column k
 * are invariant within iteration k, so the in-place form is bitwise
 * equal to the out-of-place NumPy form.
 */
void repro_row_dist_batch(double *d, int64_t B, int64_t n) {
    for (int64_t s = 0; s < B; s++) {
        double *m = d + s * n * n;
        for (int64_t k = 1; k < n - 1; k++) {
            const double *rowk = m + k * n;
            for (int64_t i = 0; i < k; i++) {
                double dik = m[i * n + k];
                if (isinf(dik)) continue;  /* inf never improves */
                double *rowi = m + i * n;
                for (int64_t j = k + 1; j < n; j++) {
                    double via = dik + rowk[j];
                    rowi[j] = via < rowi[j] ? via : rowi[j];
                }
            }
        }
    }
}

/* Batched min-plus Floyd-Warshall over arbitrary (B, n, n) stacks, in
 * place, with next-hop emission: strict-< improvement routes i->j
 * through i's first hop toward k; ties keep the incumbent.  nh[i][k]
 * can only change at j == k, which needs dik + 0 < dik -- impossible --
 * so the pre-loop read matches NumPy's iteration-start snapshot.
 */
void repro_fw_batch(double *d, int64_t *nh, int64_t B, int64_t n) {
    for (int64_t s = 0; s < B; s++) {
        double *m = d + s * n * n;
        int64_t *h = nh + s * n * n;
        for (int64_t k = 0; k < n; k++) {
            const double *rowk = m + k * n;
            for (int64_t i = 0; i < n; i++) {
                double dik = m[i * n + k];
                if (isinf(dik)) continue;
                double *rowi = m + i * n;
                int64_t *hrow = h + i * n;
                int64_t hik = hrow[k];
                for (int64_t j = 0; j < n; j++) {
                    double via = dik + rowk[j];
                    if (via < rowi[j]) {
                        rowi[j] = via;
                        hrow[j] = hik;
                    }
                }
            }
        }
    }
}

/* The incremental engine's whole link diff in one call.  s is the
 * (n, n) left-to-right distance layer (inf below the diagonal), w the
 * row's left-to-right weight matrix, hop[len] the cost of a link of
 * length len, ch m (a, b, is_add) triples.  Groups run in ascending
 * right endpoint b: the group's links enter or leave w, then the block
 * rows <= amax, cols >= b is rewritten as the min over the cut's
 * crossing edges (u, v) -- read from w -- of (s[i][u] + w[u][v]) +
 * s[v][j], the association of the NumPy rewrite.  The block never
 * reads itself (u < b, v > amax), and s[i][u] is inf for i > u, so
 * rows stop at u.  Returns total plus every block's change of sum
 * (the running upper-triangle total), or NaN -- before touching
 * anything -- when a triple is not an express link of the row.
 */
double repro_engine_apply(double *s, double *w, const double *hop, int64_t n,
                          const int64_t *ch, int64_t m, double total) {
    for (int64_t k = 0; k < m; k++) {
        if (ch[3 * k] < 0 || ch[3 * k + 1] - ch[3 * k] < 2 || ch[3 * k + 1] >= n)
            return NAN;
    }
    for (int64_t prev = 0;; ) {
        int64_t b = n, amax = 0;
        for (int64_t k = 0; k < m; k++) {
            int64_t bk = ch[3 * k + 1];
            if (bk > prev && bk < b) b = bk;
        }
        if (b == n) return total;
        for (int64_t k = 0; k < m; k++) {
            if (ch[3 * k + 1] != b) continue;
            int64_t a = ch[3 * k];
            w[a * n + b] = ch[3 * k + 2] ? hop[b - a] : INFINITY;
            if (a > amax) amax = a;
        }
        for (int64_t i = 0; i <= amax; i++) {
            double *row = s + i * n;
            for (int64_t j = b; j < n; j++) {
                total -= row[j];
                row[j] = INFINITY;
            }
        }
        for (int64_t u = 0; u < b; u++) {
            int64_t top = u < amax ? u : amax;
            for (int64_t v = b; v < n; v++) {
                double c = w[u * n + v];
                if (isinf(c)) continue;
                const double *tail = s + v * n;
                for (int64_t i = 0; i <= top; i++) {
                    double head = s[i * n + u] + c;
                    double *row = s + i * n;
                    for (int64_t j = b; j < n; j++) {
                        double via = head + tail[j];
                        row[j] = via < row[j] ? via : row[j];
                    }
                }
            }
        }
        for (int64_t i = 0; i <= amax; i++) {
            for (int64_t j = b; j < n; j++) total += s[i * n + j];
        }
        prev = b;
    }
}
"""

#: Compile and link flags.  Part of the cache key, so a flag change
#: rebuilds.  Bit-identity hardening: no re-association, no FMA fusing.
CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")
LDLIBS = ("-lm",)

_lock = threading.Lock()
_kernels = None


def _find_compiler():
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> str:
    """The per-user build cache: ``$REPRO_NATIVE_CACHE``, else
    ``$XDG_CACHE_HOME/repro/native``, else ``~/.cache/repro/native``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "native")


def _so_name() -> str:
    key = "\0".join((C_SOURCE, *CFLAGS, *LDLIBS))
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    return f"repro_native_{digest}.so"


def _so_path() -> str:
    return os.path.join(cache_dir(), _so_name())


def _compile(so_path: str) -> None:
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    cache = os.path.dirname(so_path)
    os.makedirs(cache, exist_ok=True)
    # Build in a private temp dir, then atomically publish: concurrent
    # worker processes may race to compile and must not see a torn .so.
    build = tempfile.mkdtemp(prefix="build-", dir=cache)
    try:
        src = os.path.join(build, "repro_native.c")
        with open(src, "w") as fh:
            fh.write(C_SOURCE)
        out = os.path.join(build, _so_name())
        cmd = [cc, *CFLAGS, src, "-o", out, *LDLIBS]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"C compile failed ({' '.join(cmd)}): {proc.stderr.strip()}"
            )
        os.replace(out, so_path)
    finally:
        shutil.rmtree(build, ignore_errors=True)


class _Kernels:
    """ctypes wrappers enforcing the dtype/layout contract per call."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.repro_row_dist_batch.argtypes = [ptr, i64, i64]
        lib.repro_row_dist_batch.restype = None
        lib.repro_fw_batch.argtypes = [ptr, ptr, i64, i64]
        lib.repro_fw_batch.restype = None
        lib.repro_engine_apply.argtypes = [ptr, ptr, ptr, i64, ptr, i64, ctypes.c_double]
        lib.repro_engine_apply.restype = ctypes.c_double
        self._lib = lib

    @staticmethod
    def _require(arr: np.ndarray, dtype) -> None:
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ValueError(
                f"native kernels need C-contiguous {np.dtype(dtype).name} "
                f"arrays, got {arr.dtype} with flags {arr.flags}"
            )

    def row_dist_batch(self, d: np.ndarray) -> None:
        self._require(d, np.float64)
        self._lib.repro_row_dist_batch(d.ctypes.data, d.shape[0], d.shape[1])

    def fw_batch(self, d: np.ndarray, nh: np.ndarray) -> None:
        self._require(d, np.float64)
        self._require(nh, np.int64)
        self._lib.repro_fw_batch(
            d.ctypes.data, nh.ctypes.data, d.shape[0], d.shape[1]
        )

    def engine_apply(self, s: np.ndarray, w: np.ndarray, hop: np.ndarray):
        """Bind the engine kernel to an ``(n, n)`` layer ``s``, weight
        matrix ``w`` and ``n`` link costs ``hop``, checked once.  The
        returned ``apply(changes, total)`` applies ``(a, b, is_add)``
        triples in place and returns the new running total."""
        n = len(hop)
        for arr, shape in ((s, (n, n)), (w, (n, n)), (hop, (n,))):
            self._require(arr, np.float64)
            if arr.shape != shape:
                raise ValueError(f"engine kernel needs shape {shape}, got {arr.shape}")
        fn, args = self._lib.repro_engine_apply, (s.ctypes.data, w.ctypes.data, hop.ctypes.data, n)

        def apply(changes, total: float) -> float:
            flat = [x for a, b, add in changes for x in (a, b, 1 if add else 0)]
            out = fn(*args, (ctypes.c_int64 * len(flat))(*flat), len(changes), total)
            if out != out:
                raise ValueError(f"not express links of an {n}-router row: {changes}")
            return out

        apply.arrays = (s, w, hop)  # the buffers must outlive the binding
        return apply


def load() -> _Kernels:
    """The kernel namespace, compiling into the cache on first use.

    A cached file that does not load is rebuilt once, through the same
    temp-dir + ``os.replace`` publish, and the rebuilt file is loaded;
    only a failing rebuild (or a second failing load) propagates.
    """
    global _kernels
    with _lock:
        if _kernels is None:
            so_path = os.path.abspath(_so_path())
            lib = None
            if os.path.exists(so_path):
                try:
                    lib = ctypes.CDLL(so_path)
                except OSError:
                    pass  # truncated or foreign file: rebuild it below
            if lib is None:
                _compile(so_path)
                lib = ctypes.CDLL(so_path)
            _kernels = _Kernels(lib)
        return _kernels
