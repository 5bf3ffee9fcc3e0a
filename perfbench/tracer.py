"""Span recorder that wraps the package's layer boundaries from outside.

A target names a function by its defining module and attribute, e.g.
("nonstandard", "basis_matrix"). Installing the tracer looks the name up
at that moment and replaces it in every package module (and the package
namespace itself) that holds the same object, so both the names a module
imports from the layer below and the module's own internal calls are
recorded. A name that no longer exists is reported as absent instead of
raising, so the tracer keeps working while the package is refactored.

Spans are aggregated in memory per name (calls, inclusive time, self
time = inclusive time minus the time covered by child spans) rather
than stored one by one: the exact layer is called hundreds of thousands
of times per run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

PACKAGE = "wigner_nonstd"
MODULES = ("halfint", "standard_wra", "quon", "su2gen", "nonstandard", "verify", "cli")


def _rows_arg(args, kwargs, result):
    rows = kwargs.get("rows", args[1] if len(args) > 1 else ())
    return {"cli.rows": len(rows)}


def _text_bytes(args, kwargs, result):
    text = kwargs.get("text", args[0] if args else "")
    return {"cli.bytes": len(text.encode("utf-8"))}


def _check_count(args, kwargs, result):
    return {"verify.checks": len(result)}


def _rep_k(args, kwargs, result):
    rep = kwargs.get("rep", args[0] if args else None)
    return getattr(rep, "k", None)


# (module, attribute, counter hook, detail-key hook). The counter hook
# adds to named counts; the detail hook splits the span's time by a key.
TARGETS: tuple[tuple[str, str, object, object], ...] = (
    ("cli", "main", None, None),
    ("cli", "write_output", _text_bytes, None),
    ("cli", "_table_json", _rows_arg, None),
    ("cli", "_table_csv", _rows_arg, None),
    ("cli", "_cg_table", None, None),
    ("cli", "_fbar_table", None, None),
    ("cli", "_standard_table", None, None),
    ("verify", "run_suites", None, None),
    ("verify", "report_dict", None, None),
    ("quon", "build_rep", None, None),
    ("quon", "build_ur", None, None),
    ("quon", "build_v", None, None),
    ("quon", "relation_residuals", None, _rep_k),
    ("quon", "cyclicity_residual", None, None),
    ("su2gen", "build_spin_ops", None, None),
    ("su2gen", "verify_su2", None, None),
    ("su2gen", "casimir_identities", None, None),
    ("su2gen", "quon_restriction_report", None, None),
    ("nonstandard", "basis_matrix", None, None),
    ("nonstandard", "cg_nonstandard_tensor", None, None),
    ("nonstandard", "fbar_tensor", None, None),
    ("nonstandard", "verify_cg_orthonormality", None, None),
    ("nonstandard", "verify_eigenbasis", None, None),
    ("nonstandard", "verify_fbar_symmetry", None, None),
    ("nonstandard", "recoupling_invariance_check", None, None),
    ("nonstandard", "wigner_eckart_check", None, None),
    ("standard_wra", "cg_tensor", None, None),
    ("standard_wra", "threejm_tensor", None, None),
    ("standard_wra", "cg", None, None),
    ("standard_wra", "threejm", None, None),
    ("standard_wra", "sixj", None, None),
    ("standard_wra", "ninej", None, None),
)

# lru-cached functions whose hit ratio is read, where cache_info() exists
CACHED = (("nonstandard", "cg_nonstandard_tensor"), ("nonstandard", "fbar_tensor"))


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}    # name -> [calls, total_s, self_s]
        self.details: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.cache: dict[str, dict[str, int]] = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, count_hook=None, detail_hook=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        get_stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = get_stack()
            frame = [0.0]               # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            if count_hook is not None:
                for key, value in count_hook(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            if detail_hook is not None:
                key = str(detail_hook(args, kwargs, result))
                bucket = self.details.setdefault(name, {})
                bucket[key] = bucket.get(key, 0.0) + elapsed
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package]
        for short in MODULES:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{short}"))
            except ImportError:
                self.absent.append(short)
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        for short, attr, count_hook, detail_hook in TARGETS:
            name = f"{short}.{attr}"
            original = getattr(by_name.get(short), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._originals[name] = original
            self._replace(modules, original, self.wrap(name, original, count_hook, detail_hook))
        self._wrap_suites(by_name.get("verify"))

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _wrap_suites(self, verify) -> None:
        suites = getattr(verify, "SUITES", None)
        if suites is None:
            self.absent.append("verify.SUITES")
            return
        wrapped = []
        for suite in suites:
            label = suite.__name__.removesuffix("_suite")
            wrapped.append(self.wrap(f"verify.{label}", suite, _check_count))
        self._patched.append((verify, "SUITES", suites))
        verify.SUITES = tuple(wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def read_caches(self) -> None:
        for short, attr in CACHED:
            name = f"{short}.{attr}"
            info = getattr(self._originals.get(name), "cache_info", None)
            if info is None:
                self.absent.append(f"{name}.cache_info")
                continue
            current = info()
            self.cache[name] = {"hits": current.hits, "misses": current.misses}

    def dump(self) -> dict:
        return {
            "stats": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for name, s in self.stats.items()},
            "details": self.details,
            "counts": self.counts,
            "cache": self.cache,
            "absent": self.absent,
        }
