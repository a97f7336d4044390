"""
Spans around the calls into each module of forgottenmonoid, installed from
the benchmark's side by swapping module attributes for timing wrappers.

A span is recorded where a call crosses from one module into another (or
from the benchmark into the package).  A call from inside the same module
passes straight through, so its time counts as the caller's self time,
except for the functions in INNER, which per-layer metrics name.  Spans are
aggregated per (parent, function) pair in memory; no record is kept per
call.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

LAYERS = ("perms", "forgotten", "words", "qsym", "verify", "cli")

INNER = {
    "forgotten": {"class_key", "class_closure", "elementary_moves", "lambda_members", "v_members"},
    "words": {"word_normal_form", "word_closure", "commute_check"},
    "qsym": {"ribbon_expansion", "compositions_with_maj", "ribbon_schur", "class_qsym_sum", "foata"},
}

# The per-layer metric schema is fixed, so later changes to the package are
# measured against the same names; a check or subcommand that no longer
# exists reads 0.
VERIFY_CHECKS = (
    "move_soundness", "key_matches_closure", "class_count", "small_tables",
    "partition_totals", "boundary_elements", "inverse_on_lex", "schuetzenberger_key",
    "schuetzenberger_membership", "coforgotten", "reversal_closure_classes",
    "lex_lists", "lex_count", "lex_bruteforce", "canonical_lexmin", "form_formulas",
    "section5_examples", "lambda_chain", "lambda_members_examples",
    "lambda_v_membership", "insertion_table", "insertion_exhaustive",
    "word_move_soundness", "restriction_consistency", "normal_form_invariance",
    "commutation", "reversal_closure_words", "sign_pairing", "ribbon_theorem",
    "s8_expansions", "multiplicity_freeness", "composition_partition",
    "foata_core", "ns_properties", "ns_image",
)
SUBCOMMANDS = (
    "classes", "class-of", "canonical", "insert", "ribbons", "phi", "ns",
    "commute", "confluence", "verify",
)


class Tracer:
    def __init__(self, api):
        self.api = api
        self.records = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts = defaultdict(int)
        self.stack = [["bench", 0.0, None]]
        self.saved: list[tuple[dict, str, object]] = []

    def _hooks(self):
        counts, api = self.counts, self.api
        nf_cache = api.words._normal_form_cache

        def windows(args, result):
            p, pattern = args[0], args[1]
            if len(pattern) <= len(p):
                counts["perms.pattern_windows"] += math.comb(len(p), len(pattern))

        def closure(layer):
            def hook(args, result):
                counts[f"{layer}.closure_states"] += len(result)
            return hook

        def shape(args, result):
            counts["forgotten.shape_subsets_scanned"] += 1 << (args[0].n - 1)
            counts["forgotten.shape_members"] += len(result)

        def maj(args, result):
            counts["qsym.maj_subsets_scanned"] += 1 << (args[0] - 1)
            counts["qsym.maj_members"] += len(result)

        def normal_form(args):
            counts["words.normal_form_cache_hits"] += tuple(args[0]) in nf_cache

        def exit_code(args, result):
            counts["cli.nonzero_exits"] += result != 0

        return {
            "perms.avoids_pattern": (None, windows),
            "forgotten.class_closure": (None, closure("forgotten")),
            "forgotten.lambda_members": (None, shape),
            "forgotten.v_members": (None, shape),
            "words.word_closure": (None, closure("words")),
            "words.word_normal_form": (normal_form, None),
            "qsym.compositions_with_maj": (None, maj),
            "cli.main": (None, exit_code),
        }

    def _wrap(self, layer, name, fn, before, after, always):
        stack, records, clock = self.stack, self.records, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[2] == layer and not always:
                return fn(*args, **kwargs)
            if before:
                before(args)
            frame = [name, 0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record = records[parent[0], name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if after:
                after(args, result)
            return result
        return traced

    def install(self, entry: dict) -> None:
        """Wrap the package's functions in every namespace that refers to
        them: the package modules, the package root, and `entry`."""
        hooks = self._hooks()
        modules = {layer: getattr(self.api, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or (layer == "cli" and attr != "main"):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                always = attr in INNER.get(layer, ())
                wrappers[id(obj)] = self._wrap(layer, name, obj, *hooks.get(name, (None, None)), always)
        for space in [vars(m) for m in modules.values()] + [vars(self.api.root), entry]:
            for attr, obj in list(space.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self.saved.append((space, attr, obj))
                    space[attr] = wrapper

    def uninstall(self) -> None:
        for space, attr, obj in reversed(self.saved):
            space[attr] = obj
        self.saved.clear()

    def _fn(self, name: str) -> tuple[int, float]:
        calls = self_s = 0.0
        for (_, child), (n, _, own) in self.records.items():
            if child == name:
                calls += n
                self_s += own
        return int(calls), self_s

    def _layer_self(self, layer: str) -> float:
        return sum(own for (_, child), (_, _, own) in self.records.items() if child.startswith(layer + "."))

    def spans(self) -> list[tuple[str, str, int, float, float]]:
        rows = [(parent, child, n, total, own) for (parent, child), (n, total, own) in self.records.items()]
        return sorted(rows, key=lambda row: -row[4])

    def metrics(self, api, caches: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the spans and counters of the traced batch."""
        out: dict[str, tuple[float, str]] = {}
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def fn(name, calls=True, self_s=True):
            n, own = self._fn(name)
            if calls:
                out[f"{name}.calls"] = (n, "count")
            if self_s:
                out[f"{name}.self_s"] = (own, "s")

        for layer in LAYERS:
            if layer != "cli":  # cli.self_s is main's self time, below
                out[f"{layer}.self_s"] = (self._layer_self(layer), "s")
        fn("perms.inversion_number")
        fn("perms.avoids_pattern")
        out["perms.pattern_windows"] = (c["perms.pattern_windows"], "count")

        for name in ("class_key", "class_closure", "insert"):
            fn(f"forgotten.{name}")
        out["forgotten.closure_states"] = (c["forgotten.closure_states"], "count")
        fn("forgotten.elementary_moves", self_s=False)
        out["forgotten.shape.self_s"] = (
            self._fn("forgotten.lambda_members")[1] + self._fn("forgotten.v_members")[1], "s")
        scanned = c["forgotten.shape_subsets_scanned"]
        out["forgotten.shape_subsets_scanned"] = (scanned, "count")
        out["forgotten.shape_hit_ratio"] = (ratio(c["forgotten.shape_members"], scanned), "ratio")

        fn("words.word_normal_form")
        nf_calls = self._fn("words.word_normal_form")[0]
        out["words.normal_form_cache_hit_ratio"] = (ratio(c["words.normal_form_cache_hits"], nf_calls), "ratio")
        out["words.normal_form_cache_entries"] = (len(api.words._normal_form_cache), "count")
        fn("words.word_closure", self_s=False)
        out["words.closure_states"] = (c["words.closure_states"], "count")
        fn("words.commute_check", calls=False)

        fn("qsym.ribbon_expansion")
        fn("qsym.compositions_with_maj", calls=False)
        scanned = c["qsym.maj_subsets_scanned"]
        out["qsym.maj_subsets_scanned"] = (scanned, "count")
        out["qsym.maj_hit_ratio"] = (ratio(c["qsym.maj_members"], scanned), "ratio")
        fn("qsym.ribbon_schur")
        fundamental = caches["qsym._fundamental"].cache_info()
        out["qsym.fundamental.cache_hit_ratio"] = (
            ratio(fundamental.hits, fundamental.hits + fundamental.misses), "ratio")
        out["qsym.fundamental.cache_entries"] = (fundamental.currsize, "count")
        out["qsym.ribbons_by_recoil.cache_entries"] = (
            caches["qsym._ribbons_by_recoil"].cache_info().currsize, "count")
        fn("qsym.class_qsym_sum", calls=False)
        fn("qsym.foata")

        partition = caches["verify.closure_partition"].cache_info()
        out["verify.closure_partition.cache_hit_ratio"] = (
            ratio(partition.hits, partition.hits + partition.misses), "ratio")

        # main's self time is what the CLI adds: argparse, handlers, JSON.
        calls, own = self._fn("cli.main")
        out["cli.calls"] = (calls, "count")
        out["cli.self_s"] = (own, "s")
        out["cli.nonzero_exits"] = (c["cli.nonzero_exits"], "count")
        return out
