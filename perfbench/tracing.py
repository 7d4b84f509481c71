"""Per-layer tracing of the tracemoments package from outside the package.

Functions are wrapped where they are looked up: `enumeration` imports
`trim_route` and `weight_of_exponents` by name, so those are wrapped in the
`enumeration` namespace, while `trim_route` reaches `balanced_leaf_labels`
through the `graphs` globals.  `verify` and `cli` see `closedform` through a
module attribute, which is replaced by a proxy whose public functions are
wrapped, so calls inside `closedform` stay untraced.

Three kinds of wrapper:
- span: one span per call (request, name, start, end, parent), with busy
  and self time; for functions called per request or per (l, r, b).
- timed: call count and accumulated time, no span; for per-walk functions.
- counted: call count only; for the hottest per-walk functions.
Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
import types
from collections import Counter, defaultdict
from time import perf_counter

SPAN, TIMED, COUNTED = "span", "timed", "counted"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.requests: list[str] = []  # argv of each request, by request id
        self.request: int | None = None
        self._stack: list[list] = []  # [name, child time]
        self._census_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str, after=None):
        stack = self._stack
        calls, busy, self_time = self.calls, self.busy, self.self_time

        if kind == COUNTED:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return counted

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                busy[name] += duration
                self_time[name] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if kind == SPAN:
                    self.spans.append(
                        (self.request, name, start, end, parent and parent[0])
                    )
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, kind: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, kind, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks computing counters from arguments and results ---------------

    def _on_census(self, args, kwargs, result) -> None:
        self._census_keys.add(tuple(args[:3]))
        self.counters["enumeration.route_pairs"] += sum(result.values())

    def _on_clear(self, args, kwargs, result) -> None:
        self.counters["enumeration.signature_census.distinct"] += len(self._census_keys)
        self._census_keys.clear()

    def _on_weight(self, args, kwargs, result) -> None:
        if result:
            self.counters["weights.weight_of_exponents.nonzero"] += 1

    def _on_sample(self, args, kwargs, result) -> None:
        config = args[0]
        rows, cols = sorted((config.p, config.n))
        count = config.replications
        max_l = max(config.l_list)
        values = count * rows * cols
        self.counters["montecarlo.values_drawn"] += values
        self.counters["montecarlo.bytes_drawn"] += 8 * values
        # Gram X X^T: 2 r^2 c per replication; each further power: 2 r^3
        self.counters["montecarlo.matmul_flops"] += count * (
            2 * rows * rows * cols + (max_l - 1) * 2 * rows**3
        )

    # -- installation --------------------------------------------------------

    def install(self, tm) -> None:
        """Wrap the layer functions of the imported `tracemoments` package."""
        cli, enum, graphs, mc = tm.cli, tm.enumeration, tm.graphs, tm.montecarlo
        verify, weights, closedform = tm.verify, tm.weights, tm.closedform
        for fn in ("exact_trace_moment", "exact_trace_covariance", "inner_weight_sum",
                   "inner_weight_sum_affine", "covariance_inner_sum", "census_by_seed",
                   "census_double", "census_sprouting"):
            self.patch(enum, fn, f"enumeration.{fn}", SPAN)
        self.patch(enum, "signature_census", "enumeration.signature_census", SPAN,
                   self._on_census)
        self.patch(enum, "clear_caches", "enumeration.clear_caches", COUNTED,
                   self._on_clear)
        for owner in (enum, graphs):
            self.patch(owner, "trim_route", "graphs.trim_route", TIMED)
            self.patch(owner, "classify_leaf_free_route",
                       "graphs.classify_leaf_free_route", COUNTED)
        self.patch(enum, "trim_double", "graphs.trim_double", COUNTED)
        self.patch(graphs, "balanced_leaf_labels", "graphs.balanced_leaf_labels", COUNTED)
        for owner in (enum, weights):
            self.patch(owner, "weight_of_exponents", "weights.weight_of_exponents",
                       COUNTED, self._on_weight)
        self.patch(mc, "simulate", "montecarlo.simulate", SPAN)
        self.patch(mc, "oracle_references", "montecarlo.oracle_references", SPAN)
        self.patch(mc, "sample_traces", "montecarlo.sample_traces", SPAN, self._on_sample)
        self.patch(mc, "_draw_batch", "montecarlo._draw_batch", TIMED)
        self.patch(verify, "run_suite", "verify.run_suite", SPAN)
        proxy = types.SimpleNamespace(**vars(closedform))
        for attr, value in vars(closedform).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == closedform.__name__):
                setattr(proxy, attr, self._wrap(f"closedform.{attr}", value, SPAN))
        for owner in (verify, cli):
            self._patches.append((owner, "closedform", closedform))
            owner.closedform = proxy

    def wrap_main(self, main):
        """Wrap `cli.main` so that each call opens a new request id."""
        traced = self._wrap("cli.main", main, SPAN)

        def request(argv):
            self.request = len(self.requests)
            self.requests.append(" ".join(argv))
            return traced(argv)

        return request

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        c, b, s = self.calls, self.busy, self.self_time
        weighings = c["weights.weight_of_exponents"]
        census_calls = c["enumeration.signature_census"]
        distinct = self.counters["enumeration.signature_census.distinct"] + len(
            self._census_keys
        )
        closed = sum(v for k, v in b.items() if k.startswith("closedform."))
        return {
            "enumeration.signature_census.busy_s": (b["enumeration.signature_census"], "s"),
            "enumeration.signature_census.calls": (census_calls, "count"),
            "enumeration.signature_census.cache_hits": (census_calls - distinct, "count"),
            "enumeration.route_pairs": (self.counters["enumeration.route_pairs"], "count"),
            "enumeration.inner_weight_sum.self_s": (s["enumeration.inner_weight_sum"], "s"),
            "enumeration.exact_trace_moment.self_s": (s["enumeration.exact_trace_moment"], "s"),
            "enumeration.exact_trace_covariance.busy_s":
                (b["enumeration.exact_trace_covariance"], "s"),
            "enumeration.census_by_seed.busy_s": (b["enumeration.census_by_seed"], "s"),
            "enumeration.census_double.busy_s": (b["enumeration.census_double"], "s"),
            "enumeration.census_sprouting.busy_s": (b["enumeration.census_sprouting"], "s"),
            "weights.weight_of_exponents.calls": (weighings, "count"),
            "weights.weight_of_exponents.nonzero_ratio": (
                self.counters["weights.weight_of_exponents.nonzero"] / weighings
                if weighings else 0.0, "ratio"),
            "graphs.trim_route.busy_s": (b["graphs.trim_route"], "s"),
            "graphs.trim_route.calls": (c["graphs.trim_route"], "count"),
            "graphs.balanced_leaf_labels.calls": (c["graphs.balanced_leaf_labels"], "count"),
            "graphs.trim_double.calls": (c["graphs.trim_double"], "count"),
            "graphs.classify_leaf_free_route.calls":
                (c["graphs.classify_leaf_free_route"], "count"),
            "closedform.busy_s": (closed, "s"),
            "montecarlo.sample_traces.busy_s": (b["montecarlo.sample_traces"], "s"),
            "montecarlo._draw_batch.busy_s": (b["montecarlo._draw_batch"], "s"),
            "montecarlo.simulate.self_s": (s["montecarlo.simulate"], "s"),
            "montecarlo.oracle_references.busy_s": (b["montecarlo.oracle_references"], "s"),
            "montecarlo.batches": (c["montecarlo._draw_batch"], "count"),
            "montecarlo.values_drawn": (self.counters["montecarlo.values_drawn"], "computed"),
            "montecarlo.bytes_drawn": (self.counters["montecarlo.bytes_drawn"], "B.computed"),
            "montecarlo.matmul_flops":
                (self.counters["montecarlo.matmul_flops"], "flop.computed"),
            "verify.run_suite.self_s": (s["verify.run_suite"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.output_bytes": (self.counters["cli.output_bytes"], "B"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for request, argv in enumerate(self.requests):
                fh.write(json.dumps({"request": request, "argv": argv}) + "\n")
            for request, name, start, end, parent in self.spans:
                fh.write(json.dumps({"request": request, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
