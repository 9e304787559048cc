"""Spans and counts around artinalg's public functions, from outside.

`Tracer.installed()` wraps each function of `_targets()` and rebinds the
wrapper under every name that refers to the original in any loaded
`artinalg` module, because `cli`, `berger`, `kahler` and `algebra` import
with `from .x import y` and a nested call goes through the importing
module's binding.  `TruncatedHom.apply` is wrapped on the class.  Leaving
the context restores every binding.

A span is [name, start, end, parent index, job id]; spans stay in memory
until the caller writes them out.  A span's self time is its duration
minus the time its child spans cover.  Counts that the program does not
report itself are taken from arguments and results by `after` hooks,
whose own time is recorded as `bench.hook` spans so that it is not
charged to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

from artinalg import algebra, berger, cli, groebner, kahler, polycore, truncated
from artinalg.truncated import DEFAULT_COEFF_POOL, TruncatedHom


# -- count hooks: (counts, bound arguments, result) -------------------------


def _after_buchberger(counts, args, gb):
    counts["groebner.gb_polys"] += len(gb.polys)


def _after_build(counts, args, a):
    counts["algebra.dim_total"] += a.dim
    counts["algebra.mult_table_nnz"] += sum(
        1 for row in a.mult_table for entry in row for c in entry if c != 0
    )


def _after_search(counts, args, homs):
    strategy = args["strategy"]
    strategies = (strategy,) if isinstance(strategy, str) else tuple(strategy)
    budget, m = args["budget"], len(args["algebra"].variables)
    pool = args["coefficient_pool"] or DEFAULT_COEFF_POOL
    for strat in strategies:
        if strat == "monomial":
            counts["truncated.candidates"] += min(budget, args["n_max"] ** m * len(pool) ** m)
        elif strat == "dense-random":
            counts["truncated.candidates"] += budget
    counts["truncated.homs_kept"] += len(homs)


def _after_critdeg(counts, args, report):
    counts["berger.homs_scanned"] += report.homs_scanned


def _after_witness(counts, args, report):
    counts["berger.violations"] += len(report.violations)


class _NewModules:
    """kahler_module caches per algebra; count each module once."""

    def __init__(self):
        self.seen = weakref.WeakSet()

    def __call__(self, counts, args, km):
        if km not in self.seen:
            self.seen.add(km)
            counts["kahler.relations_rank"] += km.ambient_dim - km.dim


# (owner, attribute, span name, after hook).  Span names are the
# per-layer metric names without their suffix.
def _targets():
    return (
        (cli, "main", "cli.main", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        (cli, "cmd_homs", "cli.homs", None),
        (cli, "cmd_critdeg", "cli.critdeg", None),
        (cli, "cmd_tau", "cli.tau", None),
        (cli, "cmd_socle_kill", "cli.socle-kill", None),
        (polycore, "parse_polynomial", "polycore.parse", None),
        (groebner, "buchberger", "groebner.buchberger", _after_buchberger),
        (groebner, "normal_form", "groebner.normal_form", None),
        (groebner, "standard_monomials", "groebner.standard_monomials", None),
        (algebra, "build_algebra", "algebra.build", _after_build),
        (algebra, "nilradical", "algebra.nilradical", None),
        (algebra, "nilpotency_index", "algebra.nilpotency_index", None),
        (algebra, "socle", "algebra.socle", None),
        (algebra, "embedding_dimension", "algebra.embedding_dimension", None),
        (kahler, "kahler_module", "kahler.module", _NewModules()),
        (kahler, "h0_de_rham", "kahler.h0", None),
        (kahler, "embedding_obstruction", "kahler.obstruction", None),
        (kahler, "pushforward", "kahler.pushforward", None),
        (truncated, "search_homs", "truncated.search", _after_search),
        (truncated, "triangularize", "truncated.triangularize", None),
        (TruncatedHom, "apply", "truncated.apply", None),
        (berger, "critical_degree_search", "berger.critdeg", _after_critdeg),
        (berger, "surjection_to_q", "berger.surjection", None),
        (berger, "tau_membership_check", "berger.tau_check", _after_witness),
        (berger, "socle_kill_check", "berger.socle_kill", _after_witness),
        (berger, "tau_witness_gorenstein", "berger.socle_differential", _after_witness),
    )


HOOK = "bench.hook"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []

    def begin_job(self, job_id):
        """Tag the spans that follow with this job id."""
        self.job = job_id

    def _wrap(self, name, fn, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if after is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook = [HOOK, clock(), 0.0, parent, self.job]
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(counts, bound.arguments, result)
                hook[2] = clock()
                spans.append(hook)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped name in every loaded artinalg module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "artinalg" or n.startswith("artinalg."))]
        restore = []
        try:
            for owner, attr, name, after in _targets():
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, after)
                holders = [owner] if inspect.isclass(owner) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, original))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    # -- reduction ------------------------------------------------------------

    def totals(self, scale: dict):
        """Per span name: calls, inclusive and self reference seconds.

        `scale` maps a job id to its factor from measured to reference
        seconds.  Hook time is left out of both times: inclusive time
        excludes the hooks nested anywhere below a span, self time all of
        its children.
        """
        spans = self.spans
        cover = [0.0] * len(spans)
        hooks = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                cover[parent] += end - start
            if name == HOOK:
                while parent is not None:
                    hooks[parent] += end - start
                    parent = spans[parent][3]
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for (name, start, end, _, job), covered, hooked in zip(spans, cover, hooks):
            factor = scale[job]
            calls[name] += 1
            inclusive[name] += (end - start - hooked) * factor
            own[name] += (end - start - covered) * factor
        return calls, inclusive, own

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer, scale: dict) -> dict:
    """The per-layer metrics of one traced pass: (value, unit) by name."""
    calls, inclusive, own = tracer.totals(scale)
    counts = tracer.counts
    seconds = {
        "cli.report_s": own["cli.main"],
        "cli.analyze_s": inclusive["cli.analyze"],
        "cli.homs_s": inclusive["cli.homs"],
        "cli.critdeg_s": inclusive["cli.critdeg"],
        "cli.tau_s": inclusive["cli.tau"],
        "cli.socle-kill_s": inclusive["cli.socle-kill"],
        "polycore.parse_s": own["polycore.parse"],
        "groebner.buchberger_s": own["groebner.buchberger"],
        "groebner.normal_form_s": own["groebner.normal_form"],
        "groebner.standard_monomials_s": own["groebner.standard_monomials"],
        "algebra.build_s": own["algebra.build"],
        "algebra.nilradical_s": own["algebra.nilradical"],
        "algebra.nilpotency_index_s": own["algebra.nilpotency_index"],
        "algebra.socle_s": own["algebra.socle"],
        "algebra.embedding_dimension_s": own["algebra.embedding_dimension"],
        "kahler.module_s": own["kahler.module"],
        "kahler.h0_s": own["kahler.h0"],
        "kahler.obstruction_s": own["kahler.obstruction"],
        "kahler.pushforward_s": own["kahler.pushforward"],
        "truncated.search_s": own["truncated.search"],
        "truncated.triangularize_s": own["truncated.triangularize"],
        "truncated.apply_s": own["truncated.apply"],
        "berger.critdeg_s": own["berger.critdeg"],
        "berger.surjection_s": own["berger.surjection"],
        "berger.tau_check_s": own["berger.tau_check"],
        "berger.socle_kill_s": own["berger.socle_kill"] + own["berger.socle_differential"],
    }
    exact = {
        "polycore.parse_calls": calls["polycore.parse"],
        "groebner.buchberger_calls": calls["groebner.buchberger"],
        "groebner.gb_polys": counts["groebner.gb_polys"],
        "groebner.normal_form_calls": calls["groebner.normal_form"],
        "algebra.mult_table_nnz": counts["algebra.mult_table_nnz"],
        "algebra.dim_total": counts["algebra.dim_total"],
        "kahler.relations_rank": counts["kahler.relations_rank"],
        "kahler.pushforward_calls": calls["kahler.pushforward"],
        "truncated.candidates": counts["truncated.candidates"],
        "truncated.homs_kept": counts["truncated.homs_kept"],
        "truncated.apply_calls": calls["truncated.apply"],
        "berger.homs_scanned": counts["berger.homs_scanned"],
        "berger.violations": counts["berger.violations"],
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in exact.items()})
    candidates = exact["truncated.candidates"]
    metrics["truncated.yield"] = (
        exact["truncated.homs_kept"] / candidates if candidates else 0.0, "ratio")
    return metrics
