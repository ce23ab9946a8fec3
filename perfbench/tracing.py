"""Spans and counters around the package's public entry points.

The tracer patches functions from outside the package; nothing in ``src/``
changes.  A function object is replaced in every ``stringymass`` module
namespace and class that holds it, because modules import names directly
(``cli`` calls its own ``crepant_conditions``, ``cyclic`` its own
``poincare_realize``).  ``uninstall`` puts every original back.

Span entry points record (name, start, end, parent) into flat arrays kept in
memory; hot leaves only count calls.  ``layer_metrics`` turns the spans and
counters into the per-layer metrics, each normalised per job.
"""

from __future__ import annotations

import gzip
import math
import sys
from array import array
from time import perf_counter

JOB = "job"

# Span name -> (module, owner attribute or None, function attribute).
SPANNED = {
    "cli.main": ("stringymass.cli", None, "main"),
    "cli.emit": ("stringymass.cli", None, "emit"),
    "motivic.MotivicRational": ("stringymass.motivic", "MotivicRational", "__init__"),
    "motivic.poincare_realize": ("stringymass.motivic", None, "poincare_realize"),
    "cyclic.WildCyclicRep.mass": ("stringymass.cyclic", "WildCyclicRep", "mass"),
    "cyclic.TameCyclicRep.mass": ("stringymass.cyclic", "TameCyclicRep", "mass"),
    "cyclic.uniformity_check": ("stringymass.cyclic", None, "uniformity_check"),
    "cyclic.crepant_conditions": ("stringymass.cyclic", None, "crepant_conditions"),
    "stringy.from_dict": ("stringymass.stringy", "SncStrataData", "from_dict"),
    "stringy.from_json": ("stringymass.stringy", "SncStrataData", "from_json"),
    "stringy.stringy_motif": ("stringymass.stringy", None, "stringy_motif"),
    "stringy.stringy_result": ("stringymass.stringy", None, "stringy_result"),
    "localfields.of_order": ("stringymass.localfields", "FiniteField", "of_order"),
    "localfields.enumerate_tame_classes": ("stringymass.localfields", None, "enumerate_tame_classes"),
    "localfields.aut_order": ("stringymass.localfields", None, "aut_order"),
    "localfields.serre_mass": ("stringymass.localfields", None, "serre_mass"),
}

# Spans whose arguments feed a metric; Tracer._before reads them.
HOOKED = {"motivic.MotivicRational", "cyclic.WildCyclicRep.mass", "stringy.stringy_motif"}

# Counter name -> (module, owner attribute or None, function attribute).
COUNTED = {
    "elem_mul": ("stringymass.motivic", "MotivicElement", "__mul__"),
    "elem_add": ("stringymass.motivic", "MotivicElement", "__add__"),
    "field_mul": ("stringymass.localfields", "FiniteField", "mul"),
    "field_pow": ("stringymass.localfields", "FiniteField", "pow"),
    "units": ("stringymass.localfields", "FiniteField", "units"),
    "factor": ("stringymass.stringy", None, "batyrev_factor"),
}

# (metric, unit, better); times and counts are per job.
LAYER_METRICS = (
    ("cli.main_s", "s/job", "lower"),
    ("cli.self_s", "s/job", "lower"),
    ("cli.emit_s", "s/job", "lower"),
    ("cli.out_bytes", "bytes/job", "lower"),
    ("cyclic.wild_mass_calls", "count/job", "lower"),
    ("cyclic.wild_mass_s", "s/job", "lower"),
    ("cyclic.reps_per_mass_call", "ratio", "higher"),
    ("cyclic.uniformity_s", "s/job", "lower"),
    ("cyclic.crepant_s", "s/job", "lower"),
    ("cyclic.partitions", "count/job", "lower"),
    ("cyclic.tame_mass_calls", "count/job", "lower"),
    ("cyclic.tame_mass_s", "s/job", "lower"),
    ("stringy.parse_s", "s/job", "lower"),
    ("stringy.motif_s", "s/job", "lower"),
    ("stringy.motif_self_s", "s/job", "lower"),
    ("stringy.terms", "count/job", "lower"),
    ("stringy.factor_calls", "count/job", "lower"),
    ("stringy.realize_s", "s/job", "lower"),
    ("motivic.reduce_calls", "count/job", "lower"),
    ("motivic.reduce_s", "s/job", "lower"),
    ("motivic.elem_mul_calls", "count/job", "lower"),
    ("motivic.elem_add_calls", "count/job", "lower"),
    ("motivic.realize_calls", "count/job", "lower"),
    ("motivic.realize_s", "s/job", "lower"),
    ("motivic.max_ramification", "count", "lower"),
    ("motivic.max_udegree", "count", "lower"),
    ("motivic.max_coeff_bits", "bits", "lower"),
    ("localfields.field_setup_s", "s/job", "lower"),
    ("localfields.enumerate_s", "s/job", "lower"),
    ("localfields.aut_order_s", "s/job", "lower"),
    ("localfields.enumerations_per_job", "count/job", "lower"),
    ("localfields.unit_scans_per_job", "count/job", "lower"),
    ("localfields.field_mul_calls", "count/job", "lower"),
    ("localfields.field_pow_calls", "count/job", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _elements(value):
    """The MotivicElement parts of a MotivicRational constructor argument."""
    return [value] if hasattr(value, "ramification_index") else []


class Tracer:
    def __init__(self):
        self.names = [JOB, *SPANNED]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.partitions = 0
        self.terms = 0
        self.max_ramification = 0
        self.max_udegree = 0
        self.max_coeff_bits = 0
        self.job_reps: set = set()
        self.distinct_reps = 0
        self.out_bytes = 0
        self.jobs = 0
        self._patches: list = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self.stack.pop()

    def begin_job(self) -> int:
        self.jobs += 1
        return self._open(self.name_id[JOB])

    def end_job(self, index: int, out_bytes: int) -> None:
        self._close(index)
        self.out_bytes += out_bytes
        self.distinct_reps += len(self.job_reps)
        self.job_reps.clear()

    # -- hooks run before a spanned call, outside its span -----------------------

    def _before(self, name: str, args) -> None:
        if name == "motivic.MotivicRational":
            elems = [e for arg in args[1:] for e in _elements(arg)]
            nonzero = [e for e in elems if not e.is_zero]
            if nonzero:
                r = math.lcm(*(e.ramification_index for e in nonzero))
                self.max_ramification = max(self.max_ramification, r)
                span = max((e.max_exponent - e.min_exponent) * r for e in nonzero)
                self.max_udegree = max(self.max_udegree, int(span))
                bits = max(abs(c).bit_length() for e in nonzero for c in e.terms.values())
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
        elif name == "cyclic.WildCyclicRep.mass":
            self.job_reps.add(args[0])
        elif name == "stringy.stringy_motif":
            self.terms += len(args[0].strata)

    # -- patching ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_id[name]
        hooked = name in HOOKED

        def traced(*args, **kwargs):
            if hooked:
                self._before(name, args)
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _partition_wrapper(self, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.partitions += 1
                yield item

        return counted

    def _replace(self, original, replacement) -> None:
        """Swap a function object everywhere the package holds a reference to it."""
        holders = [module for name, module in list(sys.modules.items())
                   if name == "stringymass" or name.startswith("stringymass.")]
        holders += [value for module in holders[:] for value in vars(module).values()
                    if isinstance(value, type) and value.__module__.startswith("stringymass")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)
                    self._patches.append((holder, attr, original))
                elif isinstance(value, classmethod) and value.__func__ is original:
                    setattr(holder, attr, classmethod(replacement))
                    self._patches.append((holder, attr, value))

    @staticmethod
    def _lookup(spec):
        module_name, owner, attr = spec
        target = sys.modules[module_name]
        if owner is not None:
            target = getattr(target, owner)
            value = vars(target)[attr]
            return value.__func__ if isinstance(value, classmethod) else value
        return getattr(target, attr)

    def install(self) -> None:
        import stringymass.cli  # noqa: F401  (loads every module the specs name)

        for name, spec in SPANNED.items():
            original = self._lookup(spec)
            self._replace(original, self._span_wrapper(name, original))
        for name, spec in COUNTED.items():
            original = self._lookup(spec)
            self._replace(original, self._count_wrapper(name, original))
        original = self._lookup(("stringymass.cyclic", None, "block_decompositions"))
        self._replace(original, self._partition_wrapper(original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        count = len(names)
        ids = self.name_id
        child_time = [0.0] * count
        under_result = bytearray(count)
        in_parse = bytearray(count)
        parse_ids = {ids["stringy.from_dict"], ids["stringy.from_json"]}
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
                under_result[i] = under_result[parent] or names[parent] == ids["stringy.stringy_result"]
                in_parse[i] = in_parse[parent] or names[parent] in parse_ids
        total = [0.0] * len(self.names)
        self_total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        parse_s = realize_under_result = 0.0
        realize_id = ids["motivic.poincare_realize"]
        for i in range(count):
            duration = ends[i] - starts[i]
            total[names[i]] += duration
            self_total[names[i]] += duration - child_time[i]
            calls[names[i]] += 1
            if names[i] in parse_ids and not in_parse[i]:
                parse_s += duration
            if names[i] == realize_id and under_result[i]:
                realize_under_result += duration

        jobs = max(self.jobs, 1)

        def per_job(value):
            return value / jobs

        def span_s(name):
            return per_job(total[ids[name]])

        def span_calls(name):
            return per_job(calls[ids[name]])

        wild_calls = calls[ids["cyclic.WildCyclicRep.mass"]]
        values = {
            "cli.main_s": span_s("cli.main"),
            "cli.self_s": per_job(self_total[ids["cli.main"]]),
            "cli.emit_s": span_s("cli.emit"),
            "cli.out_bytes": per_job(self.out_bytes),
            "cyclic.wild_mass_calls": span_calls("cyclic.WildCyclicRep.mass"),
            "cyclic.wild_mass_s": span_s("cyclic.WildCyclicRep.mass"),
            "cyclic.reps_per_mass_call": self.distinct_reps / wild_calls if wild_calls else 0.0,
            "cyclic.uniformity_s": span_s("cyclic.uniformity_check"),
            "cyclic.crepant_s": span_s("cyclic.crepant_conditions"),
            "cyclic.partitions": per_job(self.partitions),
            "cyclic.tame_mass_calls": span_calls("cyclic.TameCyclicRep.mass"),
            "cyclic.tame_mass_s": span_s("cyclic.TameCyclicRep.mass"),
            "stringy.parse_s": per_job(parse_s),
            "stringy.motif_s": span_s("stringy.stringy_motif"),
            "stringy.motif_self_s": per_job(self_total[ids["stringy.stringy_motif"]]),
            "stringy.terms": per_job(self.terms),
            "stringy.factor_calls": per_job(self.counts["factor"]),
            "stringy.realize_s": per_job(realize_under_result),
            "motivic.reduce_calls": span_calls("motivic.MotivicRational"),
            "motivic.reduce_s": span_s("motivic.MotivicRational"),
            "motivic.elem_mul_calls": per_job(self.counts["elem_mul"]),
            "motivic.elem_add_calls": per_job(self.counts["elem_add"]),
            "motivic.realize_calls": span_calls("motivic.poincare_realize"),
            "motivic.realize_s": span_s("motivic.poincare_realize"),
            "motivic.max_ramification": self.max_ramification,
            "motivic.max_udegree": self.max_udegree,
            "motivic.max_coeff_bits": self.max_coeff_bits,
            "localfields.field_setup_s": span_s("localfields.of_order"),
            "localfields.enumerate_s": span_s("localfields.enumerate_tame_classes"),
            "localfields.aut_order_s": span_s("localfields.aut_order"),
            "localfields.enumerations_per_job": span_calls("localfields.enumerate_tame_classes"),
            "localfields.unit_scans_per_job": per_job(self.counts["units"]),
            "localfields.field_mul_calls": per_job(self.counts["field_mul"]),
            "localfields.field_pow_calls": per_job(self.counts["field_pow"]),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    def write_spans(self, path: str) -> int:
        """Write every span as CSV (gzip), with the index of its job's root span."""
        job_of = array("i", [0]) * len(self.span_name)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("span,name,start_s,end_s,parent,job\n")
            for i, (name_id, parent) in enumerate(zip(self.span_name, self.span_parent)):
                job_of[i] = i if parent < 0 else job_of[parent]
                out.write(f"{i},{self.names[name_id]},{self.span_start[i]:.9f},"
                          f"{self.span_end[i]:.9f},{parent},{job_of[i]}\n")
        return len(self.span_name)
