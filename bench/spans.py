"""In-memory span recorder for the traced benchmark pass.

The tracer wraps cyclo's public functions and a few hot methods from the
outside.  A function is replaced under every name that refers to it in a
loaded ``cyclo`` module, because a name imported into another module (for
example ``cyclo.ring.resultant``) is not reached by patching its home
module.  Each call records a span (name, parent span, start, end); spans are
kept in flat arrays and written out once, when the pass ends.  A span's self
time is its duration minus the durations of its direct children, which never
overlap because the workload runs in one thread.
"""

import functools
import json
import sys
import time
from array import array

# layer name -> (module, attribute) for functions, (module, class, attributes) for methods
FUNCTIONS = {
    "ntheory.totient": ("cyclo.ntheory", "totient"),
    "ntheory.factorize": ("cyclo.ntheory", "factorize"),
    "ntheory.is_prime": ("cyclo.ntheory", "is_prime"),
    "polys.cyclotomic_poly": ("cyclo.polys", "cyclotomic_poly"),
    "polys.resultant": ("cyclo.polys", "resultant"),
    "ring.decompose_unit": ("cyclo.ring", "decompose_unit"),
    "regularity.bernoulli": ("cyclo.regularity", "bernoulli"),
    # not reported; its span keeps the pair loop out of cli.run's self time
    "regularity.irregular_pairs": ("cyclo.regularity", "irregular_pairs"),
    "fermat.case_i_search": ("cyclo.fermat", "case_i_search"),
    "fermat.perfect_pth_root": ("cyclo.fermat", "perfect_pth_root"),
    "cli.run": ("cyclo.cli", "run"),
}
METHODS = {
    "ring.construct": ("cyclo.ring", "CycElt", ("__init__",)),
    "ring.mul": ("cyclo.ring", "CycElt", ("__mul__", "__rmul__")),
    "ring.galois": ("cyclo.ring", "CycElt", ("galois",)),
    "ring.trace": ("cyclo.ring", "CycElt", ("trace",)),
    "ring.norm": ("cyclo.ring", "CycElt", ("norm",)),
    "ring.inverse": ("cyclo.ring", "CycElt", ("inverse",)),
    "polys.divmod": ("cyclo.polys", "Poly", ("__divmod__",)),
    "polys.poly_mul": ("cyclo.polys", "Poly", ("__mul__", "__rmul__")),
}


def _int_bits(r):
    return abs(r).bit_length() if isinstance(r, int) else 0


def _coeff_bits(elt):
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in elt.coeffs),
        default=0,
    )


# layer name -> (metric, size of a return value); the metric is the largest size seen
OBSERVERS = {
    "polys.resultant": ("polys.resultant.result_bits_max", _int_bits),
    "ring.inverse": ("ring.inverse.coeff_bits_max", _coeff_bits),
}


class Tracer:
    """Records spans while installed; `uninstall` restores every patched name."""

    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches = []
        self.observed = {}
        self.searches = []

    def name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def begin(self, nid):
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer, fn):
        nid = self.name_id(layer)
        begin, finish = self.begin, self.finish
        observe = OBSERVERS.get(layer)
        observed = self.observed
        searches = self.searches if layer == "fermat.case_i_search" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if observe is not None:
                key, measure = observe
                observed[key] = max(observed.get(key, 0), measure(result))
            if searches is not None:
                searches.append((result.candidates_examined, result.pruned_by_filter))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target that the loaded cyclo modules still define."""
        modules = [m for name, m in sys.modules.items() if name == "cyclo" or name.startswith("cyclo.")]
        for layer, (home, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for layer, (home, cls_name, attrs) in METHODS.items():
            cls = getattr(sys.modules.get(home), cls_name, None)
            for attr in attrs:
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is not None:
                    self._patch(cls, attr, self._wrap(layer, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def by_layer(self):
        """{layer: (calls, self seconds)} over every recorded span."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, t in zip(self.name, self_times(self.start, self.end, self.parent)):
            calls[nid] += 1
            self_ns[nid] += t
        return {n: (calls[i], self_ns[i] / 1e9) for i, n in enumerate(self.names)}

    def write(self, path, header):
        """Write the spans as one JSON object of parallel columns; span ids are indexes."""
        doc = dict(header)
        doc.update(
            names=self.names,
            parent=self.parent.tolist(),
            name=self.name.tolist(),
            start_ns=self.start.tolist(),
            end_ns=self.end.tolist(),
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(start, end, parent):
    """Per-span self time in ns: duration minus the direct children's durations."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


SELF_TIMED = (
    "regularity.bernoulli", "fermat.perfect_pth_root", "fermat.case_i_search", "ring.mul",
    "ring.construct", "ring.galois", "ring.trace", "ring.norm", "ring.decompose_unit",
    "ring.inverse", "polys.divmod", "polys.poly_mul", "polys.resultant", "ntheory.totient",
    "ntheory.is_prime", "cli.run",
)
COUNTED = (
    "regularity.bernoulli", "ring.mul", "ring.construct", "polys.divmod", "polys.resultant",
    "polys.cyclotomic_poly", "ntheory.totient", "ntheory.factorize",
)


def _miss_ratio(cached):
    """misses / lookups of a functools cache over the whole pass, 0 without lookups."""
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    lookups = info.hits + info.misses if info else 0
    return info.misses / lookups if lookups else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, from its spans and counters and
    from the caches and Bernoulli table the program keeps.  Call after
    `uninstall`, so that the cached functions are the program's own."""
    layers = tracer.by_layer()
    m = {f"{layer}.self_s": layers.get(layer, (0, 0.0))[1] for layer in SELF_TIMED}
    m.update({f"{layer}.calls": layers.get(layer, (0, 0.0))[0] for layer in COUNTED})
    extractions = layers.get("fermat.perfect_pth_root", (0, 0.0))[0]
    candidates = sum(c for c, _ in tracer.searches)
    m["fermat.root_extractions"] = extractions
    m["fermat.extract_share"] = extractions / candidates if candidates else 0.0
    m["fermat.pruned"] = sum(p for _, p in tracer.searches)
    for key, _ in OBSERVERS.values():
        m[key] = tracer.observed.get(key, 0)
    regularity, polys, ring = (sys.modules[f"cyclo.{n}"] for n in ("regularity", "polys", "ring"))
    table = getattr(regularity, "_table", ())
    m["regularity.table_len"] = len(table)
    m["regularity.table_bits"] = sum(
        abs(b.numerator).bit_length() + b.denominator.bit_length() for b in table
    )
    m["polys.cyclotomic_poly.miss_ratio"] = _miss_ratio(polys.cyclotomic_poly)
    m["ring.power_rows.miss_ratio"] = _miss_ratio(getattr(ring, "_power_rows", None))
    return m
