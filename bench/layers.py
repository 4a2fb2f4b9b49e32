"""Per-layer metrics computed from a run's spans.

A span's self time is its duration minus its direct children's. Every
metric is a mean per request of the traced set; the ones marked per step
are also reported per x0_ladder step as `<metric>.k<step>`, averaged over
that step's requests. Times are as measured, not scaled like the
end-to-end ones. A metric whose wrapped functions no longer exist is
reported as missing instead of as zero.
"""

from __future__ import annotations

from tracer import IN_CERTIFY, IN_SYNTHESIZE
from workloads import LADDER_STEPS

LOCATE = ("element.evaluate", "element.slope_left", "element.slope_right",
          "element.image_of_interval", "element.has_branch_pair")
SLOPE_CHECK = ("element.eval_word", "element.evaluate", "element.slope_left",
               "element.slope_right")
CERTIFY = "certify.certify_normal_generation"
SYNTHESIZE = "synthesis.synthesize"
CONDITIONS = "certify.conditions_error"


# span filters: (context bits, name of the nearest wrapped parent) -> keep
def _outside_certify(ctx: int, parent: str | None) -> bool:
    return not ctx & IN_CERTIFY


def _inside_certify(ctx: int, parent: str | None) -> bool:
    return bool(ctx & IN_CERTIFY)


def _under_certify(ctx: int, parent: str | None) -> bool:
    return parent == CERTIFY


# (metric, unit, span names or a layer prefix ending in ".", quantity,
#  span filter, per ladder step)
SPAN_METRICS = (
    ("element.compose.calls", "count", ("element.compose",), "calls", None, True),
    ("element.compose.self_s", "s", ("element.compose",), "self", None, True),
    ("element.compose.pairs_in", "count", ("element.compose",), "aux", None, True),
    ("element.power.calls", "count", ("element.power",), "calls", None, False),
    ("element.power.self_s", "s", ("element.power",), "self", None, True),
    ("element.eval_word.calls", "count", ("element.eval_word",), "calls", None, False),
    ("element.eval_word.s", "s", ("element.eval_word",), "incl", None, False),
    ("element.locate.calls", "count", LOCATE, "calls", None, False),
    ("element.locate.self_s", "s", LOCATE, "self", None, True),
    ("element.transform.self_s", "s", ("element.invert", "element.flip"), "self", None, False),
    ("synthesis.synthesize.s", "s", (SYNTHESIZE,), "incl", None, True),
    ("synthesis.self_s", "s", ("synthesis.",), "self", None, False),
    ("synthesis.prune.trials", "count", (CONDITIONS,), "calls", _outside_certify, True),
    ("synthesis.prune.s", "s", (CONDITIONS,), "incl", _outside_certify, True),
    ("certify.witnesses.calls", "count", ("certify.verify_witness",), "calls", None, False),
    ("certify.witnesses.s", "s", ("certify.verify_witness",), "incl", None, True),
    ("certify.closure.build_s", "s", ("certify.SuffixCongruence.__init__",), "incl", None, True),
    ("certify.closure.seed_letters", "count", ("certify.SuffixCongruence.__init__",), "aux",
     None, False),
    ("certify.closure.queries", "count", ("certify.SuffixCongruence.same",), "calls", None, False),
    ("certify.closure.query_s", "s", ("certify.SuffixCongruence.same",), "incl", None, False),
    ("certify.conditions.s", "s", (CONDITIONS,), "incl", _inside_certify, False),
    ("certify.slope.s", "s", SLOPE_CHECK, "incl", _under_certify, False),
    ("certify.json.encode_s", "s", ("certify.certificate_to_json",), "incl", None, False),
    ("certify.json.decode_s", "s", ("certify.certificate_from_json",), "incl", None, False),
    ("dynamics.calls", "count", ("dynamics.",), "calls", None, False),
    ("dynamics.self_s", "s", ("dynamics.",), "self", None, False),
    ("lattice.self_s", "s", ("lattice.",), "self", None, False),
    ("words.prefix_code.calls", "count", ("words.is_complete_prefix_code",), "calls", None,
     False),
    ("words.prefix_code.self_s", "s", ("words.is_complete_prefix_code",), "self", None, False),
)

# computed from whole synthesize calls, from the emitted certificates, or
# from the two timings; see layer_metrics
OTHER_METRICS = (
    ("synthesis.certify_calls", "count"),
    ("synthesis.prune.kept_ratio", "ratio"),
    ("certify.witness_word_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, per-step ones included."""
    units = {}
    for name, unit, _, _, _, per_step in SPAN_METRICS:
        units[name] = unit
        if per_step:
            for k in LADDER_STEPS:
                units[f"{name}.k{k}"] = unit
    units.update(OTHER_METRICS)
    return units


def _matches(names, span_name: str) -> bool:
    return any(span_name.startswith(n) if n.endswith(".") else span_name == n for n in names)


def layer_metrics(tracer, tags: dict[int, str], overhead_frac: float,
                  word_share: float) -> tuple[dict, list[str]]:
    """(metric -> {"value", "unit"}, names of missing metrics)."""
    n = len(tracer)
    names = tracer.names
    kind, start, end, parent = tracer.kind, tracer.start, tracer.end, tracer.parent
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]

    requests_per_tag: dict[str, int] = {}
    for tag in tags.values():
        requests_per_tag[tag] = requests_per_tag.get(tag, 0) + 1
    total_requests = max(1, len(tags))

    # which metrics each span name feeds
    feeds: dict[int, list[int]] = {}
    for nid, span_name in enumerate(names):
        feeds[nid] = [m for m, spec in enumerate(SPAN_METRICS) if _matches(spec[2], span_name)]
    totals = [0.0] * len(SPAN_METRICS)
    by_tag: list[dict[str, float]] = [{} for _ in SPAN_METRICS]
    for i in range(n):
        targets = feeds[kind[i]]
        if not targets:
            continue
        p = parent[i]
        ctx, parent_name = tracer.ctx[i], names[kind[p]] if p >= 0 else None
        tag = tags.get(tracer.request_of[i])
        for m in targets:
            _, _, _, qty, keep, per_step = SPAN_METRICS[m]
            if keep is not None and not keep(ctx, parent_name):
                continue
            if qty == "calls":
                value = 1
            elif qty == "aux":
                value = tracer.aux[i]
            elif qty == "incl":
                value = dur[i] / 1e9
            else:
                value = (dur[i] - child[i]) / 1e9
            totals[m] += value
            if per_step and tag is not None:
                by_tag[m][tag] = by_tag[m].get(tag, 0.0) + value

    present = set(names)
    out: dict[str, dict] = {}
    missing: list[str] = []
    for m, (metric, unit, span_names, _, _, per_step) in enumerate(SPAN_METRICS):
        keys = [metric] + ([f"{metric}.k{k}" for k in LADDER_STEPS] if per_step else [])
        if not any(_matches(span_names, s) for s in present):
            missing.extend(keys)
            continue
        out[metric] = {"value": totals[m] / total_requests, "unit": unit}
        for k in LADDER_STEPS if per_step else ():
            count = requests_per_tag.get(f"k{k}", 0)
            value = by_tag[m].get(f"k{k}", 0.0) / count if count else 0.0
            out[f"{metric}.k{k}"] = {"value": value, "unit": unit}

    if {CERTIFY, SYNTHESIZE} <= present:
        synth_calls, certify_in_synth = 0, 0
        first_certify: dict[int, int] = {}  # synthesize span -> witnesses at its first certify
        emitted = 0
        for i in range(n):
            name = names[kind[i]]
            if name == SYNTHESIZE:
                synth_calls += 1
                emitted += tracer.aux[i]
            elif name == CERTIFY and tracer.ctx[i] & IN_SYNTHESIZE:
                certify_in_synth += 1
                j = parent[i]
                while j >= 0 and names[kind[j]] != SYNTHESIZE:
                    j = parent[j]
                if j >= 0 and j not in first_certify:
                    first_certify[j] = tracer.aux[i]
        first = sum(first_certify.values())
        out["synthesis.certify_calls"] = {
            "value": certify_in_synth / synth_calls if synth_calls else 0.0, "unit": "count"}
        out["synthesis.prune.kept_ratio"] = {
            "value": emitted / first if first else 0.0, "unit": "ratio"}
    else:
        missing += ["synthesis.certify_calls", "synthesis.prune.kept_ratio"]
    out["certify.witness_word_share"] = {"value": word_share, "unit": "ratio"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return out, missing
