"""Seeded inputs, the three request kinds, and the oracles that check them.

Each workload is a fixed cycle of request classes, repeated with fresh seeded
inputs. The cycle fixes how many requests of each class (ladder step, word
size) a run contains, so the pooled median and tail land inside one class
rather than between two, and a run that stops on a cycle boundary always
has the same class mix.

Why each workload:

* corpus: many small requests over random f of 1-12 letters, reaching all
  four constructions, the invert/flip transforms and every FAIL path.
  Per-call overhead and repeated self-certification matter; table size
  does not.
* x0_ladder: f = x0 with targets (k, k) and (-k, k) on a geometric ladder.
  Certificates grow as 2k+9 witnesses that share almost all their words;
  witness re-evaluation in `element` and witness pruning in `synthesis`
  dominate. This is the asymptotic workload.
* long_words: the element calculator alone, on words of 50 to 1000
  letters, unique within a run, whose tables reach a few hundred pairs.
  A `synthesis` or `certify` change should not move it.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import oracle

# reject-path tampers, in the order requests cycle through them
TAMPERS = ("drop-witness", "zero-base-count", "invert-g-witness", "drop-domain-branch")

_G_WORD = re.compile(r"^g(\^-1)?$")
# dyadic grid used to tell a word of abelianization (0, 0) from the identity
_TRIVIALITY_POINTS = tuple(Fraction(k, 64) for k in range(1, 64))


@dataclass(frozen=True)
class Request:
    """Inputs of one closed-loop request; `tag` names its class."""

    index: int
    tag: str
    word: tuple
    target: tuple | None = None
    tamper: int = 0
    pick: int = 0
    points: tuple = ()

    @property
    def text(self) -> str:
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in self.word)

    def as_json(self):
        return [self.tag, self.text, self.target, self.tamper, self.pick,
                [[p.numerator, p.denominator] for p in self.points]]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cert": synth, verify, reject; "calc": one calculator request
    cycle: int  # requests per cycle
    trace_requests: int  # fixed prefix replayed by the traced run
    tail_pct: float  # percentile reported as *_tail_ms
    pool: tuple  # seeded requests, cycled in order
    warmup: tuple  # requests run once during set-up, not measured


# --- generation ---------------------------------------------------------------


def _random_word(rng: random.Random, max_len: int) -> tuple:
    return tuple(
        (rng.choice(("x0", "x1")), rng.choice((1, -1)))
        for _ in range(rng.randrange(1, max_len + 1))
    )


def _corpus_pool(seed: int, count: int) -> list[Request]:
    # the distribution of `thompsonf corpus`: target kinds round-robin over
    # interior / right boundary / left boundary / zero, skipping kinds that
    # f's endpoint slopes make infeasible, coordinates in [-3, 3]
    rng = random.Random(f"corpus:{seed}")
    kinds = ((1, 1), (1, 0), (0, 1), (0, 0))
    nonzero = [x for x in range(-3, 4) if x]
    ki = 0
    out: list[Request] = []
    while len(out) < count:
        word = _random_word(rng, 12)
        a, b = oracle.abelianization(word)
        if (a, b) == (0, 0) and not oracle.moves_a_test_point(word, _TRIVIALITY_POINTS):
            continue
        target = None
        for _ in range(len(kinds)):
            want_c, want_d = kinds[ki % len(kinds)]
            ki += 1
            if (want_c == 0 and a == 0) or (want_d == 0 and b == 0):
                continue
            c = rng.choice(nonzero) if want_c else 0
            d = rng.choice(nonzero) if want_d else 0
            target = (c, d)
            break
        if target is None:
            continue
        i = len(out)
        out.append(Request(i, "corpus", word, target, (i + i // 4) % 4, rng.randrange(1 << 30)))
    return out


# (k, sign) -> requests per cycle. Sorted by latency, the classes cover
# [0, 20%) k6, [20, 35%) k12+, [35, 65%) k12-, [65, 85%) k24+,
# [85, 95%) k24-, [95, 100%) k48: the median, p75 and p90 each sit well
# inside one class. Ladder requests use only the two tampers whose cost
# does not depend on where they strike (every witness is still evaluated),
# so every cycle costs the same and reject latency sorts by k like verify;
# corpus covers the other two FAIL paths.
LADDER = {
    (6, 1): 4, (6, -1): 4,
    (12, 1): 6, (12, -1): 12,
    (24, 1): 8, (24, -1): 4,
    (48, 1): 1, (48, -1): 1,
}
LADDER_STEPS = tuple(sorted({k for k, _ in LADDER}))


def _ladder_pool(seed: int, cycles: int, shrink: int) -> list[Request]:
    rng = random.Random(f"x0_ladder:{seed}")
    out: list[Request] = []
    for _ in range(cycles):
        cycle = []
        for (step, sign), count in LADDER.items():
            k = max(1, step // shrink)
            for j in range(count):
                tamper = TAMPERS.index(("drop-witness", "zero-base-count")[j % 2])
                cycle.append((step, k, sign, tamper))
        rng.shuffle(cycle)
        for step, k, sign, tamper in cycle:
            out.append(Request(
                len(out), f"k{step}", (("x0", 1),), (sign * k, k), tamper,
                rng.randrange(1 << 30),
            ))
    return out


# (letters, style) -> requests per cycle. Sorted by latency the classes
# cover [0, 25%) 50, [25, 80%) 200, [80, 85%) 1000 in runs and [85, 100%)
# 1000 letter by letter, so the median lands among the 200-letter words and
# p90 among the 1000-letter ones.
WORDS = {
    (50, "letters"): 3, (50, "runs"): 2,
    (200, "letters"): 6, (200, "runs"): 5,
    (1000, "runs"): 1, (1000, "letters"): 3,
}

# run words keep the net x0 exponent within this band, which bounds their
# tables to a few hundred pairs and keeps the cost of one word near the
# cost of another
_RUN_BAND = 200


def _letter_word(rng: random.Random, n: int) -> tuple:
    return tuple((rng.choice(("x0", "x1")), rng.choice((1, -1))) for _ in range(n))


def _run_word(rng: random.Random, n: int) -> tuple:
    # half the tokens are runs x0^k with k from 20 to 40 (mean 30, which
    # goes through `power`), half single letters
    out = []
    total = net = 0
    while total < n:
        if rng.random() < 0.5:
            k = min(rng.randint(20, 40), n - total)
            sign = rng.choice((1, -1))
            if abs(net + sign * k) > _RUN_BAND:
                sign = -sign
            out.append(("x0", sign * k))
            net += sign * k
        else:
            k = 1
            name, exp = rng.choice(("x0", "x1")), rng.choice((1, -1))
            out.append((name, exp))
            net += exp if name == "x0" else 0
        total += k
    return tuple(out)


def _dyadic_points(rng: random.Random, count: int = 16) -> tuple:
    points = set()
    while len(points) < count:
        exp = rng.randrange(1, 25)
        points.add(Fraction(2 * rng.randrange(1 << (exp - 1)) + 1, 1 << exp))
    return tuple(sorted(points))


def _long_words_pool(seed: int, cycles: int, shrink: int) -> list[Request]:
    # The cost of one long word differs from another's by a quarter or more,
    # and a run holds only a few dozen of the costly ones, so with words
    # drawn from the run seed the figures followed the seed by 10-15%. The
    # words are therefore drawn from a fixed seed, the same ones in the same
    # cycles for every run; the run seed orders them within each cycle, which
    # also decides which element each one is composed with, and picks their
    # evaluation points.
    rng = random.Random(f"long_words:{seed}")
    words = random.Random("long_words:words")
    out: list[Request] = []
    for _ in range(cycles):
        cycle = []
        for (n, style), count in WORDS.items():
            gen = _run_word if style == "runs" else _letter_word
            for _ in range(count):
                cycle.append((f"w{n}-{style}", gen(words, n // shrink), _dyadic_points(rng)))
        rng.shuffle(cycle)
        for tag, word, points in cycle:
            out.append(Request(len(out), tag, word, points=points))
    return out


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The seeded workload; `smoke` shrinks every size for the bench's own tests."""
    if name == "corpus":
        pool = _corpus_pool(seed, 12 if smoke else 1000)
        return Workload(name, "cert", 4, 8 if smoke else 160, 95.0,
                        tuple(pool), tuple(pool[:4]))
    if name == "x0_ladder":
        pool = _ladder_pool(seed, 1 if smoke else 4, 8 if smoke else 1)
        warm = Request(-1, "k6", (("x0", 1),), (1, 1) if smoke else (6, 6))
        per_cycle = sum(LADDER.values())
        return Workload(name, "cert", per_cycle, per_cycle, 75.0, tuple(pool), (warm,))
    if name == "long_words":
        pool = _long_words_pool(seed, 1 if smoke else 20, 10 if smoke else 1)
        per_cycle = sum(WORDS.values())
        rng = random.Random(f"long_words-warmup:{seed}")
        warm = Request(-1, "w50-letters", _letter_word(rng, 50), points=_dyadic_points(rng))
        return Workload(name, "calc", per_cycle, per_cycle if smoke else 2 * per_cycle, 90.0,
                        tuple(pool), (warm,))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "x0_ladder", "long_words")


# --- requests -----------------------------------------------------------------


class Runner:
    """Runs requests against the package and checks each answer.

    `run` returns one dict per request: per-operation latencies in seconds
    (None when the operation did not complete), attempted and failed
    operation counts, and what the request emitted. Exceptions and wrong
    answers are counted as failures and never end the run.
    """

    def __init__(self, lib, workload: Workload, tracer=None):
        self.lib = lib
        self.workload = workload
        self.tracer = tracer
        self.gens = {"x0": lib.X0, "x1": lib.X1}
        self.prev = None  # previous calc request: (word, element)
        self.errors: list[str] = []
        # what the first requests emitted, for the output digest; later
        # outputs are dropped so memory does not grow with the run
        self.outputs: list[str] = []

    def _emitted(self, rec: dict, text: str) -> None:
        rec["output_bytes"] = len(text.encode())
        if len(self.outputs) < self.workload.trace_requests:
            self.outputs.append(text)

    def run(self, req: Request) -> dict:
        if self.tracer is not None:
            self.tracer.request = req.index
        if self.workload.kind == "cert":
            return self._cert_request(req)
        return self._calc_request(req)

    # oracle work runs with tracing paused so spans show only the request
    def _check(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        self.tracer.active = False
        try:
            return fn(*args)
        finally:
            self.tracer.active = True

    def _fail(self, rec: dict, op: str, why: str) -> None:
        rec["failed"] += 1
        if len(self.errors) < 20:
            self.errors.append(f"request {rec['index']} {rec['tag']} {op}: {why}")

    def _cert_request(self, req: Request) -> dict:
        lib = self.lib
        rec = {"index": req.index, "tag": req.tag, "attempted": 3, "failed": 0,
               "synth": None, "verify": None, "reject": None}
        c, d = req.target
        word_text = req.text
        try:
            t0 = time.perf_counter()
            f = lib.eval_word(lib.parse_group_word(word_text), self.gens)
            result = lib.synthesize(f, c, d)
            text = lib.certificate_to_json(result.certificate)
            rec["synth"] = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            for op in ("synth", "verify", "reject"):
                self._fail(rec, op, repr(exc))
            return rec
        self._emitted(rec, text)
        obj = json.loads(text)
        rec["witnesses"] = len(obj["witnesses"])
        rec["distinct_words"] = len({w["word"] for w in obj["witnesses"]})
        why = self._check(self._synth_error, obj, text, result.certificate, req.target)
        if why:
            self._fail(rec, "synth", why)

        try:
            t0 = time.perf_counter()
            verdict = lib.certify_normal_generation(lib.certificate_from_json(text))
            rec["verify"] = time.perf_counter() - t0
            if not verdict.ok:
                self._fail(rec, "verify", str(verdict))
        except Exception as exc:  # noqa: BLE001
            self._fail(rec, "verify", repr(exc))

        tampered, expected, used = tamper(obj, req.tamper, req.pick)
        rec["tamper"] = TAMPERS[used]
        try:
            t0 = time.perf_counter()
            try:
                verdict = lib.certify_normal_generation(lib.certificate_from_json(tampered))
                code = "PASS" if verdict.ok else verdict.code
            except lib.CertificateFormatError as exc:
                code = exc.code
            rec["reject"] = time.perf_counter() - t0
            if not expected(code):
                self._fail(rec, "reject", f"{TAMPERS[used]} gave {code}")
        except Exception as exc:  # noqa: BLE001
            self._fail(rec, "reject", repr(exc))
        return rec

    def _synth_error(self, obj, text, cert, target) -> str | None:
        dom = oracle.json_words(obj["g"]["domain"])
        rng = oracle.json_words(obj["g"]["range"])
        if not (oracle.is_complete_prefix_code(dom) and oracle.is_complete_prefix_code(rng)):
            return "g's table is not a pair of complete prefix codes"
        if len(dom) != len(rng):
            return "g's domain and range differ in size"
        got = oracle.table_abelianization(dom, rng)
        if got != tuple(target):
            return f"g has image {got}, target {tuple(target)}"
        if self.lib.certificate_from_json(text) != cert:
            return "decoded certificate differs from the emitted one"
        return None

    def _calc_request(self, req: Request) -> dict:
        lib = self.lib
        rec = {"index": req.index, "tag": req.tag, "attempted": 1, "failed": 0, "calc": None}
        prev_word, prev = self.prev if self.prev else ((), lib.IDENTITY)
        word_text = req.text
        try:
            t0 = time.perf_counter()
            e = lib.eval_word(lib.parse_group_word(word_text), self.gens)
            joined = lib.compose(prev, e)
            inverse = lib.invert(e)
            probes = [lib.Dyadic(p.numerator, p.denominator.bit_length() - 1) for p in req.points]
            images = [lib.evaluate(e, t) for t in probes]
            lefts = [lib.slope_left(e, t) for t in probes]
            rights = [lib.slope_right(e, t) for t in probes]
            image = lib.abelianize(e)
            table = lib.format_element(e)
            back = lib.parse_element(table)
            rec["calc"] = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001
            self._fail(rec, "calc", repr(exc))
            self.prev = None
            return rec
        self.prev = (req.word, e)
        self._emitted(rec, table)
        why = self._check(self._calc_error, req, prev_word, e, joined, inverse,
                          images, lefts, rights, image, table, back)
        if why:
            self._fail(rec, "calc", why)
        return rec

    def _calc_error(self, req, prev_word, e, joined, inverse, images, lefts, rights,
                    image, table, back) -> str | None:
        for t, got, left, right in zip(req.points, images, lefts, rights):
            want, want_left, want_right = oracle.walk(req.word, t)
            if Fraction(got.num, 1 << got.exp) != want:
                return f"image of {t} is {got}, letter by letter {want}"
            if (left, right) != (want_left, want_right):
                return f"slopes at {t} are {(left, right)}, letter by letter {(want_left, want_right)}"
            joined_want = oracle.point_image(req.word, oracle.point_image(prev_word, t))
            if oracle.table_image(joined.pairs, t) != joined_want:
                return f"composite with the previous element is wrong at {t}"
        if tuple(image) != oracle.abelianization(req.word):
            return f"abelianization {tuple(image)} is wrong"
        if self.lib.compose(e, inverse).pairs != (("", ""),):
            return "compose(e, invert(e)) is not the identity"
        if back != e or self.lib.format_element(back) != table:
            return "format/parse round trip is not exact"
        return None


def tamper(obj: dict, kind: int, pick: int):
    """A corrupted copy of a certificate's JSON object.

    Returns (json text, predicate on the outcome code, tamper kind used).
    A tamper that does not apply to this certificate (no plain witness, no
    g witness moving its interval) falls through to the next kind.
    """
    for step in range(len(TAMPERS)):
        used = (kind + step) % len(TAMPERS)
        doc = json.loads(json.dumps(obj))
        name = TAMPERS[used]
        if name == "drop-witness":
            if not doc["witnesses"]:
                continue
            del doc["witnesses"][pick % len(doc["witnesses"])]
            expected = lambda code: code.startswith("condition-")  # noqa: E731
        elif name == "zero-base-count":
            side = ("left_schema", "right_schema")[pick % 2]
            doc[side]["base_count"] = 0
            want = "condition-3" if side == "left_schema" else "condition-4"
            expected = lambda code, want=want: code == want  # noqa: E731
        elif name == "invert-g-witness":
            # g and g^-1 never carry the same pair u -> v with u != v:
            # an increasing map cannot send [u] to [v] and [v] to [u]
            slots = [w for w in doc["witnesses"] + [doc["left_schema"]["witness"],
                                                    doc["right_schema"]["witness"]]
                     if _G_WORD.match(w["word"]) and w["lhs"] != w["rhs"]]
            if not slots:
                continue
            w = slots[pick % len(slots)]
            w["word"] = "g" if w["word"] == "g^-1" else "g^-1"
            expected = lambda code: code == "witness-failed"  # noqa: E731
        else:
            del doc["g"]["domain"][pick % len(doc["g"]["domain"])]
            expected = lambda code: code == "invalid-element"  # noqa: E731
        return json.dumps(doc, indent=2) + "\n", expected, used
    raise ValueError("no tamper applies to this certificate")
