"""Spans around the package's layer boundaries, recorded from outside it.

`Tracer.install` wraps every public function of the layer modules and the
closure engine's `SuffixCongruence.__init__`/`same`, replacing each
function by object identity in every loaded `thompsonf` module that holds
it, so calls between modules are caught as well as the benchmark's own.
`uninstall` puts the originals back. Spans live in flat arrays in memory
(name, start, end, parent, request, context bits, one auxiliary count) and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "thompsonf"
LAYERS = ("words", "element", "dynamics", "lattice", "synthesis", "certify")

# context bits: set on every span that runs inside one of these
IN_CERTIFY = 1
IN_SYNTHESIZE = 2


def _pairs_in(args):
    return len(args[0].pairs) + len(args[1].pairs)


def _seed_letters(args):
    seeds = args[1]
    if not isinstance(seeds, (list, tuple)):
        return 0  # never consume a one-shot iterable the callee needs
    return sum(len(u) + len(v) for u, v in seeds)


def _witness_count(args):
    return len(args[0].witnesses)


def _emitted_witnesses(result):
    return len(result.certificate.witnesses)


# wrapped name -> (context bit it sets, count read from the arguments,
# count read from the result); a count that cannot be read is recorded as 0
HOOKS = {
    "element.compose": (0, _pairs_in, None),
    "certify.certify_normal_generation": (IN_CERTIFY, _witness_count, None),
    "certify.SuffixCongruence.__init__": (0, _seed_letters, None),
    "synthesis.synthesize": (IN_SYNTHESIZE, None, _emitted_witnesses),
}


def _count(hook, value) -> int:
    try:
        return int(hook(value))
    except Exception:  # noqa: BLE001 - a changed signature must not fail the run
        return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request_of = array("i")
        self.ctx = array("b")
        self.aux = array("q")
        self.active = True
        self.request = -1  # id of the request the next spans belong to
        self._bits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.kind)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        bit, from_args, from_result = HOOKS.get(name, (0, None, None))
        tracer, stack, clock = self, self._stack, time.perf_counter_ns
        kind, start, end, parent = self.kind, self.start, self.end, self.parent
        request_of, ctx, aux = self.request_of, self.ctx, self.aux

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            request_of.append(tracer.request)
            saved = tracer._bits
            ctx.append(saved)
            aux.append(_count(from_args, args) if from_args else 0)
            end.append(0)
            tracer._bits = saved | bit
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                tracer._bits = saved
            if from_result:
                aux[idx] = _count(from_result, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            layer: sys.modules[f"{PACKAGE}.{layer}"]
            for layer in LAYERS
            if f"{PACKAGE}.{layer}" in sys.modules
        }
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        cls = getattr(modules.get("certify"), "SuffixCongruence", None)
        for meth in ("__init__", "same") if isinstance(cls, type) else ():
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                setattr(cls, meth, self._wrap(f"certify.SuffixCongruence.{meth}", fn))
                self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    def write(self, path) -> None:
        """Spans as gzipped tab-separated rows, one per span, in start order."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\trequest\tstart_ns\tend_ns\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.kind[i]]}\t"
                    f"{self.request_of[i]}\t{self.start[i]}\t{self.end[i]}\n"
                )
