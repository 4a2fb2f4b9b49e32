"""Command-line front end.

Element arguments accept the builtin names x0, x1, id, a path to a branch
table file, or an inline group word such as "x0 x1^-1 x0^2". Exit status is
0 on success, 1 when a certificate check fails, 2 on usage or input errors,
3 on an internal error (a broken invariant of the package, reported on
stderr as "internal error: ..." without a traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .certify import (
    CertificateFormatError,
    certificate_from_json,
    certificate_to_json,
    certify_normal_generation,
)
from .dynamics import find_uvw
from .element import (
    IDENTITY,
    X0,
    X1,
    Element,
    GroupWord,
    _tree_product,
    abelianize,
    eval_word,
    evaluate,
    flip,
    format_element,
    format_group_word,
    invert,
    parse_element,
    parse_group_word,
    slope_left,
    slope_right,
)
from .lattice import (
    INFINITE,
    companion_rectangular,
    complete_basis,
    index_of,
    NotUnimodular,
)
from .synthesis import (
    SynthesisResult,
    complete_generating_pair,
    finite_index_pair,
    synthesize,
)
from .words import _int_max_str_digits, parse_dyadic, word_to_text

_BUILTINS = {"x0": X0, "x1": X1, "id": IDENTITY}


def resolve_element(ref: str) -> Element:
    if ref in _BUILTINS:
        return _BUILTINS[ref]
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return parse_element(fh.read())
    return eval_word(parse_group_word(ref), _BUILTINS)


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ------------------------------------------------------


def _cmd_parse(args) -> int:
    _write_or_print(format_element(resolve_element(args.element)), args.out)
    return 0


def _cmd_compose(args) -> int:
    out = _tree_product([(resolve_element(ref), 1) for ref in args.elements])
    _write_or_print(format_element(out), args.out)
    return 0


def _cmd_invert(args) -> int:
    _write_or_print(format_element(invert(resolve_element(args.element))), args.out)
    return 0


def _cmd_flip(args) -> int:
    _write_or_print(format_element(flip(resolve_element(args.element))), args.out)
    return 0


def _cmd_eval(args) -> int:
    value = evaluate(resolve_element(args.element), parse_dyadic(args.point))
    if args.json:
        num: int | str = value.num
        limit = _int_max_str_digits()
        if limit and num >= 10**limit:  # past what json writes or reads as an int
            num = format(num, "b")
        print(json.dumps({"num": num, "exp": value.exp, "value": str(value)}))
    else:
        print(value)
    return 0


def _cmd_slopes(args) -> int:
    f = resolve_element(args.element)
    t = parse_dyadic(args.point)
    left = slope_left(f, t)
    right = slope_right(f, t)
    if args.json:
        print(json.dumps({"left_log2": left, "right_log2": right}))
    else:
        print(f"left 2^{left}")
        print(f"right 2^{right}")
    return 0


def _cmd_abelianize(args) -> int:
    image = abelianize(resolve_element(args.element))
    if args.json:
        print(json.dumps({"at_zero": image.at_zero, "at_one": image.at_one}))
    else:
        print(f"({image.at_zero},{image.at_one})")
    return 0


def _cmd_uvw(args) -> int:
    triple = find_uvw(resolve_element(args.element))
    word = format_group_word((("f", triple.sign),))
    if args.json:
        print(json.dumps({"h": word, "u": triple.u, "v": triple.v, "w": triple.w}))
    else:
        print(f"h: {word}")
        print(f"u: {triple.u}")
        print(f"v: {triple.v}")
        print(f"w: {triple.w}")
    return 0


def _cmd_lattice(args) -> int:
    a, b = args.a, args.b
    if args.c is not None:
        basis = ((a, b), (args.c, args.d))
        index = index_of(basis)
        if args.json:
            print(json.dumps({"basis": basis, "index": None if index == INFINITE else int(index)}))
        else:
            print(f"index: {'infinite' if index == INFINITE else int(index)}")
        return 0
    c, d, form = companion_rectangular(a, b)
    index = index_of(((a, b), (c, d)))
    try:
        unimodular = complete_basis(a, b)
    except NotUnimodular:
        unimodular = None
    if args.json:
        print(json.dumps({
            "companion": [c, d],
            "p": form.p,
            "q": form.q,
            "index": int(index),
            "unimodular": list(unimodular) if unimodular else None,
        }))
    else:
        print(f"companion: ({c},{d})")
        print(f"rectangular: p={form.p} q={form.q} index={int(index)}")
        if unimodular:
            print(f"unimodular companion: ({unimodular[0]},{unimodular[1]})")
    return 0


def _emit_synthesis(result: SynthesisResult, args) -> int:
    """Report a result; `synthesize` returns only one that passed its check."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_element(result.g))
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(certificate_to_json(result.certificate))
    if args.json:
        print(json.dumps({
            "part": result.part,
            "target": list(result.target),
            "image_of_f": list(result.basis[0]),
            "index": None if result.index == INFINITE else int(result.index),
            "witnesses": len(result.certificate.witnesses),
            "verdict": "PASS",
        }))
    else:
        print(f"part: {result.part}")
        print(f"target: ({result.target.at_zero},{result.target.at_one})")
        index = "infinite" if result.index == INFINITE else str(int(result.index))
        print(f"joint image index: {index}")
        print(f"witnesses: {len(result.certificate.witnesses)}")
        print("PASS")
    return 0


def _cmd_synthesize(args) -> int:
    c_s, _, d_s = args.target.partition(",")
    result = synthesize(resolve_element(args.element), int(c_s), int(d_s))
    return _emit_synthesis(result, args)


def _cmd_complete_pair(args) -> int:
    return _emit_synthesis(complete_generating_pair(resolve_element(args.element)), args)


def _cmd_finite_index(args) -> int:
    return _emit_synthesis(finite_index_pair(resolve_element(args.element)), args)


def _cmd_certify(args) -> int:
    with open(args.certificate, encoding="utf-8") as fh:
        text = fh.read()
    try:
        cert = certificate_from_json(text)
    except CertificateFormatError as exc:
        if args.json:
            print(json.dumps({"verdict": exc.code, "detail": exc.detail}))
        else:
            print(f"FAIL {exc.code}: {exc.detail}")
        return 1
    verdict = certify_normal_generation(cert, bound=args.depth)
    if args.json:
        print(json.dumps({"verdict": verdict.code, "detail": verdict.detail}))
    else:
        print(str(verdict))
    return 0 if verdict.ok else 1


def _tree_dot_lines(tag: str, code, out: list[str]) -> None:
    nodes = {b[:i] for b in code for i in range(len(b) + 1)}
    for nd in sorted(nodes):
        ident = f'"{tag}{nd or "root"}"'
        if nd in code:
            out.append(f'  {ident} [shape=box label="{word_to_text(nd)}"];')
        else:
            out.append(f"  {ident} [shape=point];")
    for nd in sorted(nodes - {""}):
        out.append(f'  "{tag}{nd[:-1] or "root"}" -> "{tag}{nd}" [label="{nd[-1]}"];')


def _cmd_export(args) -> int:
    f = resolve_element(args.element)
    lines = ["digraph tree_pair {", "  rankdir=TB;"]
    _tree_dot_lines("D", f.domain, lines)
    _tree_dot_lines("R", f.range, lines)
    for u, v in f.pairs:
        lines.append(f'  "D{u or "root"}" -> "R{v or "root"}" [style=dashed constraint=false];')
    lines.append("}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


# --- corpus -------------------------------------------------------------------


def random_nontrivial(rng: random.Random, max_len: int = 12) -> tuple[GroupWord, Element]:
    """A random non-trivial element given as a word in x0, x1 and inverses."""
    while True:
        letters = tuple(
            (rng.choice(("x0", "x1")), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, max_len + 1))
        )
        e = eval_word(letters, _BUILTINS)
        if not e.is_identity():
            return letters, e


def corpus_entries(seed: int, count: int):
    """The reproducible synthesis sweep: random f, target types round-robin
    over interior / right-boundary / left-boundary / zero so every
    construction is exercised, coordinates drawn from [-3,3]. Each entry
    (word, f, target, result) holds a result `synthesize` has checked."""
    rng = random.Random(seed)
    kinds = ((1, 1), (1, 0), (0, 1), (0, 0))
    ki = 0
    entries = []
    while len(entries) < count:
        word, f = random_nontrivial(rng)
        a, b = abelianize(f)
        target = None
        for _ in range(len(kinds)):
            want_c, want_d = kinds[ki % len(kinds)]
            ki += 1
            if want_c == 0 and a == 0:
                continue
            if want_d == 0 and b == 0:
                continue
            c = rng.choice([x for x in range(-3, 4) if x]) if want_c else 0
            d = rng.choice([x for x in range(-3, 4) if x]) if want_d else 0
            target = (c, d)
            break
        if target is None:
            continue
        entries.append((word, f, target, synthesize(f, *target)))
    return entries


def _cmd_corpus(args) -> int:
    entries = corpus_entries(args.seed, args.count)
    part_counts = {1: 0, 2: 0, 3: 0, 4: 0}
    records = []
    for i, (word, _, target, result) in enumerate(entries, 1):
        part_counts[result.part] += 1
        records.append({
            "case": i,
            "f": format_group_word(word),
            "target": list(target),
            "part": result.part,
            "witnesses": len(result.certificate.witnesses),
            "verdict": "PASS",
        })
        if not args.json:
            print(
                f"case {i:02d} part={result.part} target=({target[0]},{target[1]}) "
                f"witnesses={len(result.certificate.witnesses)} "
                f"PASS f: {format_group_word(word)}"
            )
    if args.json:
        print(json.dumps({"seed": args.seed, "cases": records, "failures": 0}))
    else:
        print(f"passed {len(entries)}/{len(entries)}")
        print(
            "parts: "
            + " ".join(f"{p}x{n}" for p, n in sorted(part_counts.items()) if n)
        )
    return 0


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thompsonf",
        description="Exact tree-diagram calculator and partner synthesizer "
        "for Thompson's group F.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("parse", _cmd_parse, "normalize an element to its reduced table")
    p.add_argument("element")
    p.add_argument("--out")

    p = add("compose", _cmd_compose, "compose elements left to right")
    p.add_argument("elements", nargs="+")
    p.add_argument("--out")

    p = add("invert", _cmd_invert, "invert an element")
    p.add_argument("element")
    p.add_argument("--out")

    p = add("flip", _cmd_flip, "conjugate by t -> 1-t")
    p.add_argument("element")
    p.add_argument("--out")

    p = add("eval", _cmd_eval, "evaluate at a dyadic point")
    p.add_argument("element")
    p.add_argument("point")
    p.add_argument("--json", action="store_true")

    p = add("slopes", _cmd_slopes, "one-sided slopes at a dyadic point")
    p.add_argument("element")
    p.add_argument("point")
    p.add_argument("--json", action="store_true")

    p = add("abelianize", _cmd_abelianize, "log2 slopes at the endpoints")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")

    p = add("uvw", _cmd_uvw, "the moved triple u -> v -> w of f or f^-1")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")

    p = add("lattice", _cmd_lattice, "index and companions of integer vectors")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int, nargs="?")
    p.add_argument("d", type=int, nargs="?")
    p.add_argument("--json", action="store_true")

    p = add("synthesize", _cmd_synthesize, "build a certified partner for a target image")
    p.add_argument("element")
    p.add_argument("--target", required=True, metavar="c,d")
    p.add_argument("--out", help="write the partner's branch table here")
    p.add_argument("--cert", help="write the certificate JSON here")
    p.add_argument("--json", action="store_true")

    p = add("complete-pair", _cmd_complete_pair, "partner generating the whole group")
    p.add_argument("element")
    p.add_argument("--out")
    p.add_argument("--cert")
    p.add_argument("--json", action="store_true")

    p = add("finite-index", _cmd_finite_index, "partner of least finite joint-image index")
    p.add_argument("element")
    p.add_argument("--out")
    p.add_argument("--cert")
    p.add_argument("--json", action="store_true")

    p = add("certify", _cmd_certify, "check a certificate file")
    p.add_argument("certificate")
    p.add_argument("--depth", type=int, help="use the length-bounded closure")
    p.add_argument("--json", action="store_true")

    p = add("export", _cmd_export, "emit the tree pair as graphviz")
    p.add_argument("element")
    p.add_argument("--dot", action="store_true", help="DOT output (the default)")
    p.add_argument("--out")

    p = add("corpus", _cmd_corpus, "reproducible randomized synthesis sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--json", action="store_true")

    return parser


def run(argv) -> int:
    parser = _build_parser()
    # argparse reads "--target -2,3" as a missing value followed by an
    # unknown option; fold the pair into --target=-2,3 form.
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--target" and argv[i].startswith("-"):
            argv[i - 1 : i + 1] = [f"--target={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an internal invariant broke, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
