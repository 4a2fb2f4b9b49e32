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
from collections import Counter

from .certify import (
    CertificateFormatError,
    CertifyResult,
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
    UnknownSymbol,
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
from .words import _int_max_str_digits, parse_dyadic, parse_int, word_to_text

_BUILTINS = {"x0": X0, "x1": X1, "id": IDENTITY}


def resolve_element(ref: str) -> Element:
    if ref in _BUILTINS:
        return _BUILTINS[ref]
    if os.path.exists(ref):
        with open(ref, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            return parse_element(fh.read())
    return eval_word(parse_group_word(ref), _BUILTINS)


def _write_or_print(text: str, path: str | None) -> int:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report(args, record: dict, *lines: str) -> int:
    """Print `record` as one JSON line under --json, else the text lines."""
    print(json.dumps(record) if args.json else "\n".join(lines))
    return 0


def _index(index) -> int | None:
    """A joint-image index as JSON writes it: None when infinite."""
    return None if index == INFINITE else int(index)


# --- subcommand handlers ------------------------------------------------------


def _cmd_table(args) -> int:
    """parse, invert and flip: the reduced table of `args.transform(f)`."""
    return _write_or_print(format_element(args.transform(resolve_element(args.element))), args.out)


def _cmd_compose(args) -> int:
    """The product of the arguments, each bound to a name of its own."""
    named = {str(i): resolve_element(ref) for i, ref in enumerate(args.elements)}
    out = eval_word(tuple((name, 1) for name in named), named)
    return _write_or_print(format_element(out), args.out)


def _cmd_eval(args) -> int:
    value = evaluate(resolve_element(args.element), parse_dyadic(args.point))
    num: int | str = value.num
    limit = _int_max_str_digits()
    if limit and num >= 10**limit:  # past what json writes or reads as an int
        num = format(num, "b")
    return _report(args, {"num": num, "exp": value.exp, "value": str(value)}, str(value))


def _cmd_slopes(args) -> int:
    """The one-sided slopes at t; at t = 0 only the right one exists, at
    t = 1 only the left one (the abelianization coordinates)."""
    f = resolve_element(args.element)
    t = parse_dyadic(args.point)
    left = slope_left(f, t) if t.num else None
    right = slope_right(f, t) if (t.num, t.exp) != (1, 0) else None
    sides = (("left", left), ("right", right))
    lines = [f"{side} 2^{k}" for side, k in sides if k is not None]
    return _report(args, {"left_log2": left, "right_log2": right}, *lines)


def _cmd_abelianize(args) -> int:
    a, b = abelianize(resolve_element(args.element))
    return _report(args, {"at_zero": a, "at_one": b}, f"({a},{b})")


def _cmd_uvw(args) -> int:
    triple = find_uvw(resolve_element(args.element))
    h = format_group_word((("f", triple.sign),))
    record = {"h": h, "u": triple.u, "v": triple.v, "w": triple.w}
    return _report(args, record, *(f"{key}: {value}" for key, value in record.items()))


def _cmd_lattice(args) -> int:
    a, b = args.a, args.b
    if (args.c is None) != (args.d is None):
        raise ValueError("lattice takes two or four integers")
    if args.c is not None:
        basis = ((a, b), (args.c, args.d))
        index = _index(index_of(basis))
        text = "infinite" if index is None else index
        return _report(args, {"basis": basis, "index": index}, f"index: {text}")
    c, d, form = companion_rectangular(a, b)
    index = int(index_of(((a, b), (c, d))))
    try:
        unimodular = list(complete_basis(a, b))
    except NotUnimodular:
        unimodular = None
    record = {"companion": [c, d], "p": form.p, "q": form.q, "index": index,
              "unimodular": unimodular}
    lines = [f"companion: ({c},{d})", f"rectangular: p={form.p} q={form.q} index={index}"]
    if unimodular:
        lines.append(f"unimodular companion: ({unimodular[0]},{unimodular[1]})")
    return _report(args, record, *lines)


def _emit_synthesis(result: SynthesisResult, args) -> int:
    """Report a result; `synthesize` returns only one that passed its check."""
    if args.out:
        _write_or_print(format_element(result.g), args.out)
    if args.cert:
        _write_or_print(certificate_to_json(result.certificate), args.cert)
    index = _index(result.index)
    witnesses = len(result.certificate.witnesses)
    record = {
        "part": result.part,
        "target": list(result.target),
        "image_of_f": list(result.basis[0]),
        "index": index,
        "witnesses": witnesses,
        "verdict": "PASS",
    }
    return _report(
        args, record, f"part: {result.part}",
        f"target: ({result.target.at_zero},{result.target.at_one})",
        f"joint image index: {'infinite' if index is None else index}",
        f"witnesses: {witnesses}",
        "PASS",
    )


def _cmd_synthesize(args) -> int:
    f = resolve_element(args.element)
    c, _, d = args.target.partition(",")
    try:
        target = parse_int(c), parse_int(d)
    except ValueError:
        raise ValueError(f"--target takes c,d (two integers), got {args.target!r}") from None
    return _emit_synthesis(synthesize(f, *target), args)


def _cmd_partner(args) -> int:
    """complete-pair and finite-index: the partner `args.build(f)`."""
    return _emit_synthesis(args.build(resolve_element(args.element)), args)


def _cmd_certify(args) -> int:
    with open(args.certificate, "rb") as fh:  # json.loads detects the encoding
        data = fh.read()
    try:
        cert = certificate_from_json(data)
    except CertificateFormatError as exc:
        verdict = CertifyResult(False, exc.code, exc.detail)
    else:
        verdict = certify_normal_generation(cert, bound=args.depth)
    _report(args, {"verdict": verdict.code, "detail": verdict.detail}, str(verdict))
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
    return _write_or_print("\n".join(lines) + "\n", args.out)


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
        while True:  # ends within four kinds: (1, 1) suits every f
            want_c, want_d = kinds[ki % len(kinds)]
            ki += 1
            if (want_c or a) and (want_d or b):
                break
        c = rng.choice([x for x in range(-3, 4) if x]) if want_c else 0
        d = rng.choice([x for x in range(-3, 4) if x]) if want_d else 0
        entries.append((word, f, (c, d), synthesize(f, c, d)))
    return entries


def _cmd_corpus(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    cases = [
        {
            "case": i,
            "f": format_group_word(word),
            "target": list(target),
            "part": result.part,
            "witnesses": len(result.certificate.witnesses),
            "verdict": "PASS",
        }
        for i, (word, _, target, result) in enumerate(corpus_entries(args.seed, args.count), 1)
    ]
    lines = [
        f"case {r['case']:02d} part={r['part']} target=({r['target'][0]},{r['target'][1]}) "
        f"witnesses={r['witnesses']} PASS f: {r['f']}"
        for r in cases
    ]
    parts = Counter(r["part"] for r in cases)
    lines.append(f"passed {len(cases)}/{len(cases)}")
    lines.append("parts: " + " ".join(f"{p}x{n}" for p, n in sorted(parts.items())))
    return _report(args, {"seed": args.seed, "cases": cases, "failures": 0}, *lines)


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thompsonf",
        description="Exact tree-diagram calculator and partner synthesizer "
        "for Thompson's group F.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    element = argparse.ArgumentParser(add_help=False)
    element.add_argument("element")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the branch table (export: the DOT text) here")
    cert = argparse.ArgumentParser(add_help=False)
    cert.add_argument("--cert", help="write the certificate JSON here")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    def add(name, handler, help_text, *parents, **defaults):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler, **defaults)
        return p

    add("parse", _cmd_table, "normalize an element to its reduced table", element, out,
        transform=lambda f: f)
    p = add("compose", _cmd_compose, "compose elements left to right", out)
    p.add_argument("elements", nargs="+")
    add("invert", _cmd_table, "invert an element", element, out, transform=invert)
    add("flip", _cmd_table, "conjugate by t -> 1-t", element, out, transform=flip)
    p = add("eval", _cmd_eval, "evaluate at a dyadic point", element, as_json)
    p.add_argument("point")
    p = add("slopes", _cmd_slopes, "one-sided slopes at a dyadic point", element, as_json)
    p.add_argument("point")
    add("abelianize", _cmd_abelianize, "log2 slopes at the endpoints", element, as_json)
    add("uvw", _cmd_uvw, "the moved triple u -> v -> w of f or f^-1", element, as_json)

    p = add("lattice", _cmd_lattice, "index and companions of integer vectors", as_json)
    p.add_argument("a", type=parse_int)
    p.add_argument("b", type=parse_int)
    p.add_argument("c", type=parse_int, nargs="?")
    p.add_argument("d", type=parse_int, nargs="?")

    p = add("synthesize", _cmd_synthesize, "build a certified partner for a target image",
            element, out, cert, as_json)
    p.add_argument("--target", required=True, metavar="c,d")
    add("complete-pair", _cmd_partner, "partner generating the whole group",
        element, out, cert, as_json, build=complete_generating_pair)
    add("finite-index", _cmd_partner, "partner of least finite joint-image index",
        element, out, cert, as_json, build=finite_index_pair)

    p = add("certify", _cmd_certify, "check a certificate file", as_json)
    p.add_argument("certificate")
    p.add_argument("--depth", type=parse_int, help="use the length-bounded closure")

    p = add("export", _cmd_export, "emit the tree pair as graphviz", element, out)
    p.add_argument("--dot", action="store_true", help="DOT output (the default)")

    p = add("corpus", _cmd_corpus, "reproducible randomized synthesis sweep", as_json)
    p.add_argument("--seed", type=parse_int, default=0)
    p.add_argument("--count", type=parse_int, default=50)

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
        # str() of a KeyError is the repr of its key
        detail = f"unknown symbol {exc}" if isinstance(exc, UnknownSymbol) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an internal invariant broke, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
