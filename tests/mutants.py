"""Hand-made mutants of `src/thompsonf`, each with the tests that must kill it.

Each entry replaces one exact text of one module by a faulty one and names
the test node ids that must then fail. The runner copies `src/` to a
temporary directory, applies one mutant there and runs its tests against
the copy (`pytest -x -q`), one subprocess at a time, after one run of all
the named tests on the unmutated copy, which must pass. It exits 1 if a
mutant survives that should not, if an expected survivor is killed, or if
an entry is stale: its old text does not occur exactly once, or a test it
names is not defined. A refactor that moves the mutated code therefore
shows up as a stale entry, to be rewritten against the new code, instead
of passing silently.

    python tests/mutants.py

`tests/test_mutants.py` checks the table (each old text once, each named
test defined) without running a mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thompsonf"


class Mutant(NamedTuple):
    name: str
    file: str  # a module of the package
    old: str  # occurs exactly once in it
    new: str
    tests: tuple[str, ...]  # node ids, relative to the repository root
    survives: str = ""  # why no test can kill it: an expected survivor


_ELEMENT_ORACLE = "tests/test_element_oracle.py"
_CODEC = "tests/test_codec.py"

MUTANTS = (
    # --- x0 and x1 as rotations of the range tree ---
    Mutant(  # x1 too: both run one rotation loop
        "x0 rotated the wrong way",
        "element.py",
        "        if k > 0:\n            for _ in range(k):",
        "        if k < 0:\n            for _ in range(-k):",
        (f"{_ELEMENT_ORACLE}::test_eval_word_matches_left_fold",),
    ),
    Mutant(
        "x1 rotated at the root",
        "element.py",
        "        if gen:\n            holder = box[1]",
        "        if gen > 1:\n            holder = box[1]",
        (f"{_ELEMENT_ORACLE}::test_eval_word_matches_left_fold",),
    ),
    Mutant(
        "a split without its domain partner",
        "element.py",
        "    parent[side] = split = [leaf, new]",
        "    split = [leaf, new]",
        (f"{_ELEMENT_ORACLE}::test_eval_word_matches_left_fold",),
    ),
    # --- eval_word: one classification per name, pieces multiplied pairwise ---
    Mutant(
        "x0 classified by `is`",
        "element.py",
        "f.pairs == X0.pairs",
        "f is X0",
        (f"{_ELEMENT_ORACLE}::test_generators_rotate_when_read_back_from_text",),
    ),
    Mutant(
        "identity run kept as a power piece",
        "element.py",
        "else None if f.is_identity() else f)",
        "else f)",
        (f"{_ELEMENT_ORACLE}::test_eval_word_powers_each_run_of_another_element_once",),
    ),
    Mutant(
        "odd last piece dropped",
        "element.py",
        "        if len(pieces) & 1:\n            paired.append(pieces[-1])\n",
        "",
        (f"{_ELEMENT_ORACLE}::test_eval_word_matches_left_fold_and_balanced_product",),
    ),
    # --- a branch pair lies inside one row ---
    Mutant(
        "a row's ancestor accepted as a branch",
        "element.py",
        "if u.startswith(u0) else None",
        "if u0.startswith(u) or u.startswith(u0) else None",
        (
            f"{_ELEMENT_ORACLE}::test_locator_matches_scan_on_intervals",
            f"{_ELEMENT_ORACLE}::test_no_ancestor_of_a_row_is_a_branch",
        ),
    ),
    # --- both codes of a table checked in one call ---
    Mutant(
        "no per-code prefix scan",
        "words.py",
        "sorted(code) == code and not any(map(str.startswith, code[1:], code))",
        "sorted(code) == code",
        (f"{_CODEC}::test_joint_code_check_needs_each_sum_to_be_one",),
    ),
    Mutant(  # X0 itself no longer builds, so every test fails
        "Kraft total of 1",
        "words.py",
        "== len(codes) << top",
        "== 1 << top",
        (f"{_CODEC}::test_joint_code_check_needs_each_sum_to_be_one",),
    ),
    Mutant(
        "no range message",
        "element.py",
        "        if not is_complete_prefix_code(domain):\n",
        "        if True:\n",
        (f"{_CODEC}::test_table_check_reports_the_domain_first",),
    ),
    # --- the table reader's one line loop and one word scan ---
    Mutant(
        "a malformed line reported before a bad word above it",
        "element.py",
        "            words_from_texts(sides)\n            raise ValueError",
        "            raise ValueError",
        ("tests/test_parse_oracle.py::test_parse_element_cases",),
    ),
    # --- f's moved triple and tail pairs read off its rows ---
    Mutant(
        "the last row read at both ends",
        "synthesis.py",
        'x, y = f.pairs[0] if t == "0" else f.pairs[-1]',
        "x, y = f.pairs[-1]",
        ("tests/test_dynamics.py::test_row_reads_match_the_searches",),
    ),
    Mutant(
        "the row not swapped for f^-1",
        "dynamics.py",
        "        x, y, sign = y, x, -1",
        "        sign = -1",
        ("tests/test_dynamics.py::test_row_reads_match_the_searches",),
    ),
    Mutant(  # the triple is read with no re-check: its arithmetic must be pinned
        "u's tail one letter long",
        "dynamics.py",
        "(2 * n - m)",
        "(2 * n)",
        ("tests/test_dynamics.py::test_uvw_contract",),
    ),
    Mutant(
        "padding at fewer than two trailing branches",
        "synthesis.py",
        "(3 if after < 3 else 0)",
        "(3 if after < 2 else 0)",
        ("tests/test_golden.py::test_corpus_output_is_pinned[0]",),
    ),
    Mutant(
        "the first branch's length dropped from the all-0 word",
        "synthesis.py",
        '"0" * (len(T[0]) + left_chain)',
        '"0" * left_chain',
        ("tests/test_synthesis.py::test_scaffold_tree_shape",),
    ),
    Mutant(
        "`--count -1` accepted",
        "cli.py",
        "    if args.count < 0:",
        "    if args.count < -1:",
        ("tests/test_cli.py::test_negative_corpus_count_is_a_usage_error",),
    ),
    Mutant(
        ">= for > in _tail_pair's sign",
        "synthesis.py",
        "1 if len(x) > len(y) else -1",
        "1 if len(x) >= len(y) else -1",
        (
            "tests/test_dynamics.py::test_row_reads_match_the_searches",
            "tests/test_dynamics.py::test_tail_pair_contract",
        ),
        survives="the two differ only where f has slope 1 at the end, where"
        " _tail_pair is never called: synthesize refuses such targets first",
    ),
    # --- the companion's least n ---
    Mutant(
        "|A| added to n",
        "lattice.py",
        "    n = -pow(B, -1, abs(A)) % abs(A)\n",
        "    n = -pow(B, -1, abs(A)) % abs(A) + abs(A)\n",
        ("tests/test_lattice.py::test_companion_contract",),
    ),
    # --- the g-witnesses are the unreduced rows ---
    Mutant(
        "reduced rows emitted as witnesses",
        "synthesis.py",
        "for p, q in zip(rp, rm))",
        "for p, q in from_codes(rp, rm).pairs)",
        ("tests/test_block_oracle.py::test_corpus_blocks_match_builders",),
    ),
    # --- the decoder's one field reader and one fault funnel ---
    Mutant(
        "ValueError mapped to invalid-certificate for an element",
        "certify.py",
        '    ), "invalid-element")',
        "    ))",
        (f"{_CODEC}::test_decode_fault_is_pinned",),
    ),
    Mutant(
        "the `where` prefix dropped",
        "certify.py",
        'f"{where}: {exc}" if where else str(exc)',
        "str(exc)",
        (f"{_CODEC}::test_decode_fault_is_pinned",),
    ),
    Mutant(
        "`kind is int` via isinstance, which admits bool",
        "certify.py",
        "if kind is int and type(value) is not int:",
        "if kind is int and not isinstance(value, int):",
        (f"{_CODEC}::test_decode_fault_is_pinned",),
    ),
    # --- the closure engine's prefix rules, family walk and no-trial drops ---
    Mutant(
        "the parting at prev's last 0 taken unverified",
        "certify.py",
        'if not word.startswith(prev[:i] + "1"):',
        "if False:",
        ("tests/test_congruence_oracle.py::test_one_node_per_distinct_prefix",),
    ),
    Mutant(
        "the bisect one letter long",
        "certify.py",
        "not word.startswith(prev[:m + 1])",
        "not word.startswith(prev[:m])",
        ("tests/test_congruence_oracle.py::test_one_node_per_distinct_prefix",),
    ),
    Mutant(  # only a stem off the trie leaves it at a member that may reach w's state
        "the family walk's off-trie step losing its rest",
        "certify.py",
        "                rest += t\n",
        "                rest = t\n",
        ("tests/test_prune_oracle.py::test_family_walk_ends_soon_after_leaving_the_trie",),
    ),
    Mutant(
        "a repeated pair dropped at its later copy",
        "synthesis.py",
        "    for k in sorted(set(range(n)).difference(kept), reverse=True):\n"
        "        u, v = seeds[k]\n        if u != v and (u, v) not in known:\n"
        "            rest.append(k)\n            known.update(((u, v), (v, u)))\n"
        "    rest.reverse()\n",
        "    for k in sorted(set(range(n)).difference(kept)):\n"
        "        u, v = seeds[k]\n        if u != v and (u, v) not in known:\n"
        "            rest.append(k)\n            known.update(((u, v), (v, u)))\n",
        ("tests/test_prune_oracle.py::test_pruner_matches_reference_on_repeated_pairs",),
    ),
    # --- the pruner's necessity proof, beside the pruner ---
    Mutant(
        "a seed proven needed whatever its node's parent",
        "synthesis.py",
        "                if parent[p] == p and size[p] == 1:\n",
        "                if True:\n",
        ("tests/test_prune_oracle.py"
         "::test_needed_seeds_spare_a_seed_whose_node_has_a_merged_parent",),
    ),
    # --- the checker's caret budget ---
    Mutant(
        ">= for > in the budget",
        "certify.py",
        "        if bound > budget:",
        "        if bound >= budget:",
        ("tests/test_certify.py::test_word_at_the_budget_is_evaluated",),
    ),
    Mutant(  # g^16 is then evaluated: a cheap kill, where g^100000 would exhaust memory
        "|k| dropped from the caret bound",
        "element.py",
        "sum(abs(k) * (len(assignment[name].pairs) - 1)",
        "sum((len(assignment[name].pairs) - 1)",
        ("tests/test_certify.py::test_word_at_the_budget_is_evaluated",),
    ),
    # --- Dyadic ---
    Mutant(
        "Dyadic.__lt__ by tuple order",
        "words.py",
        "return self.num << d < other.num if d >= 0 else self.num < other.num << -d",
        "return (self.num, self.exp) < (other.num, other.exp)",
        ("tests/test_words.py::test_comparisons_match_fractions",),
    ),
    Mutant(
        "Dyadic.__lt__ shifting by whole exponents",
        "words.py",
        "return self.num << d < other.num if d >= 0 else self.num < other.num << -d",
        "return self.num << other.exp < other.num << self.exp",
        ("tests/test_words.py::test_comparison_shifts_by_the_exponents_difference",),
    ),
    Mutant(  # distant values are then shifted apart: 12.5 MB at the test's first pair
        "Dyadic.__lt__ without the magnitude test",
        "words.py",
        "        if m != n:\n            return m < n\n",
        "",
        ("tests/test_words.py::test_comparison_decides_distant_magnitudes_without_shifting",),
    ),
    Mutant(
        "no trailing-zero shift in Dyadic",
        "words.py",
        "shift = min((num & -num).bit_length() - 1, exp) if num else exp",
        "shift = 0 if num else exp",
        ("tests/test_words.py::test_huge_exponents_normalize_at_once",),
    ),
)


def stale(mutant: Mutant) -> str:
    """Why the entry no longer fits the code, or "" if it does: its old text
    must occur exactly once and each named test must be defined."""
    count = (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.file}"
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = ROOT / path
        if not source.is_file() or f"def {name.split('[')[0]}(" not in source.read_text():
            return f"no test {node}"
    return ""


def run(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit status on `tests`, run against a copy of `src/` with
    `mutant` applied: 0 when every test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "src" / "thompsonf"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            path = package / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    reasons = {m.name: stale(m) for m in MUTANTS}
    # a mutant counts as killed when its tests fail, which means nothing
    # unless they pass on the unmutated code
    if run(dict.fromkeys(node for m in MUTANTS if not reasons[m.name] for node in m.tests)):
        print("the named tests fail on the unmutated code")
        return 1
    bad = 0
    for mutant in MUTANTS:
        reason = reasons[mutant.name]
        if reason:
            verdict = f"STALE ({reason})"
        elif run(mutant.tests, mutant):
            verdict = "KILLED, expected to survive" if mutant.survives else "killed"
        else:
            verdict = "survived (expected)" if mutant.survives else "SURVIVED"
        bad += verdict not in ("killed", "survived (expected)")
        print(f"{verdict:<12} {mutant.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not as recorded, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
