"""
The ``forgot`` command line tool.

Subcommands expose the library operations (classes, class-of, canonical,
insert, ribbons, phi, ns, commute) and the exhaustive verification suites
(verify).  All results go to stdout, errors to stderr.  Exit codes: 0 on
success, 1 on a violation, 2 on a parse or usage error, 3 on a domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import re
import sys
from typing import Callable, Iterable, Iterator, Sequence

from . import forgotten, qsym, verify, words
from .perms import DECIMAL, ParseError, format_permutation, parse_permutation

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

LISTING_CAP = 50
# canonical --key builds and prints a word of n letters: about 0.3 s and
# 130 MB as text at the cap.
CANONICAL_CAP = 1_000_000
SHAPE_CAP = 20
# class-of lists at most this many members, and ribbons --vars at most this
# many exponent vectors, C(n + M - 1, M - 1).  Cold, best of 3 on a 2-core
# Intel Xeon: class-of takes 0.25 s at the cap at n = 10 and 0.45 s on the
# largest class under it at n = 50 (57,526 members); ribbons --vars 0.38 s at
# n = M = 10.
ITEM_CAP = 100_000
# commute searches min(q, i + j) letters; 4 5 at 5, the slowest, takes 0.04 s.
COMMUTE_ALPHABET_CAP = 5
# A full confluence scan of 100,000 words takes about 1 s.
CONFLUENCE_SCAN_CAP = 100_000
CONFLUENCE_LIMIT = 5
# phi and ns take about 0.8 s on a word of this many letters; above 255 the
# transform rotates block by block, quadratic in n.
TRANSFORM_CAP = 2_500


def integer(text: str) -> int:
    """An integer option: ASCII decimal digits after an optional minus sign."""
    if not re.fullmatch(f"-?{DECIMAL}", text, re.ASCII):
        raise ValueError(text)
    return int(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _emit(args: argparse.Namespace, payload: Callable[[], dict], lines: Callable[[], Iterable[str]]) -> int:
    """Print the payload under --json, else the text lines; only the one printed is built."""
    if args.json:
        print(json.dumps(payload(), check_circular=False))  # every payload is a fresh tree
    else:
        for line in lines():
            print(line)
    return EXIT_OK


def _cmd_classes(args: argparse.Namespace) -> int:
    n = args.n
    _require(n >= 2, f"need n >= 2, got {n}")
    _require(n <= LISTING_CAP or args.force, f"n={n} beyond the listing cap {LISTING_CAP} (use --force)")
    records = [(key, forgotten.canonical_of_key(key), size) for key, size in forgotten.class_sizes(n).items()]
    return _emit(args, lambda: {"n": n, "classes": [
        {"key": key.to_json_dict(), "canonical": canonical, "size": size} for key, canonical, size in records
    ]}, lambda: (
        f"{key}  canonical={format_permutation(canonical)}  size={size}" for key, canonical, size in records
    ))


def _cmd_class_of(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    n = len(p)
    _require(n >= 2, "need a permutation of size >= 2")
    _require(n <= LISTING_CAP or args.force, f"n={n} beyond the listing cap {LISTING_CAP} (use --force)")
    key = forgotten.class_key(p)
    if not args.force:
        size = forgotten.class_sizes(n)[key]  # closed form, before any member is built
        _require(size <= ITEM_CAP, f"{size} members beyond the cap {ITEM_CAP} (use --force)")
    # Each member as text, its letters joined by sep between left and right,
    # in lexicographic order: the members of a walk block share all but
    # their last min(5, n) letters, so each block's prefix is formatted once.
    sep, left, right = (", ", "[", "]") if args.json else (",", "", "")
    letters = list(map(str, range(n + 1)))
    spaced = [text + sep for text in letters]
    members: list[str] = []
    for prefix, unused, getters in forgotten._member_blocks(key):
        head = left + "".join([spaced[x] for x in prefix])
        tail = [letters[x] for x in (0, *unused)]
        members += [head + sep.join(get(tail)) + right for get in getters]
    if args.json:  # as json.dumps writes the payload
        print(f'{{"key": {json.dumps(key.to_json_dict())}, "canonical": {members[0]}, '
              f'"size": {len(members)}, "members": [{", ".join(members)}]}}')
    else:
        print(f"key: {key}\ncanonical: {members[0]}\nsize: {len(members)}\nmembers: {' '.join(members)}")
    return EXIT_OK


def _cmd_canonical(args: argparse.Namespace) -> int:
    key = forgotten.parse_class_key(args.key)
    _require(key.n <= CANONICAL_CAP or args.force, f"n={key.n} beyond the canonical cap {CANONICAL_CAP} (use --force)")
    form = forgotten.form_of_key(key)
    word = forgotten.canonical_word(form)
    return _emit(args, lambda: {"key": key.to_json_dict(), "canonical": word, "form": str(form)},
                 lambda: [f"canonical: {format_permutation(word)}", f"form: {form}"])


def _cmd_insert(args: argparse.Namespace) -> int:
    w = parse_permutation(args.word)
    form = forgotten.insert_form(w, args.letter)
    result = forgotten.canonical_word(form)
    return _emit(args, lambda: {"result": result, "form": str(form)},
                 lambda: [f"result: {format_permutation(result)}", f"form: {form}"])


def _cmd_ribbons(args: argparse.Namespace) -> int:
    if (args.key is None) == (args.perm is None):
        raise ValueError("give exactly one of --key or --perm")
    if args.key is not None:
        key = forgotten.parse_class_key(args.key)
    else:
        key = forgotten.class_key(parse_permutation(args.perm))
    _require(key.n <= SHAPE_CAP or args.force, f"n={key.n} beyond the expansion cap {SHAPE_CAP} (use --force)")
    expansion = qsym.ribbon_expansion(key)
    total = None
    if args.vars is not None:
        num_vars = args.vars or key.n
        _require(num_vars <= key.n or args.force, f"M={num_vars} above n={key.n}; n variables fix the sum (use --force)")
        if num_vars >= 1 and not args.force:
            terms = math.comb(key.n + num_vars - 1, num_vars - 1)
            _require(terms <= ITEM_CAP, f"{terms} terms in {num_vars} variables beyond the cap {ITEM_CAP} (use --force)")
        total = qsym.class_qsym_sum(key, num_vars)

    def payload() -> dict:
        out = {"key": key.to_json_dict(), "compositions": sorted(expansion)}
        if total is not None:
            # total lists its vectors in lexicographic order, and json writes tuples as lists
            terms = [{"exp": exponents, "coeff": coeff} for exponents, coeff in total.items()]
            out.update(vars=num_vars, sum={"m": num_vars, "degree": key.n, "terms": terms})
        return out

    def lines() -> Iterator[str]:
        yield " + ".join("r[" + ",".join(map(str, parts)) + "]" for parts in sorted(expansion)) or "0"
        if total is not None:
            # powers[i][e] is x_(i+1)^e as printed, empty for e = 0
            powers = [["", f"x{i}", *(f"x{i}^{e}" for e in range(2, key.n + 1))] for i in range(1, num_vars + 1)]
            terms = " ".join(
                f"{total[exponents]:+d}*" + "*".join(filter(None, map(list.__getitem__, powers, exponents)))
                for exponents in reversed(total)
            )
            yield f"sum[m={num_vars}]: {terms or 0}"

    return _emit(args, payload, lines)


def _cmd_transform(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    _require(len(p) <= TRANSFORM_CAP or args.force, f"n={len(p)} beyond the transform cap {TRANSFORM_CAP} (use --force)")
    image = args.transform(p)
    return _emit(args, lambda: {"input": p, "result": image}, lambda: [format_permutation(image)])


def _cmd_commute(args: argparse.Namespace) -> int:
    q, top = args.alphabet, min(args.alphabet, args.i + args.j)
    _require(top <= COMMUTE_ALPHABET_CAP or args.force, f"{top} letters beyond the cap {COMMUTE_ALPHABET_CAP} (use --force)")
    commutes = words.commute_check(args.i, args.j, q)
    return _emit(args, lambda: {"i": args.i, "j": args.j, "alphabet": q, "commutes": commutes}, lambda: [
        f"e_{args.i} e_{args.j} {'=' if commutes else '!='} e_{args.j} e_{args.i} over 1..{q}"
    ])


def _cmd_confluence(args: argparse.Namespace) -> int:
    q, max_len = args.alphabet, args.max_len
    _require(q >= 1, f"need an alphabet of size >= 1, got {q}")
    if not args.force:
        # running totals, so a huge --max-len stops at the first one past the cap
        scanned = itertools.accumulate(q ** length for length in range(3, max_len + 1))
        _require(all(s <= CONFLUENCE_SCAN_CAP for s in scanned),
                 f"more than {CONFLUENCE_SCAN_CAP} words to scan (use --force)")
    found = words.orientation_counterexamples(max_len, q, limit=args.limit)

    def payload() -> dict:
        counterexamples = [{"word": w, "endpoints": endpoints} for w, endpoints in found]
        return {"alphabet": q, "maxLen": max_len, "counterexamples": counterexamples}

    def lines() -> Iterator[str]:
        if not found:
            yield f"descending rewrites are confluent on all words of length <= {max_len} over 1..{q}"
            return
        yield f"{len(found)} counterexample(s) to descending-rewrite confluence (len <= {max_len}, q = {q}):"
        # few distinct words recur in many lines, so each is formatted once
        text = functools.cache(lambda w: "(" + ",".join(map(str, w)) + ")")
        for w, endpoints in found:
            yield f"  {text(w)} stalls at {'  '.join(map(text, endpoints))}"

    return _emit(args, payload, lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite, max_n=args.max_n, force=args.force)
    passed = sum(r.passed for r in results)
    _emit(args, lambda: {
        "suite": args.suite, "passed": passed == len(results), "checks": [dataclasses.asdict(r) for r in results],
    }, lambda: [*(r.line() for r in results), f"{passed}/{len(results)} checks passed"])
    return EXIT_OK if passed == len(results) else EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forgot",
        description="Forgotten-monoid computations and verification suites.",
    )
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print the top 15 rows by cumulative time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--force", action="store_true", help="lift the documented safety caps")
        return p

    p = add("classes", _cmd_classes, "list every class of S_n with key and canonical word")
    p.add_argument("--n", type=integer, required=True, help="permutation size, at most 50 without --force")

    p = add("class-of", _cmd_class_of, "key, canonical word, and full membership of one class")
    p.add_argument("perm", help="permutation, e.g. 12543 or 8,4,2,9,5,6,1,3,7")

    p = add("canonical", _cmd_canonical, "canonical word of a class key")
    p.add_argument("--key", required=True, help="class key, e.g. 5,3,1n or 8,10,n1")

    p = add("insert", _cmd_insert, "insert a letter into a canonical word")
    p.add_argument("word", help="canonical word of size n-1")
    p.add_argument("letter", type=integer, help="letter in 0..n-1")

    p = add("ribbons", _cmd_ribbons, "ribbon expansion of a class")
    p.add_argument("--key", help="class key, e.g. 8,10,n1")
    p.add_argument("--perm", help="any member of the class")
    p.add_argument(
        "--vars", type=integer, nargs="?", const=0, default=None, metavar="M",
        help="also evaluate the ribbon sum in M <= n variables (omit M or give 0 to use n)",
    )

    for name, transform, help_text in (
        ("phi", qsym.foata, "Foata transform of a permutation"),
        ("ns", qsym.ns_map, "inverse-conjugated Foata transform of a permutation"),
    ):
        p = add(name, _cmd_transform, help_text)
        p.set_defaults(transform=transform)
        p.add_argument("perm")

    p = add("commute", _cmd_commute, "check e_i e_j = e_j e_i in the quotient")
    p.add_argument("i", type=integer)
    p.add_argument("j", type=integer)
    p.add_argument("--alphabet", type=integer, default=3, help="alphabet size (default 3)")

    p = add("confluence", _cmd_confluence, "look for counterexamples to descending-rewrite confluence")
    p.add_argument("--alphabet", type=integer, default=3, help="alphabet size (default 3)")
    p.add_argument("--max-len", type=integer, default=5, help="longest word to scan (default 5)")
    p.add_argument("--limit", type=integer, default=CONFLUENCE_LIMIT, help="stop after this many counterexamples (default 5)")

    p = add("verify", _cmd_verify, "run an exhaustive verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES), help="which suite to run")
    p.add_argument("--max-n", type=integer, default=None, help="cap the sweep size (clamped to suite defaults unless --force)")

    return parser


# Built once: no action appends, and each parse_args call makes a fresh Namespace.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage message
        if not exc.code:  # --help
            raise
        return EXIT_PARSE
    if not args.profile:
        return _run(args)
    # about 3 ms of imports, paid only when profiling
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_run, args)
    finally:
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(15)


def _run(args: argparse.Namespace) -> int:
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
