"""Command-line surface: axiom checks, Mobius tables, Rota verdicts.

Exit codes: 0 all checks pass, 1 a semantic check fails (axiom failure,
inequality, refused certification), 2 unreadable or schema-invalid input
or an argument out of range.
Builtin instances ship in-package so the headline computations run with
zero assets:

    moebiuskit check builtin:layered-posets --profile decomposition --grade 3
    moebiuskit mobius builtin:posets --n 3
    moebiuskit rota builtin:sets-posets --grade 4

Instance files are UTF-8 JSON documents with a "kind" field: poset,
category, adjunction or correspondence (see README for the schemas).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import bicomodule as bc
from . import catposet as cp
from . import examples as ex
from . import incidence as inc
from . import simplicial as sp
from .groupoid import DomainError, StructureError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load_json(path):
    if path.startswith("builtin:"):
        raise InputError(f"unknown builtin {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read instance file {path!r}: {e}")
    if not isinstance(doc, dict):
        raise InputError(f"instance file {path!r} must hold a JSON object")
    return doc


def _as_list(raw, what):
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a JSON array")
    return raw


def _as_tuples(raw, what, size=2):
    if not all(isinstance(p, list) and len(p) == size for p in _as_list(raw, what)):
        raise InputError(f"{what} must be a JSON array of {size}-item arrays")
    return [tuple(p) for p in raw]


def load_poset(doc) -> cp.FinPoset:
    try:
        return cp.FinPoset(_as_list(doc["elements"], "elements"),
                           _as_tuples(doc.get("relations", []), "relations"))
    except (KeyError, TypeError) as e:
        raise InputError(f"invalid poset document: {e}")
    except (StructureError, DomainError) as e:
        raise InputError(f"invalid poset: {e}")


def load_category(doc) -> cp.FinCategory:
    try:
        mors = {m["id"]: (m["src"], m["tgt"]) for m in _as_list(doc["morphisms"], "morphisms")}
        compose = {(f, g): h for f, g, h in _as_tuples(doc["compose"], "compose", 3)}
        idents = dict(_as_tuples(doc["identities"], "identities"))
        cat = cp.FinCategory(_as_list(doc["objects"], "objects"), mors, compose, idents)
        cat.validate()
        return cat
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"invalid category document: {e}")
    except (StructureError, DomainError) as e:
        raise InputError(f"invalid category: {e}")


def _load_side(doc):
    if not isinstance(doc, dict):
        raise InputError("an adjunction side must be a JSON object")
    if doc.get("kind", "poset") == "poset":
        return cp.FinCategory.from_poset(load_poset(doc))
    return load_category(doc)


def _checked_adjunction(F, G) -> cp.Adjunction:
    checked = cp.check_adjunction(F, G)
    if not checked:
        raise InputError(f"not an adjunction: witness {checked.witness!r}")
    return checked.adjunction


def load_adjunction(doc) -> cp.Adjunction:
    """The checked adjunction F -| G of a document: g right adjoint to f."""
    try:
        X = _load_side(doc["left"])
        Y = _load_side(doc["right"])
        F = cp.FinFunctor(X, Y, dict(_as_tuples(doc["f"], "f")))
        G = cp.FinFunctor(Y, X, dict(_as_tuples(doc["g"], "g")))
    except (KeyError, TypeError) as e:
        raise InputError(f"invalid adjunction document: {e}")
    except StructureError as e:
        raise InputError(f"invalid adjunction data: {e}")
    return _checked_adjunction(F, G)


def load_correspondence(doc):
    try:
        cat = load_category(doc["category"])
        labels = dict(_as_tuples(doc["labels"], "labels"))
        return cp.CorrespondenceCat(cat, labels)
    except (KeyError, TypeError) as e:
        raise InputError(f"invalid correspondence document: {e}")
    except StructureError as e:
        raise InputError(f"invalid correspondence: {e}")


def chain_adjunction() -> cp.Adjunction:
    """The battery adjunction F : {0<1<2} <-> {0<1} : G."""
    P = cp.chain_poset(3)
    Q = cp.chain_poset(2)
    return _checked_adjunction(cp.poset_functor(P, Q, {0: 0, 1: 0, 2: 1}),
                               cp.poset_functor(Q, P, {0: 1, 1: 2}))


def _load_target(target):
    """The checked adjunction of builtin:chain-adjunction or of an
    adjunction document, else the document of an instance file."""
    if target == "builtin:chain-adjunction":
        return chain_adjunction()
    doc = _load_json(target)
    return load_adjunction(doc) if doc.get("kind") == "adjunction" else doc


# -- output ---------------------------------------------------------------------


def emit_rows(rows, header, fmt):
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], default=str))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def _at_least(value, low, option):
    """The value of the integer option `option`, refused below low."""
    if value < low:
        raise InputError(f"{option} must be >= {low}, got {value}")
    return value


def _size(value, option):
    """The value of the size option `option` (--grade, --n): 3 when not
    given, refused below 0."""
    return 3 if value is None else _at_least(value, 0, option)


def _no_effect(args, *options):
    """Refuse each of the options, given on a target it does nothing for."""
    for option in options:
        if getattr(args, option[2:]) is not None:
            raise InputError(f"{option} has no effect on {args.target}")


def _refused(e) -> int:
    """Report a refused certification of finite length; exit 1."""
    print(f"refused: {e} (locally finite length hypothesis)", file=sys.stderr)
    return EXIT_FAIL


def _bound(args):
    """The value of --bound on a document target: None when not given,
    refused below 0."""
    return None if args.bound is None else _at_least(args.bound, 0, "--bound")


def _describe_key(key) -> str:
    """The row label of a 1-layered poset key."""
    m, rels = len(key[2]), key[3]
    if not rels:
        return f"discrete{m}"
    return f"poset{m}:{','.join(f'{a}<{b}' for a, b in rels)}"


# -- check ----------------------------------------------------------------------


def _space_for_check(target, args):
    if target == "builtin:layered-posets" or target == "builtin:posets":
        return ex.layered_posets(_size(args.grade, "--grade")), None
    if target == "builtin:layered-sets" or target == "builtin:sets":
        return ex.layered_sets(_size(args.grade, "--grade")), None
    if target == "builtin:sets-posets":
        return None, ex.sets_posets_bicomodule(_size(args.grade, "--grade"))
    doc = _load_target(target)
    _no_effect(args, "--grade")
    if isinstance(doc, cp.Adjunction):
        return None, cp.correspondence_bisimplicial(cp.mapping_cylinder(doc.F), 3, 3)
    kind = doc.get("kind")
    if kind == "poset":
        return cp.nerve(load_poset(doc), max_level=args.max_level + 3), None
    if kind == "category":
        return cp.nerve(load_category(doc), max_level=args.max_level + 3), None
    if kind == "correspondence":
        corr = load_correspondence(doc)
        return None, cp.correspondence_bisimplicial(corr, 3, 3)
    raise InputError(f"unsupported kind {kind!r}")


def cmd_check(args) -> int:
    _at_least(args.max_level, 1, "--max-level")
    space, grid = _space_for_check(args.target, args)
    if grid is not None:
        if args.profile not in (None, "configuration"):
            raise InputError(f"profile {args.profile!r} does not apply to a "
                             "bicomodule grid; grids take 'configuration'")
        report = bc.validate_configuration(grid, args.max_level)
    else:
        if args.profile == "configuration":
            raise InputError("profile 'configuration' needs a bicomodule grid; "
                             "spaces take identities, segal, decomposition or complete")
        profile = args.profile or "segal"
        n_max = min(args.max_level, space.max_level - (3 if profile == "decomposition" else 1))
        report = sp.check_axioms(space, profile, max(sp._least_n_max(profile) or 0, n_max))
    lines = report.lines()
    if args.format == "json":
        print(json.dumps({"passed": report.passed, "report": lines}))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if report.passed else EXIT_FAIL


# -- mobius ---------------------------------------------------------------------


def cmd_mobius(args) -> int:
    fmt = args.format
    if args.target in ("builtin:posets", "builtin:layered-posets"):
        _no_effect(args, "--interval", "--bound")
        rows = []
        for P, _aut in ex.enumerate_posets(_size(args.n, "--n")):
            mu = ex.mu_posets(P, route="direct")
            rows.append((_describe_key(ex.poset_key(P)), mu))
        emit_rows(rows, ["class", "mu"], fmt)
        return EXIT_OK
    if args.target in ("builtin:sets", "builtin:layered-sets"):
        _no_effect(args, "--interval", "--bound")
        n = _size(args.n, "--n")
        X = ex.layered_sets(n, max_level=max(2, n))
        key = (1, 0, (1,) * n, ())
        emit_rows([(f"set({n},)", inc.mobius(X, key))], ["class", "mu"], fmt)
        return EXIT_OK
    doc = _load_json(args.target)
    _no_effect(args, "--n")
    bound = _bound(args)
    kind = doc.get("kind")
    if kind == "poset":
        P = load_poset(doc)
        C = cp.FinCategory.from_poset(P)
        if args.interval is None:
            pairs = P.intervals()
        else:
            elems = {str(x): x for x in P.elements}
            a, b = (elems.get(x, x) for x in args.interval)
            if not P.leq(a, b):
                raise InputError(f"[{a!r}, {b!r}] is not an interval of the poset")
            pairs = [(a, b)]
        try:
            rows = [((a, b), cp.classical_mobius(C, ("le", a, b), bound)) for (a, b) in pairs]
        except DomainError as e:
            return _refused(e)
        emit_rows(rows, ["interval", "mu"], fmt)
        return EXIT_OK
    if kind == "category":
        _no_effect(args, "--interval")
        C = load_category(doc)
        report = cp.is_mobius_category(C, bound)
        if not report:
            print(f"refused: not a Mobius category ({report.witness}); "
                  "the locally finite length hypothesis fails", file=sys.stderr)
            return EXIT_FAIL
        rows = [(m, cp.classical_mobius(C, m, bound)) for m in C.morphisms]
        emit_rows(rows, ["morphism", "mu"], fmt)
        return EXIT_OK
    raise InputError(f"mobius does not support kind {kind!r}")


# -- rota -----------------------------------------------------------------------


def _adjunction_rows(adj: cp.Adjunction, bound):
    return [((x, y), *cp.rota_direct(adj, x, y, bound))
            for x in adj.F.source.objects for y in adj.F.target.objects]


def cmd_rota(args) -> int:
    if args.target == "builtin:sets-posets":
        _no_effect(args, "--bound")
        grade = _size(args.grade, "--grade")
        B = ex.sets_posets_bicomodule(grade, max_i=max(2, grade), max_j=max(2, grade))
        rows = [(_describe_key(ex.canonical_key(rep)), *bc.rota_evaluate(B, rep))
                for rep in B.cell(0, 0).iso_classes().reps]
    else:
        adj = _load_target(args.target)
        if not isinstance(adj, cp.Adjunction):
            raise InputError("rota needs an adjunction document or a builtin")
        _no_effect(args, "--grade")
        bound = _bound(args)
        try:
            rows = _adjunction_rows(adj, bound)
        except DomainError as e:
            return _refused(e)
    if args.at:
        rows = [r for r in rows if str(r[0]) == args.at]
        if not rows:
            raise InputError(f"--at {args.at!r} matches no row")
    rows = [(at, lhs, rhs, "ok" if lhs == rhs else "MISMATCH") for at, lhs, rhs in rows]
    emit_rows(rows, ["at", "lhs", "rhs", "verdict"], args.format)
    return EXIT_OK if all(r[3] == "ok" for r in rows) else EXIT_FAIL


# -- entry ----------------------------------------------------------------------


@functools.cache
def build_parser():
    """The command-line parser, built once per process; parsing leaves no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="moebiuskit",
        description="Exact incidence coalgebras, Mobius inversion and Rota formulas")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run axiom or configuration checks")
    pc.add_argument("target")
    pc.add_argument("--profile", default=None,
                    choices=["identities", "segal", "decomposition", "complete",
                             "configuration"],
                    help="default: segal on spaces, configuration on grids")
    pc.add_argument("--max-level", type=int, default=2)
    pc.add_argument("--grade", type=int, default=None,
                    help="builtin spaces and grids only; default: 3")
    pc.add_argument("--format", default="text", choices=["text", "json"])
    pc.set_defaults(fn=cmd_check)

    pm = sub.add_parser("mobius", help="Mobius function tables")
    pm.add_argument("target")
    pm.add_argument("--n", type=int, default=None, help="builtins only; default: 3")
    pm.add_argument("--interval", nargs=2, default=None, help="poset documents only")
    pm.add_argument("--bound", type=int, default=None, help="documents only")
    pm.add_argument("--format", default="text", choices=["text", "json", "csv"])
    pm.set_defaults(fn=cmd_mobius)

    pr = sub.add_parser("rota", help="evaluate both sides of a Rota formula")
    pr.add_argument("target")
    pr.add_argument("--grade", type=int, default=None,
                    help="builtin:sets-posets only; default: 3")
    pr.add_argument("--bound", type=int, default=None, help="adjunctions only")
    pr.add_argument("--at", default=None)
    pr.add_argument("--format", default="text", choices=["text", "json", "csv"])
    pr.set_defaults(fn=cmd_rota)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (sp.InsufficientLevelsError, inc.MobiusCertificateError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (InputError, DomainError, StructureError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout early; keep the exit-time flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
