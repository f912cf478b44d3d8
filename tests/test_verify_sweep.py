"""Every single-leaf change to a certificate fails `qx verify`, unless it still
states true facts of one of five benign kinds, each decided by a predicate."""
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import qx.cli
from qx.dsl import compile_program, parse
from qx.expr import Context
from qx.exprtext import parse_expr
from qx.interval import precision_ceiling
from qx.ladders import Relation, descend, relation_holds
from qx.minpoly import IntPoly

HERE = Path(__file__).parent
GOLDEN = sorted(HERE.glob("golden/*.json"))
PROGRAMS = [HERE / "corpus" / name for name in
            ("07_trisect_right.qdx", "08_reverse_third.qdx", "10_general_anglesect.qdx")]
REDUCE = ["reduce", "log(6; -1) + log(2; -1) + log(3; -1)", "--ascend"]
ENDPOINT = re.compile(r"-?[0-9]+(\.[0-9]+)?")
DECIMAL = re.compile(r"-?[0-9]+\.[0-9]+")
FINE = Fraction(1, 1 << 200)


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qx.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _certificates() -> dict:
    certs = {path.name: json.loads(path.read_text()) for path in GOLDEN}
    for argv in [["compile", str(path)] for path in PROGRAMS] + [REDUCE]:
        code, out, err = run(argv)
        assert code == 0, err
        certs[" ".join(argv[:2])] = json.loads(out)
    return certs


def _mutations(v, path=()):
    """(path, kind, replacement) for every single-leaf change below v: ints
    +-1, bools flipped, strings altered (and decimals given one more digit),
    list items dropped, duplicated or reversed, keys deleted. A replacement
    of None under kind "delete" removes the key at path."""
    if type(v) is bool:
        yield path, "flip", not v
    elif type(v) is int:
        yield path, "+1", v + 1
        yield path, "-1", v - 1
    elif type(v) is str:
        yield path, "alter", v + "x"
        if DECIMAL.fullmatch(v):
            yield path, "digit", v + "7"
    elif type(v) is list:
        for i in range(len(v)):
            yield path, f"drop {i}", v[:i] + v[i + 1:]
            yield path, f"duplicate {i}", v[:i + 1] + v[i:]
        if v[::-1] != v:
            yield path, "reverse", v[::-1]
        for i, item in enumerate(v):
            yield from _mutations(item, path + (i,))
    elif type(v) is dict:
        for key, item in v.items():
            yield path + (key,), "delete", None
            yield from _mutations(item, path + (key,))


def _apply(cert, path, kind, replacement):
    mutated = json.loads(json.dumps(cert))
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return mutated


def _at(v, path):
    for key in path:
        v = v[key]
    return v


def _subjects(cert) -> dict:
    """Key path of each subject of cert -> (the value it names, its Context)."""
    if cert["command"] == "compile":
        result = compile_program(parse(cert["program"]))
        return {("emits", name): (v, result.ctx) for name, v in result.values.items()}
    ctx = Context(Fraction(cert["ladder"]["base"]) if "ladder" in cert else -1)
    return {("subject",): (parse_expr(cert["subject"]["expr"], ctx), ctx)}


def _contains(enc, value) -> bool:
    """(a) The enclosure, in the syntax qx writes, contains the value."""
    if type(enc) is not dict or "re" not in enc or not enc.keys() <= {"re", "im"}:
        return False
    fine = value.enclosure(FINE)
    for part in ("re", "im"):
        bounds = enc.get(part, ["0", "0"])
        if (type(bounds) is not list or len(bounds) != 2
                or not all(type(b) is str and ENDPOINT.fullmatch(b) for b in bounds)):
            return False
        got = getattr(fine, part)
        if not Fraction(bounds[0]) <= got.lo.to_fraction() <= got.hi.to_fraction() \
                <= Fraction(bounds[1]):
            return False
    return True


def _multiple(witness, recomputed) -> bool:
    """(b) A nonzero multiple in Z[x] of the recomputed witness."""
    if type(witness) is not list or any(type(c) is not int for c in witness):
        return False
    poly = IntPoly.new(witness)
    return not poly.is_zero() and poly.exact_quotient(IntPoly.new(recomputed)) is not None


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _writers_fields(sub, value, subjects: int) -> bool:
    """(c) The only subject, stated at another precision as the writer states it there."""
    digits = sub.get("precision_digits")
    if subjects != 1 or type(digits) is not int:
        return False
    written = qx.cli._subject_json(value, digits)
    rest = {k: v for k, v in sub.items() if k not in ("enclosure", "expr", "node")}
    return (_same(rest, {k: v for k, v in written.items() if k != "enclosure"})
            and _contains(sub.get("enclosure"), value))


def _holds_at(mutated, path, cert, value, ctx) -> bool:
    """(e) A heuristic relation at another precision, where it still holds."""
    removals = cert["reduced"]["removals"]
    relation = removals[path[2]]["relation"]
    bits = _at(mutated, path)
    if (relation["confidence"] != "heuristic" or type(bits) is not int
            or not 1 <= bits <= precision_ceiling()):
        return False
    rungs = [r.value for r in descend(value, ctx).rungs]
    index = removals[path[2]]["index"]
    removed = {rm["index"] for rm in removals}
    kept = [v for i, v in enumerate(rungs[:index]) if i not in removed]
    related = kept[:len(relation["coefficients"]) - 2] + [rungs[index]]
    return relation_holds(Relation(tuple(relation["coefficients"]), "heuristic", bits), related)


def _benign(cert, mutated, path, kind) -> bool:
    subjects = _subjects(cert)
    if path == ("ascent",) and kind == "delete":  # (d) what `ladder --reduce` writes
        return True
    if len(path) == 5 and path[:2] == ("reduced", "removals") and \
            path[3:] == ("relation", "precision_bits"):
        (value, ctx), = subjects.values()
        return _holds_at(mutated, path, cert, value, ctx)
    for at, (value, _) in subjects.items():
        if path[:len(at)] != at or len(path) == len(at):
            continue
        sub, rel = _at(mutated, at), path[len(at):]
        if rel[0] == "enclosure":
            return _contains(sub.get("enclosure"), value)
        if rel[:2] == ("verdict", "witness"):
            return _multiple(sub["verdict"].get("witness"),
                             _at(cert, at)["verdict"]["witness"])
        if rel == ("precision_digits",):
            return _writers_fields(sub, value, len(subjects))
    return False


def test_every_single_leaf_mutation_fails_verify_unless_it_states_true_facts(tmp_path):
    file = tmp_path / "mutated.json"
    tried, survived = 0, []
    for name, cert in _certificates().items():
        for path, kind, replacement in _mutations(cert):
            mutated = _apply(cert, path, kind, replacement)
            if _same(mutated, cert):
                continue
            # every other one in the layout qx writes
            file.write_text(qx.cli._dump(mutated) if tried % 2 else json.dumps(mutated))
            code, out, err = run(["verify", str(file)])
            tried += 1
            where = f"{name} {'/'.join(map(str, path))} {kind}"
            if code == 0:
                assert _benign(cert, mutated, path, kind), f"{where} verifies"
                survived.append(where)
            else:
                assert code == 1 and err.startswith("FAIL ") and "Traceback" not in err, \
                    (where, code, err)
    assert tried > 1000
    assert survived  # the benign kinds occur; each was checked above
