"""Command line front end.

Subcommands cover the full pipeline: construct the twist data, verify its
invariants, evaluate norms and positivity of field elements, inspect the
obstruction groups of a model, decide attainability of a kernel class, and
sweep a range of primes into a CSV summary.

Randomized checks draw from a seeded generator so runs are reproducible:
an explicit --seed wins, then the POLOBSTRUCT_SEED environment variable,
then the built-in default. All output is deterministic for a fixed seed.

Exit codes: 0 for an answered query (an attainable class answered "no"
among them), 1 when verify finds a failing check, 2 bad input. Every check
of outside input raises BadInput, which main alone reports, as one
"error: ..." line on stderr and exit code 2 (argparse reports its own usage
errors). A library ValueError becomes BadInput only where the CLI hands
the library outside text, so a fault in a computation still ends in a
traceback. Every integer from the command line, the environment, an
element or a model file's center is plain ASCII digits with an optional
sign (parse_int). A -p or --pmax above MAX_P is bad input, rejected before
any primality test or allocation; so is an element whose field tag exceeds
it, and a model file whose center prime or ramified entries do.

Run as ``polobstruct <command>`` or ``python -m polobstruct.cli <command>``.
main reads a command line in the plain form straight from COMMANDS and
builds no parser: a known command, then that command's own flags, each
once with a value, then its positionals, where a value is a token that
does not start with "-" or a negative integer, and each value parses with
its flag's type. Any other line (no command, -h, --flag=value, -p7, an
abbreviation, a repeated flag, --, an unknown token or a value that does
not parse) goes to a full build_parser(), built afresh on each call, so
argparse alone prints help and usage errors, and argparse is imported
only then.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from .cyclotomic import (
    MAX_P,
    CycElem,
    is_odd_prime,
    is_totally_positive,
    norm_to_Q,
    parse_element,
)
from .galmod import e_rank_of_order, filtration_dims, polarization_parity
from .intlinalg import Matrix, Record, matrix_to_json, parse_int
from .kergroup import (
    DEFAULT_SEED,
    KerClass,
    ModelDescriptor,
    attainable,
    b1_group,
    b2_group,
    parity_hom,
    twist_model,
)
from .twist import CONSTRUCTION_CHECKS, TwistData, central_degree, endo_descends

_SEED_ENV = "POLOBSTRUCT_SEED"


class BadInput(Exception):
    """Input from outside the program that a command refuses; main prints
    the message on one stderr line and returns 2."""


def _resolve_seed(explicit):
    if explicit is not None:
        return explicit
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return DEFAULT_SEED
    try:
        return parse_int(env)
    except ValueError:
        raise BadInput(f"{_SEED_ENV} must be an integer, got {env!r}")


class VerifyReport(Record):
    """Named pass/fail results of the deterministic check suite: checks is
    a tuple of (name, passed) pairs."""

    def __init__(self, p: int, seed: int, checks: tuple):
        self._set(p, seed, checks)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_json(self) -> str:
        checks = [{"name": n, "passed": v} for n, v in self.checks]
        return json.dumps({"p": self.p, "seed": self.seed, "ok": self.ok,
                           "checks": checks}, indent=2)


def run_verify_suite(p, seed=DEFAULT_SEED) -> VerifyReport:
    """Every structural invariant of the construction at one prime.

    Sample counts shrink as p grows so the suite stays fast at large p
    without losing the exhaustive matrix identities.

    No check takes a generic determinant, and none raises. The
    construction checks read the closed forms that TwistData decides once
    each (see CONSTRUCTION_CHECKS). degree_equals_norm_squared compares two
    independent computations for each nonzero sampled a = sum c_k zeta^k:
    its degree central_degree(a) = Res(psi_p, g)^2, by the sub-resultant
    algorithm over K+ on g = a conj(a) in eta-powers, and the square of the
    norm N(a), the product of a's conjugates mod moduli l = 1 (mod p),
    certified by omega's order and possibly composite, lifted by the
    Chinese remainder theorem (or a's power-sum pass, for the rare a that
    conjugation fixes), so a remainder sequence is compared
    with an evaluation at roots, and a zero norm fails it. det a(zeta) is
    the product of a(theta) over the roots theta of chi_zeta = Phi_p, which
    the orbit certificate proves; pairing theta with theta^(-1) makes it
    Res(psi_p, g). So the degree check fails whenever that certificate does.
    """
    rng = random.Random(seed)
    n = p - 1
    t = TwistData.for_prime(p)
    z = t.zeta
    checks = [(name, holds(t)) for name, holds in CONSTRUCTION_CHECKS]

    samples = 10 if p <= 13 else 3
    good = t.phi_p_annihilates_zeta
    for _ in range(samples):
        a = CycElem(p, rng.choices(range(-3, 4), k=n))
        if a.is_zero():
            continue
        good = good and central_degree(a) == norm_to_Q(a) ** 2
    checks.append(("degree_equals_norm_squared", good))

    # a zeta that commutes with every draw fails the check at the cap
    rejected = True
    found = draws = 0
    while found < samples and draws < 10 * samples:
        draws += 1
        # sparse draws: one entry of {-2, -1, 1, 2} per row, at a seeded column
        cols, vals = rng.choices(range(n), k=n), rng.choices((-2, -1, 1, 2), k=n)
        m = Matrix([(0,) * j + (v,) + (0,) * (n - 1 - j) for j, v in zip(cols, vals)])
        # the generic product, not endo_descends' shift, so the check
        # compares two computations
        if all(z.mul_vector(m.column(j)) == m.mul_vector(z.column(j))
               for j in range(n)):
            continue
        found += 1
        rejected = rejected and not endo_descends(m, t)
    checks.append(("noncommuting_rejected", rejected and found == samples))

    # two Jordan blocks of size p - 1 on X[p] imply the filtration dims
    checks.append(("composition_factors", t.two_jordan_blocks))

    # the E[p]-rank of a kernel of order deg(b) n^4, read off that order,
    # must be the closed form 1 + 2 v_p(n), and odd
    deg_b = t.polarization_degree

    def parity_holds(n):
        rank = e_rank_of_order(deg_b * n ** 4, p)
        return rank == polarization_parity(p, n) and rank.parity == 1

    ns = list(range(1, 20)) + [rng.randint(1, 10 ** 6) for _ in range(samples)]
    checks.append(("parity_odd", deg_b != 0 and all(map(parity_holds, ns))))
    return VerifyReport(p, seed, tuple((name, bool(v)) for name, v in checks))


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_p(name, p, odd_prime=True):
    """The cap is checked first, so an absurd p never reaches is_odd_prime."""
    if p > MAX_P:
        raise BadInput(f"{name} must be at most {MAX_P}, got {p}")
    if odd_prime and not is_odd_prime(p):
        raise BadInput(f"{name} must be an odd prime, got {p}")


def _cmd_construct(args) -> int:
    _check_p("p", args.p)
    t = TwistData.for_prime(args.p)
    t.check()
    if args.out:
        paths = []
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, mat in (("zeta.json", t.zeta), ("b.json", t.b)):
                paths.append(os.path.join(args.out, name))
                with open(paths[-1], "w") as fh:
                    json.dump(matrix_to_json(mat), fh, indent=2, sort_keys=True)
                    fh.write("\n")
        except OSError as exc:
            raise BadInput(f"cannot write to --out: {exc}")
        print("\n".join(paths))
    else:
        print(json.dumps({"p": args.p,
                          "zeta": matrix_to_json(t.zeta),
                          "b": matrix_to_json(t.b)}, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    _check_p("p", args.p)
    rep = run_verify_suite(args.p, _resolve_seed(args.seed))
    print(rep.to_json())
    return 0 if rep.ok else 1


def _cmd_parity(args) -> int:
    _check_p("p", args.p)
    if args.n < 1:
        raise BadInput("n must be a positive integer")
    r = polarization_parity(args.p, args.n)
    print(json.dumps({"p": args.p, "n": args.n,
                      "e_rank": r.value, "parity": r.parity}))
    return 0


def _element(text):
    try:
        return parse_element(text)
    except ValueError as exc:
        raise BadInput(exc)


def _cmd_norm(args) -> int:
    a = _element(args.element)
    try:
        print(Fraction(norm_to_Q(a)))
    except ValueError:  # str() of an int past sys.get_int_max_str_digits()
        raise BadInput("the norm has too many digits to print")
    return 0


def _cmd_tp(args) -> int:
    a = _element(args.element)
    try:
        verdict = is_totally_positive(a)
    except ValueError as exc:
        raise BadInput(exc)
    print("totally positive" if verdict else "not totally positive")
    return 0


def _load_model(path):
    try:
        with open(path) as fh:
            return ModelDescriptor.from_json(fh.read())
    # json.loads raises RecursionError on arrays nested past the limit
    except (OSError, ValueError, RecursionError) as exc:
        raise BadInput(f"cannot load model: {exc}")


def _cmd_bgroup(args) -> int:
    """B1, B2 and the known class's parity. B2 is exact for a type IV factor
    with center Q(zeta_p), as twist_model's, by b2_group's norm-square
    lemma; for any other model the true B2 is a quotient of the printed one."""
    model = _load_model(args.model)
    b1 = b1_group(model)
    b2 = b2_group(model)
    ic = KerClass(model.labels, model.s_c[0])
    print(json.dumps({
        "b1": str(b1),
        "b1_invariants": list(b1.invariant_factors),
        "b2": str(b2),
        "b2_invariants": list(b2.invariant_factors),
        "i_c_parity": parity_hom(ic, model.p),
        "phi_samples": len(model.phi_samples),
        "phi_samples_used": model.samples_used,
    }, indent=2))
    return 0


def _cmd_attainable(args) -> int:
    model = _load_model(args.model)
    try:
        vec = [parse_int(tok.strip()) for tok in args.cls.split(",")]
    except ValueError:
        raise BadInput(f"cannot parse class {args.cls!r}")
    if len(vec) != len(model.labels):
        raise BadInput(f"expected {len(model.labels)} coefficients")
    res = attainable(vec, model)
    print(f"attainable: {'yes' if res.ok else 'no'} ({res.reason})")
    return 0


def _sweep_row(p, seed):
    t = TwistData.for_prime(p)
    # a unit upper triangular T for the orbit of e1 proves rank p - 1
    if not t.orbit.unit_triangular:
        raise AssertionError(f"the orbit certificate fails at p = {p}")
    model = twist_model(p, seed, samples=2)
    return (
        p,
        t.b_minors[-1],
        t.polarization_degree,
        p - 1,
        len(filtration_dims(t)),
        parity_hom(KerClass(model.labels, model.s_c[0]), p),
    )


def _cmd_sweep(args) -> int:
    if args.pmax < 3:
        raise BadInput("--pmax must be at least 3")
    _check_p("--pmax", args.pmax, odd_prime=False)
    if args.jobs < 1:
        raise BadInput("--jobs must be at least 1")
    row = partial(_sweep_row, seed=_resolve_seed(None))
    primes = [p for p in range(3, args.pmax + 1) if is_odd_prime(p)]
    jobs = min(args.jobs, len(primes), os.cpu_count() or 1)
    import csv

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, primes))
    else:
        rows = [row(p) for p in primes]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["p", "det_b", "pol_degree", "centralizer_rank",
                     "filtration_length", "i_c_parity"])
    writer.writerows(rows)
    return 0


# one entry per command: (help, handler, [(flags, add_argument kwargs), ...])
_REQUIRED_INT = dict(type=parse_int, required=True)
_ELEMENT = (("element",), dict(help="element as 'p; c0, c1, ...'"))
COMMANDS = {
    "construct": ("emit the cocycle and pairing matrices", _cmd_construct, [
        (("-p",), dict(_REQUIRED_INT, help="odd prime")),
        (("--out",), dict(help="directory for zeta.json and b.json"))]),
    "verify": ("run the invariant check suite", _cmd_verify,
               [(("-p",), _REQUIRED_INT), (("--seed",), dict(type=parse_int))]),
    "parity": ("E[p]-rank of a pulled back polarization kernel", _cmd_parity, [
        (("-p",), _REQUIRED_INT),
        (("-n",), dict(_REQUIRED_INT, help="degree scaling factor"))]),
    "norm": ("rational norm of a field element", _cmd_norm, [_ELEMENT]),
    "tp": ("total positivity of a symmetric element", _cmd_tp, [_ELEMENT]),
    "bgroup": ("obstruction groups of a model", _cmd_bgroup,
               [(("--model",), dict(required=True, help="model descriptor JSON file"))]),
    "attainable": ("is a class a polarization kernel", _cmd_attainable, [
        (("--model",), dict(required=True)),
        (("--class",), dict(dest="cls", required=True, help="comma separated coefficients"))]),
    "sweep": ("summary CSV over a range of primes", _cmd_sweep,
              [(("--pmax",), _REQUIRED_INT), (("--jobs",), dict(type=parse_int, default=1))]),
}


def build_parser():
    import argparse

    ap = argparse.ArgumentParser(
        prog="polobstruct",
        description="Construct and interrogate the twisted products with no "
                    "principal polarization in their isogeny class.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(func=handler)
    return ap


# argparse reads a negative number as a value: no flag looks like one
_NEGATIVE_INT = re.compile(r"-[0-9]+")


def _is_value(token):
    return not token.startswith("-") or _NEGATIVE_INT.fullmatch(token) is not None


def _read_args(argv):
    """The namespace build_parser().parse_args(argv) returns, read straight
    from COMMANDS, for a line in the plain form (see the module docstring);
    None for any other line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[argv[0]]
    flags = {f[0] for f, _ in arguments if f[0].startswith("-")}
    tokens, given = argv[1:], {}
    while tokens and tokens[0] in flags:
        if tokens[0] in given or len(tokens) < 2 or not _is_value(tokens[1]):
            return None
        given[tokens[0]] = tokens[1]
        tokens = tokens[2:]
    positionals = [f[0] for f, _ in arguments if f[0] not in flags]
    if len(tokens) != len(positionals) or not all(map(_is_value, tokens)):
        return None
    given.update(zip(positionals, tokens))
    args = SimpleNamespace(command=argv[0], func=handler)
    for (flag, *_), kwargs in arguments:
        if flag in given:
            value = given[flag]
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except (TypeError, ValueError):
                    return None
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        setattr(args, kwargs.get("dest", flag.lstrip("-")), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:  # the full parser prints the help or error and exits
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
