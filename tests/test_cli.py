import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import polobstruct

from polobstruct import cli
from polobstruct.cyclotomic import CycElem, complex_conj, format_element
from polobstruct.intlinalg import matrix_to_json
from polobstruct.kergroup import ModelDescriptor, twist_model
from polobstruct.twist import CONSTRUCTION_CHECKS, build_b, build_zeta


def _run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


EXPECTED_CHECKS = [
    "zeta_minpoly_is_cyclotomic",
    "zeta_order_p",
    "shift_reduction_matches",
    "b_determinant_is_p",
    "b_positive_definite",
    "polarization_descends",
    "polarization_degree_p_squared",
    "rosati_inverts_zeta",
    "centralizer_rank",
    "centralizer_equals_zeta_powers",
    "degree_equals_norm_squared",
    "noncommuting_rejected",
    "filtration_dims",
    "composition_factors",
    "parity_odd",
]


def test_verify_p3_all_pass(capsys):
    rc, out, _ = _run(capsys, ["verify", "-p", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["p"] == 3
    assert rep["seed"] == cli.DEFAULT_SEED
    assert [c["name"] for c in rep["checks"]] == EXPECTED_CHECKS
    assert all(c["passed"] for c in rep["checks"])


def test_construction_catalogue_leads_the_verify_report():
    assert [name for name, _ in CONSTRUCTION_CHECKS] == EXPECTED_CHECKS[:10]


def test_verify_rejects_bad_prime(capsys):
    rc, _, err = _run(capsys, ["verify", "-p", "9"])
    assert rc == 2
    assert "odd prime" in err


def test_verify_deterministic(capsys):
    _, out1, _ = _run(capsys, ["verify", "-p", "5"])
    _, out2, _ = _run(capsys, ["verify", "-p", "5"])
    assert out1 == out2


def test_verify_failure_exit_code(capsys, monkeypatch):
    rep = cli.VerifyReport(3, 1, (("broken", False),))
    monkeypatch.setattr(cli, "run_verify_suite", lambda p, seed: rep)
    rc, out, _ = _run(capsys, ["verify", "-p", "3"])
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_generic_eliminations_on_the_production_path(monkeypatch):
    # the certificates take no Bareiss elimination, and neither do verify
    # (the sampled degrees are resultants, b's minors come from the
    # determinant lemma) nor twist_model
    import polobstruct.intlinalg as intlinalg
    from polobstruct.galmod import build_ptorsion
    from polobstruct.twist import TwistData

    sizes = []
    bareiss = intlinalg._bareiss_det

    def counted(m):
        sizes.append(len(m))
        return bareiss(m)

    monkeypatch.setattr(intlinalg, "_bareiss_det", counted)
    for p in (5, 43):
        assert TwistData.for_prime(p).orbit.unit_triangular
        assert build_ptorsion(p).two_jordan_blocks
    assert sizes == []
    assert cli.run_verify_suite(43).ok
    twist_model(13)
    assert sizes == []


def test_torsion_certificate_on_the_production_path(capsys, monkeypatch):
    # verify and sweep walk the (p - 1) x (p - 1) cocycle: neither builds a
    # 2(p - 1) x 2(p - 1) Matrix, the size of kron(zeta mod p, I_2), nor
    # reads TorsionModule.action
    from polobstruct.galmod import TorsionModule
    from polobstruct.intlinalg import Matrix

    built, reads, at = [], [], {"p": 5}
    init = Matrix.__init__
    identity, zero = Matrix.identity.__func__, Matrix.zero.__func__
    action = TorsionModule.action.func

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((at["p"], self.shape))

    def counted(make):
        def wrapped(cls, *args):
            mat = make(cls, *args)
            built.append((at["p"], mat.shape))
            return mat
        return classmethod(wrapped)

    def counted_action(mod):
        reads.append(mod.p)
        return action(mod)

    def sweep_row(p, row=cli._sweep_row):
        at["p"] = p
        return row(p)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Matrix, "identity", counted(identity))
    monkeypatch.setattr(Matrix, "zero", counted(zero))
    monkeypatch.setattr(TorsionModule, "action", property(counted_action))
    monkeypatch.setattr(cli, "_sweep_row", sweep_row)

    def kron_sized():
        return [(p, shape) for p, shape in built
                if shape == (2 * (p - 1), 2 * (p - 1))]

    # the instruments see the action when it is read
    assert cli.build_ptorsion(5).action.shape == (8, 8)
    assert reads == [5] and kron_sized() == [(5, (8, 8))]
    built.clear()
    reads.clear()

    at["p"] = 43
    assert cli.run_verify_suite(43).ok
    assert cli.main(["sweep", "--pmax", "61", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 18  # header and 17 primes
    assert at["p"] == 61 and built
    assert kron_sized() == [] and reads == []


def test_no_command_takes_the_dickson_route(capsys, monkeypatch, tmp_path):
    # norms and positivity read a conjugation-fixed CycElem as it is: no
    # command builds a RealElem (restrict_to_real builds one) or lifts one
    from polobstruct.cyclotomic import RealElem, _FieldElem

    path = tmp_path / "model-13.json"
    path.write_text(twist_model(13).to_json())
    rng = random.Random(5)
    x = CycElem(13, [rng.randint(-3, 3) for _ in range(12)])
    a = x * complex_conj(x)
    built, lifts = [], []
    init, lift = _FieldElem.__init__, RealElem.lift

    def counted_init(self, *args):
        init(self, *args)
        if type(self) is RealElem:
            built.append(self)

    def counted_lift(self):
        lifts.append(self)
        return lift(self)

    monkeypatch.setattr(_FieldElem, "__init__", counted_init)
    monkeypatch.setattr(RealElem, "lift", counted_lift)

    # the instruments see a RealElem built directly and lifted
    RealElem(13, [1] * 6).lift()
    assert len(built) == 1 and len(lifts) == 1
    built.clear()
    lifts.clear()

    for elem, rc in ((a, 0), (-a, 0), (x, 2), (CycElem.zero(13), 2)):
        assert _run(capsys, ["tp", format_element(elem)])[0] == rc
        assert _run(capsys, ["norm", format_element(elem)])[0] == 0
    assert _run(capsys, ["bgroup", "--model", str(path)])[0] == 0
    assert _run(capsys, ["attainable", "--model", str(path), "--class", "1"])[0] == 0
    assert _run(capsys, ["verify", "-p", "43"])[0] == 0
    rc, out, _ = _run(capsys, ["sweep", "--pmax", "31", "--jobs", "1"])
    assert rc == 0 and out.count("\n") == 11  # header and 10 primes
    assert built == [] and lifts == []


def test_degree_check_rests_on_the_orbit_certificate(monkeypatch):
    # Res(Phi_p, a) is det a(zeta) only when chi_zeta = Phi_p, which the
    # orbit certificate proves; a zeta it rejects fails the degree check
    import polobstruct.twist as twist

    assert dict(cli.run_verify_suite(5).checks)["degree_equals_norm_squared"]
    # a companion matrix of x^4 + x^3 + x^2 + x + 2, not of Phi_5
    foreign = [[-2, -1, -1, -1]] + list(twist.build_zeta(5).rows[1:])
    monkeypatch.setattr(twist, "build_zeta", lambda p: twist.Matrix(foreign))
    passed = dict(cli.run_verify_suite(5).checks)
    assert not passed["zeta_minpoly_is_cyclotomic"]
    assert not passed["degree_equals_norm_squared"]


def test_degree_check_fails_on_a_zero_norm(monkeypatch):
    # every sample is nonzero, so its degree is not 0; a norm of 0 is wrong
    assert dict(cli.run_verify_suite(7).checks)["degree_equals_norm_squared"]
    monkeypatch.setattr(cli, "norm_to_Q", lambda a: 0)
    assert not dict(cli.run_verify_suite(7).checks)["degree_equals_norm_squared"]


def test_construct_checks_the_construction(capsys, monkeypatch):
    # construct runs the catalogue; verify reports the same failure
    import polobstruct.twist as twist

    monkeypatch.setattr(twist, "build_b",
                        lambda p: twist.Matrix.identity(p - 1).scale(3))
    with pytest.raises(AssertionError, match="b_determinant_is_p"):
        cli.main(["construct", "-p", "7"])
    assert capsys.readouterr().out == ""
    passed = dict(cli.run_verify_suite(7).checks)
    assert not passed["b_determinant_is_p"]
    assert not passed["rosati_inverts_zeta"]


def test_seed_resolution(monkeypatch):
    assert cli._resolve_seed(None) == cli.DEFAULT_SEED
    monkeypatch.setenv("POLOBSTRUCT_SEED", "99")
    assert cli._resolve_seed(None) == 99
    assert cli._resolve_seed(5) == 5  # explicit flag wins over the environment
    for bad in ("pear", "1_0"):
        monkeypatch.setenv("POLOBSTRUCT_SEED", bad)
        with pytest.raises(cli.BadInput):  # main reports it like any bad input
            cli._resolve_seed(None)


def test_bad_seed_environment_returns_2(capsys, monkeypatch):
    monkeypatch.setenv("POLOBSTRUCT_SEED", "pear")
    rc, out, err = _run(capsys, ["verify", "-p", "5"])
    assert rc == 2 and out == ""
    assert err == "error: POLOBSTRUCT_SEED must be an integer, got 'pear'\n"


def test_construct_writes_files(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["construct", "-p", "5", "--out", str(tmp_path)])
    assert rc == 0
    zpath = tmp_path / "zeta.json"
    bpath = tmp_path / "b.json"
    assert str(zpath) in out and str(bpath) in out
    with open(zpath) as fh:
        assert json.load(fh) == matrix_to_json(build_zeta(5))
    with open(bpath) as fh:
        assert json.load(fh) == matrix_to_json(build_b(5))


def _out_is_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file"  # FileExistsError


def _out_under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "x"  # NotADirectoryError


def _zeta_json_is_a_directory(tmp_path):
    (tmp_path / "out" / "zeta.json").mkdir(parents=True)
    return tmp_path / "out"  # IsADirectoryError


@pytest.mark.parametrize("make_out", [
    _out_is_a_file, _out_under_a_file, _zeta_json_is_a_directory,
], ids=["out_is_a_file", "out_under_a_file", "zeta_json_is_a_directory"])
def test_construct_unwritable_out_is_bad_input(capsys, tmp_path, make_out):
    rc, out, err = _run(capsys, ["construct", "-p", "5", "--out",
                                 str(make_out(tmp_path))])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_stdout(capsys):
    rc, out, _ = _run(capsys, ["construct", "-p", "3"])
    assert rc == 0
    data = json.loads(out)
    assert data["zeta"] == matrix_to_json(build_zeta(3))
    assert data["b"] == matrix_to_json(build_b(3))


def test_parity_output(capsys):
    rc, out, _ = _run(capsys, ["parity", "-p", "5", "-n", "6"])
    assert rc == 0
    assert json.loads(out) == {"p": 5, "n": 6, "e_rank": 1, "parity": 1}
    rc, _, _ = _run(capsys, ["parity", "-p", "5", "-n", "0"])
    assert rc == 2
    rc, _, _ = _run(capsys, ["parity", "-p", "8", "-n", "1"])
    assert rc == 2


def test_norm_command(capsys):
    rc, out, _ = _run(capsys, ["norm", "3; 1, -1"])
    assert rc == 0 and out.strip() == "3"
    rc, out, _ = _run(capsys, ["norm", "5; 1, -1, 0, 0"])
    assert rc == 0 and out.strip() == "5"
    rc, _, err = _run(capsys, ["norm", "5: 1"])
    assert rc == 2 and "error" in err


def test_tp_command(capsys):
    # 2 + eta written in the power basis: 1 - z^2 - z^3
    rc, out, _ = _run(capsys, ["tp", "5; 1, 0, -1, -1"])
    assert rc == 0 and out.strip() == "totally positive"
    # eta itself has a negative embedding
    rc, out, _ = _run(capsys, ["tp", "5; -1, 0, -1, -1"])
    assert rc == 0 and out.strip() == "not totally positive"
    rc, _, err = _run(capsys, ["tp", "5; 2, 1, 0, 0"])
    assert rc == 2 and "conjugation" in err
    rc, _, _ = _run(capsys, ["tp", "5; 0, 0, 0, 0"])
    assert rc == 2


def _seeded_fixed_elements(p):
    """x conj(x), its negation, and y conj(y) for y with Fraction coordinates."""
    rng = random.Random(p)
    x = CycElem(p, [rng.randint(-1, 1) for _ in range(p - 1)])
    y = CycElem(p, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(p - 1)])
    a = x * complex_conj(x)
    return a, -a, y * complex_conj(y)


# norms as the product-chain power sums printed them, at primes past those
# where the test suite runs the Hessenberg and Bareiss oracles
FROZEN_NORMS = {
    61: (
        "5188371114112718605850127127756355423931427083808476188453495456"
        "1030269740633681",
        "9537884702078921622408939636815537207792856335204942250930768101"
        "8059484157008970642846471601621763173824774612181436223298835455"
        "5514926132427987608698567446059732568036656427841/23886363993601"
        "0997755740204171813308082942915984475750764206319935952963252246"
        "7783435119230976",
    ),
    101: (
        "1002363944586335786908746699351933038444113205763595231713821385"
        "8702070405930640015807900828963727686172442055250986394929631581"
        "9275698819948597104259329",
        "5679114232155882477459580755230572930229465389678334009889456166"
        "9974788978152478424704014043665663489817558470440680060469174357"
        "5688185940453314476437004090151536630021863095771145751392448978"
        "1295036958559866043688236895085531579931127177796939940878729183"
        "5659296394787849369404157784217086085466830830344951941169121606"
        "2601/42682522381202740079697489151877373234298874535448942949547"
        "9078935112929549619739019072139340757097296812815466676129830954"
        "465240517595242384015591919845376",
    ),
}


@pytest.mark.parametrize("p", sorted(FROZEN_NORMS))
def test_norm_and_tp_frozen_at_large_primes(capsys, p):
    a, neg, frac = _seeded_fixed_elements(p)
    norm, frac_norm = FROZEN_NORMS[p]
    for elem, expected_norm, verdict in ((a, norm, "totally positive"),
                                         (neg, norm, "not totally positive"),
                                         (frac, frac_norm, "totally positive")):
        rc, out, _ = _run(capsys, ["norm", format_element(elem)])
        assert rc == 0 and out == expected_norm + "\n"
        rc, out, _ = _run(capsys, ["tp", format_element(elem)])
        assert rc == 0 and out == verdict + "\n"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(twist_model(5, samples=3).to_json())
    return str(path)


def test_bgroup_command(capsys, model_file):
    rc, out, _ = _run(capsys, ["bgroup", "--model", model_file])
    assert rc == 0
    data = json.loads(out)
    assert data["b1"] == "Z/2" and data["b2"] == "Z/2"
    assert data["b1_invariants"] == [2] and data["b2_invariants"] == [2]
    assert data["i_c_parity"] == 1
    assert data["phi_samples"] == 4
    assert data["phi_samples_used"] == 4


def test_bgroup_missing_model(capsys, tmp_path):
    rc, _, err = _run(capsys, ["bgroup", "--model", str(tmp_path / "nope.json")])
    assert rc == 2 and "cannot load model" in err


def test_attainable_command(capsys, model_file):
    rc, out, _ = _run(capsys, ["attainable", "--model", model_file, "--class", "0"])
    assert rc == 0 and out.strip() == "attainable: no (b2_image_not_in_s_c)"
    rc, out, _ = _run(capsys, ["attainable", "--model", model_file, "--class", "1"])
    assert rc == 0 and out.strip() == "attainable: yes (ok)"
    rc, out, _ = _run(capsys, ["attainable", "--model", model_file, "--class", "-1"])
    assert rc == 0 and out.strip() == "attainable: no (not_effective)"
    rc, out, _ = _run(capsys, ["attainable", "--model", model_file, "--class", " 1"])
    assert rc == 0 and out.strip() == "attainable: yes (ok)"
    # int() would read 1_1 as 11 and the Arabic-Indic digit as 1
    for bad in ("x", "1_1", "\u0661"):
        rc, out, err = _run(capsys, ["attainable", "--model", model_file, "--class", bad])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: cannot parse class")
    rc, _, err = _run(capsys, ["attainable", "--model", model_file, "--class", "1,2"])
    assert rc == 2 and "coefficients" in err


def _no_commutant_basis(*args, **kwargs):
    raise AssertionError("the sweep reads the orbit certificate, not the basis")


def test_sweep_csv(capsys, monkeypatch):
    import polobstruct.twist as twist

    monkeypatch.setattr(twist, "centralizer_basis", _no_commutant_basis)
    rc, out, _ = _run(capsys, ["sweep", "--pmax", "31"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,det_b,pol_degree,centralizer_rank,filtration_length,i_c_parity"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "5", "7", "11", "13", "17", "19", "23",
                                    "29", "31"]
    for r in rows:
        p = int(r[0])
        assert r == [str(p), str(p), str(p * p), str(p - 1), str(p), "1"]
    rc, _, _ = _run(capsys, ["sweep", "--pmax", "2"])
    assert rc == 2


def test_sweep_prints_no_rank_the_certificate_did_not_prove(capsys, monkeypatch):
    import polobstruct.twist as twist

    # e1 is no cyclic vector of the identity: the orbit matrix is singular
    monkeypatch.setattr(twist, "build_zeta", lambda p: twist.Matrix.identity(p - 1))
    with pytest.raises(AssertionError, match="orbit certificate fails at p = 3"):
        cli.main(["sweep", "--pmax", "7"])
    assert capsys.readouterr().out == ""


def test_sweep_deterministic(capsys):
    _, out1, _ = _run(capsys, ["sweep", "--pmax", "5"])
    _, out2, _ = _run(capsys, ["sweep", "--pmax", "5"])
    assert out1 == out2


def test_sweep_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3"):
        rc, out, err = _run(capsys, ["sweep", "--pmax", "7", "--jobs", jobs])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "--jobs" in err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, spawns nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_clamps_jobs(capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    _, serial, _ = _run(capsys, ["sweep", "--pmax", "7"])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    rc, out, _ = _run(capsys, ["sweep", "--pmax", "7", "--jobs", "1000"])
    assert rc == 0 and out == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc, out, _ = _run(capsys, ["sweep", "--pmax", "7", "--jobs", "1000"])
    assert rc == 0 and out == serial
    # three primes up to 7, then two CPUs
    assert _SerialPool.sizes == [3, 2]


def test_console_entry_rejects_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    usage = capsys.readouterr().err
    assert "{construct,verify,parity,norm,tp,bgroup,attainable,sweep}" in usage
    assert "error: the following arguments are required: command" in usage
    # an integer option reads plain digits only: argparse's usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-p", "0_7"])
    assert exc.value.code == 2
    assert "argument -p: invalid parse_int value: '0_7'" in capsys.readouterr().err


# a command line each command parses without error
_VALID = {
    "construct": ["-p", "7"],
    "verify": ["-p", "7"],
    "parity": ["-p", "7", "-n", "14"],
    "norm": ["5; 1, 2, 3, 4"],
    "tp": ["5; 1, 2, 3, 4"],
    "bgroup": ["--model", "model.json"],
    "attainable": ["--model", "model.json", "--class", "0"],
    "sweep": ["--pmax", "7"],
}


def _outcome(capsys, parse, argv):
    try:
        rc = parse(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def _same_route_inputs():
    yield from ([], ["-h"], ["bogus"])
    for name in cli.COMMANDS:  # a command missing from _VALID fails collection
        valid = _VALID[name]
        # -h, a missing required argument, an unknown option, a leftover one
        yield from ([name, "-h"], [name], [name, "--foo"], [name, *valid, "--foo"])
        for option in ("-p", "--pmax"):
            if option in valid:
                yield [name, option, "0_7", *valid[valid.index(option) + 2:]]


@pytest.mark.parametrize("argv", list(_same_route_inputs()), ids=repr)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    # help, usage errors and exit codes may not drift between the parser
    # main builds for one command and the full parser
    full = _outcome(capsys, cli.build_parser().parse_args, argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _outcome(capsys, cli.main, argv) == full


def test_each_call_builds_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["parity", "-p", "7", "-n", "14"]) == 0
    assert built == ["polobstruct parity"]
    # nothing is kept between calls: the next call builds its parser again
    assert cli.main(["parity", "-p", "7", "-n", "14"]) == 0
    assert len(built) == 2
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["bogus"])
    assert len(built) == 1 + len(cli.COMMANDS) == 9


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["parity", "-p", "7", "-n", "14"]
    expected = _run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["polobstruct"] + argv)
    assert expected[0] == 0
    assert _run(capsys, None) == expected


HUGE_P = "1000000000000000000000000000057"


@pytest.mark.parametrize("argv", [
    ["verify", "-p", HUGE_P],
    ["construct", "-p", HUGE_P],
    ["parity", "-p", HUGE_P, "-n", "2"],
    ["sweep", "--pmax", HUGE_P],
    ["norm", HUGE_P + "; 1, 2"],
    ["tp", HUGE_P + "; 1, 2"],
    ["norm", "1009; " + ", ".join(["1"] * 1008)],  # the count fits the tag
])
def test_absurd_prime_is_rejected_at_once(capsys, monkeypatch, argv):
    # trial division of a 31-digit p would not finish: no primality test
    # may run, and the command must return 2 with one line at once
    import polobstruct.cyclotomic as cyc

    def no_primality_test(p):
        raise AssertionError(f"primality tested for p = {p}")

    monkeypatch.setattr(cli, "is_odd_prime", no_primality_test)
    monkeypatch.setattr(cyc, "is_odd_prime", no_primality_test)
    start = time.monotonic()
    rc, out, err = _run(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", [["bgroup"], ["attainable", "--class", "0"]])
@pytest.mark.parametrize("field", ["center", "ramified"])
def test_absurd_model_prime_is_rejected_at_once(capsys, monkeypatch, tmp_path,
                                                command, field):
    # a model file's center prime and ramified entries are capped like -p;
    # only the small center prime of the ramified case may be tested
    import polobstruct.kergroup as kg

    def no_primality_test(p):
        if p > cli.MAX_P:
            raise AssertionError(f"primality tested for p = {p}")
        return p == 5

    data = json.loads(twist_model(5, samples=3).to_json())
    factor = data["algebra"]["factors"][0]
    if field == "center":
        factor["center"] = f"Q(zeta_{HUGE_P})"
    else:
        factor["ramified"] = [int(HUGE_P)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(kg, "is_odd_prime", no_primality_test)
    monkeypatch.setattr(kg, "is_prime", no_primality_test)
    start = time.monotonic()
    rc, out, err = _run(capsys, [command[0], "--model", str(path)] + command[1:])
    assert time.monotonic() - start < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and str(cli.MAX_P) in err


def test_cap_is_max_p(capsys):
    assert cli.MAX_P == 1000
    rc, _, err = _run(capsys, ["verify", "-p", str(cli.MAX_P + 9)])
    assert rc == 2 and str(cli.MAX_P) in err
    rc, _, err = _run(capsys, ["sweep", "--pmax", str(cli.MAX_P + 1)])
    assert rc == 2 and "--pmax" in err
    # an element whose tag and coordinate count agree is capped too
    tag = 1009
    rc, _, err = _run(capsys, ["norm", f"{tag}; " + ", ".join(["0"] * (tag - 1))])
    assert rc == 2 and str(cli.MAX_P) in err


def test_module_run_prints_no_runtime_warning():
    # the package must not import cli, or runpy warns that polobstruct.cli
    # was already imported when run as a module
    src = os.path.dirname(os.path.dirname(polobstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "polobstruct.cli",
         "parity", "-p", "3", "-n", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["parity"] == 1


def test_no_numpy_at_runtime():
    # the package is exact Python integers only; numpy must not creep back
    src = os.path.dirname(os.path.dirname(polobstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "polobstruct.cli", "verify", "-p", "5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"]
    probe = ("import sys; import polobstruct, polobstruct.cli; "
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_import_loads_no_dataclasses():
    # the value classes are plain Record subclasses: importing dataclasses
    # (and inspect, which it pulls in) would cost every command's start-up
    src = os.path.dirname(os.path.dirname(polobstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys; import polobstruct, polobstruct.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_verify_reports_broken_torsion_without_traceback(capsys, monkeypatch):
    # both torsion checks read one certificate; a module that fails it
    # turns both false and verify exits 1 with a report, not a traceback
    from polobstruct.galmod import TorsionModule
    from polobstruct.intlinalg import Matrix

    def broken_ptorsion(p):
        return TorsionModule(p, Matrix.identity(p - 1))

    monkeypatch.setattr(cli, "build_ptorsion", broken_ptorsion)
    rc, out, err = _run(capsys, ["verify", "-p", "7"])
    assert rc == 1 and err == ""
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert not passed["filtration_dims"] and not passed["composition_factors"]
    assert all(v for k, v in passed.items()
               if k not in ("filtration_dims", "composition_factors"))


def test_verify_reports_noncommuting_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli, "endo_descends", lambda m, t: True)
    rc, out, _ = _run(capsys, ["verify", "-p", "5"])
    assert rc == 1
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert passed["noncommuting_rejected"] is False


def test_parity_check_reads_the_kernel_order(monkeypatch):
    # a form of determinant p^2 gives kernels of even E[p]-rank, which the
    # closed form 1 + 2 v_p(n) alone cannot see
    import polobstruct.twist as twist
    from polobstruct.intlinalg import Matrix

    p = 5
    assert cli.run_verify_suite(p).checks[-1] == ("parity_odd", True)
    monkeypatch.setattr(twist, "build_b",
                        lambda p: Matrix.diagonal([p, p] + [1] * (p - 3)))
    rep = cli.run_verify_suite(p)
    assert dict(rep.checks)["parity_odd"] is False


def _model_json_with(**fields):
    """The valid model's JSON text with top-level fields replaced."""
    data = json.loads(twist_model(5, samples=2).to_json())
    data.update(fields)
    return json.dumps(data)


# (where in a valid model file, the JSON text put there, what from_json
# raises); an empty path replaces the whole file, with MODEL standing for
# the valid model, and a None text deletes the field. A value of the wrong
# JSON type, a container among them, or a missing field is a ValueError,
# and so is a model without the parts bgroup reads: an s_c entry, a
# cyclotomic factor and a self-dual E[p] label.
MALFORMED_MODELS = {
    "center_not_a_string": (("algebra", "factors", 0, "center"), "5", ValueError),
    "infinite_alpha_coordinate": (("phi_samples", 0, "alpha_coords", 0), "1e999",
                                  ValueError),
    "infinite_norm": (("phi_samples", 0, "norm"), "1e999", ValueError),
    "float_norm": (("phi_samples", 0, "norm"), "0.5", ValueError),
    "exponent_string_coordinate": (("phi_samples", 0, "alpha_coords", 0),
                                   '"1e999999999"', ValueError),
    "decimal_string_norm": (("phi_samples", 0, "norm"), '"2.5"', ValueError),
    "zero_denominator": (("phi_samples", 0, "norm"), '"1/0"', ValueError),
    "infinite_z_gen": (("z_gens", 0, 0), "1e999", ValueError),
    "float_z_gen": (("z_gens", 0, 0), "1.0", ValueError),
    "bool_s_c": (("s_c", 0, 0), "true", ValueError),
    "label_name_not_a_string": (("labels", 0, "name"), "[1]", ValueError),
    "non_integer_ramified_entry": (("algebra", "factors", 0, "ramified"), '["3"]',
                                   ValueError),
    "labels_not_a_list": (("labels",), "5", ValueError),
    "z_gens_not_a_list": (("z_gens",), "3", ValueError),
    "factors_not_a_list": (("algebra", "factors"), '"x"', ValueError),
    "phi_sample_not_an_object": (("phi_samples",), "[5]", ValueError),
    "missing_z_gens": (("z_gens",), None, ValueError),
    "null_z_gen": (("z_gens", 0), "null", ValueError),
    "top_level_list": ((), "[MODEL]", ValueError),
    "empty_s_c": (("s_c",), "[]", ValueError),
    "no_e_p_label": ((), _model_json_with(
        phi_samples=[],
        labels=[{"name": "G", "rank": 25, "dual": "G", "alt_pairing": True}]),
        ValueError),
    "no_cyclotomic_factor": ((), _model_json_with(
        phi_samples=[], algebra={"factors": [{"type": "I", "center": "Q"}]}),
        ValueError),
    "e_p_label_not_self_dual": ((), _model_json_with(
        phi_samples=[], z_gens=[[1, 1]], s_c=[[1, 1]],
        labels=[{"name": "E[5]", "rank": 25, "dual": "F"},
                {"name": "F", "rank": 25, "dual": "E[5]"}]),
        ValueError),
    "nested_past_the_recursion_limit": ((), "[" * 100000 + "]" * 100000,
                                        RecursionError),
}

# what the message says: for a wrong container type or a missing field it
# names the field and the JSON type expected there, and for a missing part
# of the model it names that part
MESSAGES = {
    "labels_not_a_list": "labels: expected a JSON array, got integer",
    "z_gens_not_a_list": "z_gens: expected a JSON array, got integer",
    "factors_not_a_list": "factors: expected a JSON array, got string",
    "phi_sample_not_an_object": "an entry of phi_samples: expected a JSON object",
    "missing_z_gens": "z_gens: expected a JSON array, got null",
    "null_z_gen": "an entry of z_gens: expected a JSON array, got null",
    "top_level_list": "the model: expected a JSON object, got array",
    "empty_s_c": "need at least one s_c entry",
    "no_e_p_label": "model has no E[5] label",
    "no_cyclotomic_factor": "model has no cyclotomic factor",
    "e_p_label_not_self_dual": "the E[5] label is not self-dual",
}


def _model_text_with(path, literal):
    data = json.loads(twist_model(5, samples=2).to_json())
    if not path:
        return literal.replace("MODEL", json.dumps(data))
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    if literal is None:
        del node[last]
        return json.dumps(data)
    node[last] = "@HOLE@"
    return json.dumps(data).replace('"@HOLE@"', literal)


@pytest.mark.parametrize("command", [["bgroup"], ["attainable", "--class", "1"]])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_is_rejected_in_one_line(capsys, tmp_path, command, case):
    where, literal, raised = MALFORMED_MODELS[case]
    text = _model_text_with(where, literal)
    message = MESSAGES.get(case)
    with pytest.raises(raised, match=message and re.escape(message)):
        ModelDescriptor.from_json(text)
    path = tmp_path / "model.json"
    path.write_text(text)
    start = time.monotonic()
    rc, out, err = _run(capsys, [command[0], "--model", str(path)] + command[1:])
    assert time.monotonic() - start < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot load model")


@pytest.mark.parametrize("argv", [
    ["norm", "5; 1e999999999, 1, 1, 1"],  # Fraction() builds a billion digits
    ["tp", "5; 1e5000, 0, 0, 0"],
    ["norm", "5; 0.5, 1, 1, 1"],
    ["norm", "5; 1_000, 1, 1, 1"],
    ["norm", "5; 1/0, 1, 1, 1"],
    ["norm", "5; " + "7" * 5000 + ", 1, 1, 1"],  # past int()'s digit limit
    ["norm", "5; " + "7" * 2000 + ", 1, 0, 0"],  # in the grammar; its norm is not printable
    ["norm", "0_5; 1, 2, 3, 4"],  # int() reads the tag as 5
    ["norm", "\u0665; 1, 2, 3, 4"],  # an Arabic-Indic five
], ids=["exponent", "tp_exponent", "decimal", "underscore", "zero_denominator",
        "too_many_digits", "norm_too_long_to_print", "tag_underscore",
        "tag_arabic_indic"])
def test_bad_element_is_rejected_at_once(capsys, argv):
    start = time.monotonic()
    rc, out, err = _run(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_element_grammar_keeps_signs_and_fractions(capsys):
    # N(2 - zeta/2) = Phi_5(4) / 2^4
    rc, out, _ = _run(capsys, ["norm", "5; +2, -1/2, 0, 0"])
    assert rc == 0 and out.strip() == "341/16"
