import hashlib
import json

import jsonschema
import pytest

from flagcoh.cli import main

SCHEMA = json.loads(
    __import__("importlib.resources", fromlist=["files"])
    .files("flagcoh")
    .joinpath("data/output_schema.json")
    .read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_pq_a2(capsys):
    code, payload = run_json(capsys, "pq", "--type", "A2", "--eps", "--")
    assert code == 0
    assert payload["poly"] == [[0, "-1"], [2, "1"]]  # q^2 - 1
    assert payload["factored"] == "(q^2-1)"


def test_pq_e8_all_minus_needs_no_enumeration(capsys):
    code, payload = run_json(capsys, "pq", "--type", "E8", "--eps", "--------")
    assert code == 0
    assert max(e for e, _ in payload["poly"]) == 64
    assert payload["factored"] == "(q^2-1)*(q^4-1)*(q^6-1)*(q^8-1)^2*(q^10-1)*(q^12-1)*(q^14-1)"


def test_pq_zero_vector(capsys):
    code, payload = run_json(capsys, "pq", "--type", "A2", "--eps", "-+")
    assert code == 0
    assert payload["poly"] == []


def test_eta_all_plus(capsys):
    code, payload = run_json(capsys, "eta", "--type", "A1", "--eps", "+")
    assert code == 0
    assert payload["values"] == [
        {"word": "e", "length": 0, "eta": 0},
        {"word": "1", "length": 1, "eta": 0},
    ]


def test_eta_g2(capsys):
    code, payload = run_json(capsys, "eta", "--type", "G2", "--eps", "--")
    assert code == 0
    assert payload["max"] == 4
    assert sorted(v["eta"] for v in payload["values"]) == [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4]


def test_weyl_emits(capsys):
    code, payload = run_json(capsys, "weyl", "--type", "A3", "--emit", "order")
    assert code == 0 and payload["order"] == 24
    code, payload = run_json(capsys, "weyl", "--type", "A3", "--emit", "lengths")
    assert payload["lengths"] == [1, 3, 5, 6, 5, 3, 1]
    code, payload = run_json(capsys, "weyl", "--type", "E8", "--emit", "word-of-longest")
    assert len(payload["word_of_longest"]) == 120


def test_graph_dot_and_json(capsys):
    code, out = run(capsys, "graph", "--type", "A2", "--eps", "--", "--format", "dot")
    assert code == 0 and out.count("->") == 2
    code, out = run(capsys, "graph", "--type", "A2", "--eps", "--", "--format", "json")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6 and len(payload["edges"]) == 2


def test_cohomology_rings(capsys):
    code, payload = run_json(capsys, "cohomology", "--type", "A2", "--eps", "--", "--ring", "Z")
    assert code == 0
    assert payload["groups"] == [
        {"free_rank": 1, "torsion": []},
        {"free_rank": 0, "torsion": []},
        {"free_rank": 0, "torsion": [2, 2]},
        {"free_rank": 1, "torsion": []},
    ]
    _, payload = run_json(capsys, "cohomology", "--type", "A3", "--eps", "---", "--ring", "Q")
    assert payload["betti"] == [1, 0, 0, 2, 0, 0, 1]
    _, payload = run_json(capsys, "cohomology", "--type", "G2", "--eps", "--", "--ring", "F2")
    assert payload["dims"] == [1, 2, 2, 2, 2, 2, 1]


def test_tau_subcommand(capsys):
    code, payload = run_json(capsys, "tau", "--type", "D4", "--emit", "min-degrees")
    assert code == 0 and payload["min_degrees"] == [2, 2, 2, 2]
    _, payload = run_json(capsys, "tau", "--type", "G2", "--emit", "multiplicity")
    assert payload["multiplicity"] == 4
    _, payload = run_json(capsys, "tau", "--type", "A2", "--emit", "poly")
    assert len(payload["taus"]) == 2
    assert payload["taus"][0]["kind"] == "plain"


def test_chevalley_subcommand(capsys):
    code, payload = run_json(capsys, "chevalley", "--type", "A3", "--prime", "13", "--verify")
    assert code == 0
    assert payload["verify"]["match"] is True
    assert payload["verify"]["closed_form"] == payload["verify"]["brute_force"]
    code, payload = run_json(capsys, "chevalley", "--type", "B3", "--prime", "5")
    assert payload["order_at_prime"] == 5**3 * 4 * 24 * 124


def test_chevalley_prime_must_be_a_prime_power(capsys):
    # F_q exists for q = 4, so the order polynomial is read there too
    code, payload = run_json(capsys, "chevalley", "--type", "B3", "--prime", "4")
    assert code == 0 and payload["order_at_prime"] == 4**3 * 3 * 15 * 63
    for q in ("6", "12", "-3", "0", "1"):  # no field F_q
        assert main(["chevalley", "--type", "A1", "--prime", q]) == 2
        err = capsys.readouterr().err
        assert f"usage error: --prime must be a prime power q >= 2, got {q}" in err
    # --verify counts points over a prime field, so q = 9 is refused there
    assert main(["chevalley", "--type", "A2", "--prime", "9", "--verify"]) == 2
    assert "p must be an odd prime, got 9" in capsys.readouterr().err


def test_flow_subcommand(capsys):
    code, payload = run_json(
        capsys, "flow", "--rank", "3", "--spectrum", "-3,-1,1,3", "--window", "auto"
    )
    assert code == 0
    assert payload["total"] == payload["eta_wstar"] == 4
    assert payload["match"] is True


def test_verify_subcommand(capsys):
    code = main(["verify", "--type", "G2"])
    out = capsys.readouterr()
    payload = json.loads(out.out)
    jsonschema.validate(payload, SCHEMA)
    assert code == 0 and payload["passed"] is True
    assert all(c["status"] != "fail" for c in payload["checks"])
    assert "PASS" in out.err


def test_deterministic_output(capsys):
    _, a = run(capsys, "eta", "--type", "B3", "--eps", "---")
    _, b = run(capsys, "eta", "--type", "B3", "--eps", "---")
    assert a == b


def test_usage_errors(capsys):
    assert main(["pq", "--type", "A2"]) == 2  # missing --eps
    capsys.readouterr()
    assert main(["pq", "--type", "Q9", "--eps", "--"]) == 2
    capsys.readouterr()
    assert main(["pq", "--type", "A2", "--eps", "---"]) == 2  # wrong length
    capsys.readouterr()
    assert main(["chevalley", "--type", "A2", "--verify"]) == 2  # no --prime
    assert "usage error:" in capsys.readouterr().err
    assert main(["flow", "--rank", "2", "--spectrum", "1,2"]) == 2  # one eigenvalue short
    assert "usage error:" in capsys.readouterr().err
    assert main(["flow", "--rank", "0", "--spectrum", "1"]) == 2
    assert "usage error: --rank must be >= 1, got 0" in capsys.readouterr().err
    for grid in (["--samples", "0"], ["--samples", "1"], ["--window", "-5"], ["--window", "inf"]):
        assert main(["flow", "--rank", "1", "--spectrum", "-1,1", *grid]) == 2
        assert "usage error:" in capsys.readouterr().err
    assert main(["flow", "--rank", "1", "--spectrum", "-1,1", "--window", "1e308"]) == 2
    assert "usage error: window must be > 0" in capsys.readouterr().err
    for prime in ("-3", "0", "1"):  # no group order to print below 2
        assert main(["chevalley", "--type", "A2", "--prime", prime]) == 2
        assert "usage error:" in capsys.readouterr().err


def test_refusals_of_valid_types_exit_one(capsys):
    assert main(["tau", "--type", "A8"]) == 1
    assert capsys.readouterr().err == "error: rank 8 needs determinants of dimension 8 > bound 7\n"
    assert main(["chevalley", "--type", "B3", "--prime", "5", "--verify"]) == 1
    assert capsys.readouterr().err == "error: no sphere oracle for this family\n"
    assert main(["chevalley", "--type", "B3", "--prime", "9", "--verify"]) == 2  # bad prime


def test_cohomology_f2_refuses_cap(capsys, monkeypatch):
    argv = ["cohomology", "--type", "E8", "--eps", "--------", "--ring", "F2"]
    assert main([*argv, "--cap", "10"]) == 2
    assert capsys.readouterr().err == "usage error: --cap does not apply to --ring F2\n"
    monkeypatch.setenv("FLAGCOH_CAP", "10")  # the environment cap is not a flag
    assert main(["cohomology", "--type", "A3", "--eps", "---", "--ring", "F2"]) == 0
    capsys.readouterr()


def test_cap_error_is_reported(capsys):
    assert main(["eta", "--type", "E8", "--eps", "--------"]) == 1
    err = capsys.readouterr().err
    assert "cap" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["pq", "--type", "A2", "--eps", "--", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["factored"] == "(q^2-1)"


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLAGCOH_CAP", "10")
    assert main(["eta", "--type", "A3", "--eps", "---"]) == 1
    err = capsys.readouterr().err
    assert "cap 10" in err
    monkeypatch.delenv("FLAGCOH_CAP")
    assert main(["eta", "--type", "A3", "--eps", "---"]) == 0
    capsys.readouterr()


def test_cap_flag_wins_over_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("FLAGCOH_CAP", raising=False)
    assert main(["eta", "--type", "A3", "--eps", "---", "--cap", "10"]) == 1
    assert "exceeds cap 10" in capsys.readouterr().err
    monkeypatch.setenv("FLAGCOH_CAP", "10")  # |W(A3)| = 24 is beyond it
    assert main(["eta", "--type", "A3", "--eps", "---", "--cap", "100"]) == 0
    assert main(["eta", "--type", "A1", "--eps", "-", "--cap", "100"]) == 0
    capsys.readouterr()


def test_eps_equals_form_prints_what_the_spaced_form_prints(capsys):
    # a bare "--" value survives "--eps=--" as it does "--eps --"
    spaced = run(capsys, "pq", "--type", "A2", "--eps", "--")
    assert run(capsys, "pq", "--type", "A2", "--eps=--") == spaced
    assert spaced[0] == 0


@pytest.mark.parametrize(
    "name, order", [("E7", 2_903_040), ("E8", 696_729_600)], ids=["E7", "E8"]
)
def test_chain_only_commands_build_no_elements(capsys, monkeypatch, name, order):
    from flagcoh import cli, weyl
    from flagcoh.cartan import cartan_matrix
    from flagcoh.verify import _height_product

    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated, or WeylElement or group tables built")

    monkeypatch.delenv("FLAGCOH_CAP", raising=False)
    monkeypatch.setattr(cli, "enumerate_group", refuse)
    monkeypatch.setattr(weyl, "WeylElement", refuse)
    monkeypatch.setattr(weyl, "_build_tables", refuse)
    code, payload = run_json(capsys, "weyl", "--type", name, "--emit", "order")
    assert code == 0 and payload["order"] == order
    heights = _height_product(cartan_matrix(name))
    code, payload = run_json(capsys, "weyl", "--type", name, "--emit", "lengths")
    assert code == 0 and tuple(payload["lengths"]) == heights
    eps = "-" * int(name[1])
    code, payload = run_json(capsys, "cohomology", "--type", name, "--eps", eps, "--ring", "F2")
    assert code == 0 and tuple(payload["dims"]) == heights


# sha256 of stdout and the exit code, recorded before the handlers were folded
# into one runner in `main` (the two E8 oracle entries when E8 gained the sphere
# oracle); argparse wraps --help at $COLUMNS, pinned to 80
GOLDEN = [
    (('pq', '--help'), 0, "1a3c4805a6cf6fe1241e74b55219a54e329dec2c5b74d28aa32a180b8283ad22"),
    (('weyl', '--type', 'A3'), 0, "b64953c20d0d4983ae23370803b5c582fc58aa93b64f45d175dbbda21aadbc77"),
    (('weyl', '--type', 'E8', '--emit', 'word-of-longest'), 0, "e1259420ca7662d4e1d37ccc783eed11afa9c5e61a704757b0276f337ec9c489"),
    (('eta', '--type', 'B3', '--eps', '-+-'), 0, "5c3bce5e692b49a1e5d1ff5d1beb631c3bd967c26f16fbf083038ab2599c5f2f"),
    (('pq', '--type', 'E8', '--eps', '--------'), 0, "4ffb548fefa82acd84c7667f68d200d27e7cf14335399f3791f2cd43fc02b19c"),
    (('pq', '--type', 'D5', '--eps', '-+-+-'), 0, "b68e1a9e69fe6c2de3b502bf9e09967f292bcecfd44f4040463789390567d009"),
    (('graph', '--type', 'A3', '--eps', '---', '--format', 'json'), 0, "f8232928634561ea25a84e229c0f249c9b57156011ec64fb004f562c10698eaf"),
    (('graph', '--type', 'B3', '--eps', '-+-', '--format', 'dot'), 0, "62a982a2129c1d106b86762ef0219c68e9089e6987653d2dbf96c24b3114414d"),
    (('cohomology', '--type', 'B3', '--eps', '---'), 0, "86e7c2fb63b817b6c8a9c98fec13b224bc0868aba64f1b3fff46199d01be0618"),
    (('cohomology', '--type', 'G2', '--eps', '--', '--ring', 'F2'), 0, "82d7c9244e5d18b9a48020554f98074bc0dc29da6dbbb1ff1679b39f908d1f87"),
    (('tau', '--type', 'B3', '--emit', 'poly'), 0, "a404815c6c3b8acb2056d99a3c7656e7fc7ea9d467e2350d1f7e5dd84abab1c6"),
    (('chevalley', '--type', 'A3', '--prime', '13', '--verify'), 0, "e3da764faa7be24891f28f66fe52815d6b10930e1037abb9ef146a98b35f93a1"),
    (('flow', '--rank', '2', '--spectrum', '-2,0.5,1.5', '--window', '40', '--samples', '2001'), 0, "e70a8bfe25797b685cf23cbe6e724f6e1dd28cd59e3889cc096f17bec328e2c6"),
    (('verify', '--type', 'G2'), 0, "39dab876a19a1ef56c81fae4593d968adbbd33ed39f5d3bc8fe3383efb9439fd"),
    (('verify', '--type', 'E6'), 0, "0ab15ea3116103dacad847410a3b791200e3bc26faa4844390b63dffa3800788"),
    (('chevalley', '--type', 'E8', '--prime', '13', '--verify'), 0, "29e8beadb2ac3fc74ed663cd0b63288ba6929ba1b225847b6ce58fde8292aec0"),
    (('verify', '--type', 'E8'), 0, "cf65b0329988628609c7b8049aaaecbdfacab15e647cdee13b8746a9b95ba2a5"),
    (('pq', '--type', 'A2', '--eps', '---'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('eta', '--type', 'E8', '--eps', '--------'), 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_bytes(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FLAGCOH_CAP", raising=False)
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
