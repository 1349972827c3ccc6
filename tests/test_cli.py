import hashlib
import json
import time

import pytest

import wreath_sylow as ws
from wreath_sylow import cli, gallery, oracle
from wreath_sylow.cli import main
from wreath_sylow.perm import Perm, conjugate, format_cycles
from wreath_sylow.tower import DEGREE_CAP
from wreath_sylow.words import parse_generators, parse_word

T33 = ws.tower(3, 3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_word_parser_basics():
    assert parse_word(T33, "s0") == ws.shift_gen(T33, 0)
    assert parse_word(T33, "e1") == ws.scale_gen(T33, 1)
    assert parse_word(T33, "r2") == ws.co_shift_gen(T33, 2)
    assert parse_word(T33, "s1 * s2") == ws.shift_gen(T33, 1) * ws.shift_gen(T33, 2)
    assert parse_word(T33, "~s1") == ws.shift_gen(T33, 1).inverse()
    assert parse_word(T33, "s2 ^ s0") == conjugate(
        ws.shift_gen(T33, 2), ws.shift_gen(T33, 0)
    )
    assert parse_word(T33, "s2 ^ (s0 * s1)") == conjugate(
        ws.shift_gen(T33, 2), ws.shift_gen(T33, 0) * ws.shift_gen(T33, 1)
    )


def test_word_parser_conjugation_left_associative():
    a = parse_word(T33, "s2 ^ s1 ^ s0")
    b = conjugate(conjugate(ws.shift_gen(T33, 2), ws.shift_gen(T33, 1)), ws.shift_gen(T33, 0))
    assert a == b


def test_word_parser_cycles_and_lists():
    gens = parse_generators(T33, "(0 1 2); s0 * s1;  ()")
    assert gens[0] == ws.shift_gen(T33, 2)
    assert gens[2] == Perm.identity(27)
    assert parse_generators(T33, "") == []


def test_word_parser_reads_the_family_tuples():
    # a token is the family's cached object, and an index off the family
    # keeps the level builders' message
    tw = ws.tower(2, 3)
    assert parse_word(tw, "s2") is ws.shift_gens(tw)[2]
    assert parse_word(tw, "e1") is ws.scale_gens(tw)[1]
    assert parse_word(tw, "r1") is ws.co_shift_gens(tw)[0]
    for token, message in [
        ("s5", "level 5 out of range 0..2"),
        ("r0", "level 0 out of range 1..2"),
        ("r3", "level 3 out of range 1..2"),
        ("e9", "level 9 out of range 0..2"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_word(tw, f"s0 * {token}")
        assert str(exc.value) == message, token


def test_cli_decide_refuses_a_level_off_the_family(capsys):
    for token, message in [("s5", "level 5 out of range 0..2"), ("r0", "level 0 out of range 1..2")]:
        assert main(["decide", "--p", "2", "--n", "3", "--gens", token]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_word_parser_rejects_garbage():
    for bad in ("s", "q1", "s0 *", "(s0", "s0 s1", "s0 ^", "x + y"):
        with pytest.raises(ValueError):
            parse_word(T33, bad)


def test_cli_gens_text(capsys):
    code, out = run_cli(capsys, "gens", "--p", "3", "--n", "3")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert lines["s2"] == "(0 1 2)"
    assert lines["e0"] == "(9 18)(10 19)(11 20)(12 21)(13 22)(14 23)(15 24)(16 25)(17 26)"
    assert lines["r2"] == "(3 4 5)(6 7 8)"
    assert lines["base4"] == "(12 13 14)"


def test_cli_gens_base_family_is_base_translations(capsys):
    for p, n in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        code, out = run_cli(capsys, "gens", "--p", str(p), "--n", str(n), "--format", "json")
        assert code == 0
        base = json.loads(out)["generators"]["base"]
        assert base == {f"base{b}": format_cycles(g) for b, g in enumerate(ws.base_translations(ws.tower(p, n)))}


# sha256 of the recorded JSON outputs: a change to one must update it on purpose
JSON_PINS = {
    # p = 131: an 8-bit lane cannot hold 2p - 2
    "decide --p 131 --n 1 --gens s0": "6a479180e8c0e372b01860e3c45bf610be9e171dd27760ab64c8c1f250bafcaf",
    # the widest lane the degree cap admits with a tail
    "decide --p 127 --n 2 --gens s1": "4189e8d16bb72b5b377bf98690f33f3a43566ecdb2b57d72d61bd951ecc74444",
    # one deep decision per prime of the benchmark ladder: every kernel the
    # certificate runs, and at odd p the scale check on real scale generators
    "decide --p 2 --n 9 --gens s7": "c21e4d527c70dcf92122b4593cf3709865f0fb864bed2f5a8446682cb36cdf5e",
    "decide --p 3 --n 6 --gens s5": "40f1a69f3a1376f2b139e8c54debfc89ba9e52e59c5140bc2d8fd5450540b274",
    "decide --p 5 --n 4 --gens s2": "96917cc5defa1e4cfaa8f02a71df1f976a12a48e628fdf25452ccf69578aaf8d",
    "decide --p 7 --n 3 --gens s1": "becb05380bf59ea6378b6b1fa574971c7fef579591ce3ebb4ce6d688e920b802",
    "gens --p 2 --n 6": "e6bdfe205cc202cee486cb545d5966e49ddc46db26ad260e23a607f925d2ec85",
    "gens --p 3 --n 4": "671e379c5669738612c48f8b1042ded1428c2d794a7a2825960d3a7b6a2e1c61",
    # every normal subgroup against the engine, which closes each from its gens
    "oracle crosscheck --p 2 --n 3": "1244c761e08d5c29c56f5c663ead4c6ac19a26bd097150e2cc6704f6e62baf25",
    "oracle crosscheck --p 3 --n 2": "bcc4888889493636f0fd8a25c1560b5f1e59125b1a19b5f99251809bbee4bb66",
}


@pytest.mark.parametrize("argv", list(JSON_PINS))
def test_cli_json_is_pinned(capsys, argv):
    code, out = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_PINS[argv]


def test_cli_gens_json_deterministic(capsys):
    code1, out1 = run_cli(capsys, "gens", "--p", "2", "--n", "3", "--format", "json")
    code2, out2 = run_cli(capsys, "gens", "--p", "2", "--n", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema"] == 1
    assert report["generators"]["shift"]["s2"] == "(0 1)"


def test_cli_decide_json(capsys):
    code, out = run_cli(
        capsys, "decide", "--p", "3", "--n", "3", "--gens", "s0", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "HasComplement"
    assert report["Z"] == [1, 2]
    assert report["orders"] == {"C": 2, "N": 11, "Pn": 13}
    assert report["complement_generators"] == [
        "(9 12 15)(10 13 16)(11 14 17)(18 21 24)(19 22 25)(20 23 26)",
        "(3 4 5)(6 7 8)",
    ]


def test_cli_decide_cycle_input_matches_word_input(capsys):
    word = "(s1 * (s1 ^ s0) * (s1 ^ (s0 * s0))) * s2"
    g = parse_word(T33, word)
    _, out_word = run_cli(
        capsys, "decide", "--p", "3", "--n", "3", "--gens", word, "--format", "json"
    )
    _, out_cycles = run_cli(
        capsys,
        "decide", "--p", "3", "--n", "3", "--gens", format_cycles(g), "--format", "json",
    )
    assert out_word == out_cycles
    report = json.loads(out_word)
    assert report["case"] == "prefix_tower"
    assert report["complement_generators"] == [
        format_cycles(ws.shift_gen(T33, 0)),
        format_cycles(ws.shift_gen(T33, 1)),
    ]


def test_cli_decide_no_complement(capsys):
    code, out = run_cli(
        capsys,
        "decide", "--p", "3", "--n", "4",
        "--gens", "(s1 * (s1 ^ s0) * (s1 ^ (s0 * s0))) * s2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NoComplement"
    assert report["reason"] == "socle_gap"


def test_cli_partition(capsys):
    code, out = run_cli(
        capsys,
        "partition", "--p", "3", "--n", "3", "--indices", "1,0,0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["depth"] == 1
    assert report["normal"] is True
    assert report["has_complement"] is True
    assert report["engine_crosscheck"]["agrees"] is True

    code, out = run_cli(
        capsys,
        "partition", "--p", "3", "--n", "3", "--indices", "1,0,9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["normal"] is False


def test_cli_gallery(capsys):
    code, out = run_cli(capsys, "gallery", "q8c4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["complement_count"] == 6
    assert report["orbit_type"] == [3, 3]

    code, out = run_cli(capsys, "gallery", "mod9", "--format", "json")
    assert code == 0
    assert json.loads(out)["complement_count"] == 54


@pytest.mark.parametrize(
    "which, builder", [("q8c4", "gallery_quaternion_central"), ("mod9", "gallery_mod9")]
)
def test_cli_gallery_exits_1_on_a_failed_self_check(capsys, monkeypatch, which, builder):
    report = getattr(gallery, builder)()
    checks = [key for key in gallery.SELF_CHECKS if key in report]
    assert len(checks) == (3 if which == "q8c4" else 5)
    for key in checks:
        monkeypatch.setattr(gallery, builder, lambda key=key: {**report, key: False})
        code, out = run_cli(capsys, "gallery", which, "--format", "json")
        assert code == 1 and json.loads(out)[key] is False
    # the missing invariant complement is the finding, not a failed check
    monkeypatch.setattr(gallery, builder, lambda: report)
    assert not report["maschke_property_holds"]
    assert run_cli(capsys, "gallery", which)[0] == 0


def test_cli_corpus(capsys):
    code, out = run_cli(capsys, "corpus")
    assert code == 0
    assert "FAIL" not in out


def test_cli_corpus_json_is_pinned(capsys):
    # the recorded output's sha256: a change to the corpus JSON must update it on purpose
    code, out = run_cli(capsys, "corpus", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "188d3ddb4caaa930996a58687a1392fbeb6de7a71ac5b1583aa1db7768dcc490"


def test_cli_oracle_crosscheck_small(capsys):
    code, out = run_cli(
        capsys, "oracle", "crosscheck", "--p", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exhaustive"
    assert report["all_ok"] is True
    assert report["normal_subgroups"] == 6


def test_cli_oracle_crosscheck_random_seeded(capsys):
    args = (
        "oracle", "crosscheck", "--p", "3", "--n", "3",
        "--seed", "11", "--trials", "6", "--format", "json",
    )
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["mode"] == "random"
    assert report["all_ok"] is True


def test_cli_oracle_crosscheck_rejects_trials_below_one(capsys):
    # a random crosscheck of no trials would report all_ok while checking nothing
    for bad in ("0", "-2"):
        capsys.readouterr()
        code = main(["oracle", "crosscheck", "--p", "3", "--n", "3", "--trials", bad, "--format", "json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err


def test_cli_oracle_abelian_max(capsys):
    code, out = run_cli(
        capsys, "oracle", "abelian-max", "--p", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_abelian_order_exponent"] == 2
    assert report["count_at_max"] == 3


def test_cli_oracle_centralizer(capsys):
    code, out = run_cli(
        capsys, "oracle", "centralizer", "--p", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["base_self_centralizing"] is True
    assert report["tower_self_centralizing"] is True


def test_cli_usage_errors(capsys):
    assert main(["decide", "--p", "3", "--n", "3", "--gens", "bogus !!"]) == 2
    assert main(["gens", "--p", "4", "--n", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--p", "3"])
    assert exc.value.code == 2
    # r is derived from p, so there is no --r
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--p", "3", "--n", "3", "--r", "2", "--gens", "s0"])
    assert exc.value.code == 2


def test_cli_off_tower_item_is_named(capsys):
    # at odd p a scaling map normalizes the tower but is not in it
    assert main(["decide", "--p", "5", "--n", "3", "--gens", "s0; s1 * e2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'s1 * e2' is not in the tower" in err
    assert "the scaling map e2 normalizes the tower but is not in it" in err
    # a cycle string off the tower is named too, with no scaling remark
    assert main(["decide", "--p", "3", "--n", "2", "--gens", "s1; (0 1)"]) == 2
    err = capsys.readouterr().err
    assert "'(0 1)' is not in the tower" in err and "scaling" not in err


def test_cli_refuses_degree_above_cap_at_once(capsys):
    start = time.perf_counter()
    assert main(["decide", "--p", "2", "--n", "40", "--gens", "s0"]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == f"error: degree 2**40 exceeds the degree cap {DEGREE_CAP}\n"


def test_cli_bad_indices_name_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--p", "3", "--n", "2", "--indices", "1,x"])
    assert exc.value.code == 2
    assert "--indices" in capsys.readouterr().err


@pytest.fixture
def closures(monkeypatch):
    """The argument lists of every oracle.bfs_closure call the CLI makes."""
    calls = []
    real = oracle.bfs_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "bfs_closure", counted)
    return calls


def test_cli_oracle_centralizer_refuses_degree_before_enumerating(capsys, closures):
    assert main(["oracle", "centralizer", "--p", "3", "--n", "3"]) == 2
    assert "degree 27 exceeds scan cap 9" in capsys.readouterr().err
    assert closures == []


def test_cli_oracle_centralizer_refuses_degree_before_base_translations(capsys, monkeypatch):
    # the tower scan refuses first: p^(n-1) full-degree base translations are never built
    built = []
    monkeypatch.setattr(cli, "base_translations", lambda tw: built.append(tw))
    start = time.perf_counter()
    assert main(["oracle", "centralizer", "--p", "2", "--n", "12"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: degree 4096 exceeds scan cap 9\n"
    assert built == []


def test_cli_oracle_abelian_max_refuses_order_before_enumerating(capsys, closures):
    assert main(["oracle", "abelian-max", "--p", "2", "--n", "4"]) == 2
    assert "group order 32768 exceeds cap 4096" in capsys.readouterr().err
    assert main(["oracle", "abelian-max", "--p", "3", "--n", "3"]) == 2
    assert "group order 1594323 exceeds cap 4096" in capsys.readouterr().err
    assert closures == []


def test_cli_reuses_one_parser(capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ("oracle", "crosscheck", "--p", "3", "--n", "3", "--seed", "7", "--trials", "3", "--format", "json"),
        ("decide", "--p", "3", "--n", "3", "--gens", "s1", "--format", "json"),
        ("partition", "--p", "3", "--n", "3", "--indices", "1,0,0", "--format", "json"),
        ("oracle", "crosscheck", "--p", "3", "--n", "3", "--format", "json"),
    ]
    first = []
    for argv in runs:
        cli.build_parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    parser = cli.build_parser()
    assert [run_cli(capsys, *argv) for argv in runs] == first
    assert cli.build_parser() is parser
    # the seed and trials of the first crosscheck do not leak into the last
    last = json.loads(first[-1][1])
    assert (last["seed"], last["trials"]) == (0, 25)


def test_cli_deep_nesting_is_a_usage_error(capsys):
    for word in ("(" * 1200 + "s0" + ")" * 1200, "~" * 1200 + "s0"):
        assert main(["decide", "--p", "2", "--n", "3", "--gens", word]) == 2
        assert "nested deeper" in capsys.readouterr().err
    # nesting within the limit still parses
    assert parse_word(T33, "(" * 100 + "s0" + ")" * 100) == ws.shift_gen(T33, 0)
    assert parse_word(T33, "~" * 99 + "(s0)") == ws.shift_gen(T33, 0).inverse()


def test_cli_caps_ignore_the_environment(capsys, monkeypatch):
    # the oracle's caps are fixed: a cap variable in the environment changes nothing
    unset = run_cli(capsys, "oracle", "abelian-max", "--p", "2", "--n", "2")
    monkeypatch.setenv("WREATH_SYLOW_BFS_CAP", "4")
    assert run_cli(capsys, "oracle", "abelian-max", "--p", "2", "--n", "2") == unset
    assert unset[0] == 0
