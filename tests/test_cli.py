import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import voicegroup
from voicegroup.cli import MAX_RICH_STEPS, build_parser, main
from voicegroup.modring import Modulus
from voicegroup.linalg import Vec3
from voicegroup.analysis import rich_element
from voicegroup.extension import parse_element
from voicegroup.datasets import FALLING_FIFTHS, GRAIL
from voicegroup.structure import Ambient

PACKAGE_DIR = Path(voicegroup.__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("voicegroup.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def check(name, payload):
    jsonschema.validate(payload, load_schema(name))


@pytest.fixture
def grail_file(tmp_path):
    path = tmp_path / "grail.json"
    path.write_text(json.dumps(GRAIL.to_jsonable()))
    return str(path)


@pytest.fixture
def fifths_file(tmp_path):
    path = tmp_path / "fifths.json"
    path.write_text(json.dumps(FALLING_FIFTHS.to_jsonable()))
    return str(path)


def test_normal_form_word(capsys):
    code, out, _ = run(capsys, "normal-form", "--word", "VW")
    assert code == 0
    assert out.splitlines()[0] == "(UV)^11 (UW)^1"


def test_normal_form_word_single_generator(capsys):
    code, out, _ = run(capsys, "normal-form", "--word", "U")
    assert code == 0
    assert out.splitlines()[0] == "U"


def test_normal_form_matrix_mod_7(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--matrix", "[[0,1,0],[0,0,1],[6,1,1]]", "--mod", "7"
    )
    assert code == 0
    assert out.splitlines()[0] == "(13) U (UV)^1"


def test_normal_form_json_schema(capsys):
    code, out, _ = run(capsys, "normal-form", "--word", "VW", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("element", payload)
    assert payload["text"] == "(UV)^11 (UW)^1"


def test_normal_form_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "normal-form", "--word", "XYZ")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_normal_form_refuses_an_empty_word(capsys, fmt):
    # an empty --word is given, not missing, so it must not fall through to --matrix
    code, out, err = run(capsys, "normal-form", "--word", "", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: word must consist of the letters U, V, W: ''\n"


def test_normal_form_not_in_group_exit_2(capsys):
    code, _, err = run(capsys, "normal-form", "--matrix", "[[1,1,1],[1,1,1],[1,1,1]]")
    assert code == 2 and "error" in err


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normal-form"])
    capsys.readouterr()
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["normal-form", "--word", "VW", "--format", "dot"],
        ["export-dot", "{grail}", "--format", "text"],
        ["normal-form", "--word", "VW", "--budget", "0"],
        ["center", "--budget", "0"],
        ["hook", "from-utt", "--utt", "<+,1,0>", "--budget", "1"],
        ["orbit", "--seed", "0,4,7", "--budget", "5"],
        ["rich", "--seed", "8,4,5", "--budget", "5"],
    ],
)
def test_options_a_subcommand_cannot_honour_are_refused(capsys, grail_file, argv):
    # export-dot writes DOT or JSON and the others text or JSON; normal-form,
    # center and hook return at most four elements, and orbit and rich run no
    # budgeted search, so no budget bounds them
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main([a.format(grail=grail_file) for a in argv])
    _, err = capsys.readouterr()
    assert exc.value.code == 1
    assert flag in err


def test_solve_grail(capsys, grail_file):
    code, out, _ = run(capsys, "solve", grail_file, "--sigma", "(12)", "--k", "1", "--cyclic")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("(12) U (UV)^2 (UW)^7")
    assert "[[11,5,9],[10,6,9],[11,6,8]]" in lines[0]


def test_solve_grail_json_schema(capsys, grail_file):
    code, out, _ = run(
        capsys, "solve", grail_file, "--sigma", "(12)", "--k", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    check("solutions", payload)
    assert len(payload["solutions"]) == 4


@pytest.mark.parametrize("rotated, cycle", [("(21)", "(12)"), ("(321)", "(132)")])
def test_solve_reads_a_rotated_sigma_as_its_cycle(capsys, grail_file, rotated, cycle):
    rotated_run = run(capsys, "solve", grail_file, "--sigma", rotated, "--k", "1")
    assert rotated_run == run(capsys, "solve", grail_file, "--sigma", cycle, "--k", "1")
    assert rotated_run[0] == 0


def test_solve_falling_fifths_defaults_to_all_cases(capsys, fifths_file):
    code, out, _ = run(capsys, "solve", fifths_file, "--mod", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("(12) U (UV)^3")
    assert "[[5,0,3],[4,1,3],[5,1,2]]" in lines[0]


def test_solve_no_solutions(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"modulus": 12, "tuples": [[0,4,7],[1,4,7]]}')
    code, out, _ = run(capsys, "solve", str(path), "--sigma", "id", "--k", "0")
    assert code == 0
    assert out.strip() == "no solutions"


def test_solve_malformed_json_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1 and "malformed" in err


def test_solve_passes_budget_on(capsys, tmp_path):
    # the RICH step (0,4,7) -> (4,7,11) mod 5003: the solver is exact, but
    # the search-space bound 5003^2 is over the default budget
    path = tmp_path / "rich5003.json"
    path.write_text('{"modulus": 5003, "tuples": [[0,4,7],[4,7,11]]}')
    code, out, err = run(capsys, "solve", str(path), "--format", "json")
    assert code == 3 and out == ""
    assert err == "error: 5003^2 = 25030009 candidates exceeds budget 10000000\n"
    code, out, _ = run(capsys, "solve", str(path), "--format", "json", "--budget", "100000000000")
    assert code == 0
    payload = json.loads(out)
    check("solutions", payload)
    assert "(13) U (UV)^1" in [s["text"] for s in payload["solutions"]]
    argv = ["export-dot", str(path), "--sigma", "(13)", "--k", "1"]
    assert run(capsys, *argv)[0] == 3
    code, out, _ = run(capsys, *argv, "--budget", "100000000000")
    assert code == 0 and out.startswith("digraph")


def test_centralizer_gl3(capsys):
    code, out, _ = run(capsys, "centralizer", "--ambient", "gl3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("centralizer", payload)
    assert payload["size"] == 16
    assert len(payload["matrices"]) == 16


def test_centralizer_affine_group(capsys):
    code, out, _ = run(capsys, "centralizer", "--ambient", "affx", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("centralizer", payload)
    assert payload["size"] == 192


def test_centralizer_budget_exit_3(capsys):
    code, _, err = run(capsys, "centralizer", "--ambient", "m3", "--mod", "7")
    assert code == 3 and "budget" in err


def test_centralizer_mod_36_with_lifted_budget(capsys):
    # 9^9 = 387420489 is the search space of the mod-9 factor
    argv = ["centralizer", "--ambient", "m3", "--mod", "36", "--budget", "387420489", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    check("centralizer", payload)
    assert payload["size"] == 144


def test_center(capsys):
    code, out, _ = run(capsys, "center", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("center", payload)
    assert payload["size"] == 4
    assert [e["text"] for e in payload["elements"]] == [
        "Id",
        "(UW)^6",
        "(UV)^6",
        "(UV)^6 (UW)^6",
    ]


def test_count_sl3(capsys):
    code, out, _ = run(capsys, "count", "sl3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("count", payload)
    assert payload["order"] == 241532928
    assert payload["voicing_group_index"] == 838656


def test_count_gl3_text(capsys):
    code, out, _ = run(capsys, "count", "gl3")
    assert code == 0
    assert "966131712" in out
    assert "3354624" in out


def test_count_budget_exit_3(capsys):
    code, _, err = run(capsys, "count", "gl3", "--mod", "7")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize(
    "argv, key, lifted",
    [
        (["count", "gl3"], "order", 19_016_370_487_296),
        (["count", "sl3"], "order", 1_584_697_540_608),
        (["centralizer", "--ambient", "m3"], "size", 144),
        (["centralizer", "--ambient", "gl3"], "size", 48),
        (["centralizer", "--ambient", "aff"], "size", 5184),
        (["centralizer", "--ambient", "affx"], "size", 1728),
    ],
)
def test_budget_bounds_the_q9_matrices_per_prime_power_factor(capsys, argv, key, lifted):
    # the answers are closed forms; the budget still bounds the q^9 matrices
    # over each prime-power factor q, and mod 36 is refused at its factor 9
    for mod, q in (("7", 7), ("36", 9)):
        code, out, err = run(capsys, *argv, "--mod", mod)
        assert (code, out) == (3, "")
        assert err == f"error: {q}^9 = {q**9} candidates exceeds budget 10000000\n"
    code, out, _ = run(capsys, *argv, "--mod", "36", "--budget", "387420489", "--format", "json")
    assert code == 0
    assert json.loads(out)[key] == lifted


def test_orbit_dual_root_position(capsys):
    code, out, _ = run(capsys, "orbit", "--seed", "0,4,7", "--group", "j", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("orbit", payload)
    assert payload["size"] == 24


def test_orbit_all_triads(capsys):
    code, out, _ = run(capsys, "orbit", "--seed", "0,4,7", "--group", "extension", "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 144


# j and extension are covered by the two tests above
@pytest.mark.parametrize("group, size", [("j+", 12), ("sigma-j+", 72), ("hook", 24)])
def test_orbit_size_of_each_group(capsys, group, size):
    code, out, _ = run(capsys, "orbit", "--seed", "0,4,7", "--group", group)
    assert code == 0
    assert out.splitlines()[0] == f"size: {size}"


def test_orbit_at_a_large_modulus(capsys):
    # 12 point-group cosets times the n = 5040 shifts along (1, 1, 1)
    code, out, _ = run(capsys, "orbit", "--seed", "0,1,3", "--group", "extension", "--mod", "5040")
    assert code == 0
    assert out.splitlines()[0] == "size: 60480"


def test_each_format_builds_only_what_it_prints(capsys, monkeypatch):
    from voicegroup.structure import CentralizerReport

    def unused(self):
        raise AssertionError("built output that --format does not print")

    # the text lines format every tuple; the JSON payload lists the entries
    monkeypatch.setattr(Vec3, "__str__", unused)
    code, out, _ = run(capsys, "orbit", "--seed", "0,4,7", "--group", "j", "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 24
    monkeypatch.setattr(CentralizerReport, "to_jsonable", unused)
    code, out, _ = run(capsys, "centralizer", "--ambient", "m3")
    assert code == 0
    assert out.splitlines()[:2] == ["ambient: m3", "size: 48"]


def test_hook_to_utt(capsys):
    code, out, _ = run(capsys, "hook", "to-utt", "--element", "(13)W")
    assert code == 0
    assert out.strip() == "<-,0,0>"
    code, out, _ = run(capsys, "hook", "to-utt", "--element", "(13)W", "--format", "json")
    check("hook_to_utt", json.loads(out))


def test_hook_from_utt(capsys):
    code, out, _ = run(capsys, "hook", "from-utt", "--utt", "<+,1,0>")
    assert code == 0
    assert out.splitlines()[0] == "(UV)^4 (UW)^11"


def test_hook_from_utt_takes_no_brackets(capsys):
    code, out, _ = run(capsys, "hook", "from-utt", "--utt", "+,1,0")
    assert code == 0
    assert out.splitlines()[0] == "(UV)^4 (UW)^11"


@pytest.mark.parametrize("utt", ["<<+,1,0>>", "<+,1,0", "+,1,0>>>"])
def test_hook_from_utt_rejects_unbalanced_brackets(capsys, utt):
    code, out, err = run(capsys, "hook", "from-utt", "--utt", utt)
    assert code == 1 and out == ""
    assert "cannot parse triadic transformation" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hook", "to-utt"], "error: to-utt needs --element\n"),
        (["hook", "from-utt"], "error: from-utt needs --utt\n"),
        (["orbit", "--seed", "1,2"], "error: expected three comma-separated entries, got '1,2'\n"),
    ],
)
def test_missing_or_short_arguments_exit_1(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("command", ["solve", "export-dot"])
def test_unreadable_progression_file_exits_1(capsys, tmp_path, command):
    path = str(tmp_path / "missing.json")
    code, out, err = run(capsys, command, path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "ambient, head",
    [
        ("aff", ["ambient: aff", "size: 576", "[[0,0,0],[0,0,0],[0,0,0]] + (0,0,0)", "[[0,0,0],[0,0,0],[0,0,0]] + (1,1,1)"]),
        ("affx", ["ambient: affx", "size: 192", "[[1,0,0],[0,1,0],[0,0,1]] + (0,0,0)", "[[1,0,0],[0,1,0],[0,0,1]] + (1,1,1)"]),
    ],
)
def test_affine_centralizer_text(capsys, ambient, head):
    code, out, err = run(capsys, "centralizer", "--ambient", ambient)
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines[:4] == head and len(lines) == 2 + int(head[1].split()[1])


def test_hook_rejects_non_hook_element(capsys):
    code, _, err = run(capsys, "hook", "to-utt", "--element", "(12)U")
    assert code == 2 and "error" in err
    assert "(12) U does not preserve root-position triads" in err


@pytest.mark.parametrize("direction, arg", [("to-utt", "--element=(13)W"), ("from-utt", "--utt=<+,1,0>")])
def test_hook_has_no_mod_option(capsys, direction, arg):
    # the Hook map is defined over Z/12 only, so a modulus is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["hook", direction, arg, "--mod", "5"])
    _, err = capsys.readouterr()
    assert exc.value.code == 1
    assert "--mod" in err


def test_rich_cycle(capsys):
    code, out, _ = run(capsys, "rich", "--seed", "8,4,5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check("rich", payload)
    assert payload["cycle_length"] == 8
    assert payload["tuples"][0] == [8, 4, 5]
    assert payload["tuples"][1] == [4, 5, 1]


def test_rich_fixed_step_count(capsys):
    code, out, _ = run(capsys, "rich", "--seed", "8,4,5", "--steps", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tuples"] == [[8, 4, 5], [4, 5, 1], [5, 1, 2]]
    assert payload["cycle_length"] == 8


def test_rich_steps_past_the_cycle_wrap_around(capsys):
    # the cycle of 8,4,5 has length 8, so 20 steps go round it twice and more
    code, out, _ = run(capsys, "rich", "--seed", "8,4,5", "--steps", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle_length"] == 8
    element, current = rich_element(Modulus(12)), Vec3.of(8, 4, 5, 12)
    want = [current]
    for _ in range(20):
        current = element.apply(current)
        want.append(current)
    assert payload["tuples"] == [list(v.entries) for v in want]


def test_rich_rejects_negative_step_count(capsys):
    code, out, err = run(capsys, "rich", "--seed", "8,4,5", "--steps", "-3")
    assert code == 1
    assert out == ""
    assert "--steps" in err


def test_rich_step_count_at_the_bound_is_printed(capsys):
    code, out, _ = run(capsys, "rich", "--seed", "8,4,5", "--steps", str(MAX_RICH_STEPS), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["tuples"]) == MAX_RICH_STEPS + 1
    # the cycle of 8,4,5 has length 8, so the last step lands on the seed's cycle position
    assert payload["tuples"][-1] == payload["tuples"][MAX_RICH_STEPS % 8]


@pytest.mark.parametrize("steps", [MAX_RICH_STEPS + 1, 10**18])
def test_rich_rejects_step_count_above_the_bound(capsys, steps):
    code, out, err = run(capsys, "rich", "--seed", "8,4,5", "--steps", str(steps))
    assert code == 1
    assert out == ""
    assert f"at most {MAX_RICH_STEPS}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rich", "--seed", "٠,٤,٧", "--steps", "2"], "cannot parse vector"),
        (["hook", "from-utt", "--utt", "<+,٣,1_0>"], "invalid literal for int"),
        (["center", "--mod", "١٢"], "argument --mod: invalid int value: '١٢'"),
        (["center", "--mod", "1_2"], "argument --mod: invalid int value: '1_2'"),
        (["rich", "--seed", "0,4,7", "--steps", "٢"], "argument --steps: invalid int value"),
        (["center", "--mod", "x"], "argument --mod: invalid int value: 'x'"),
    ],
)
def test_integers_from_outside_take_ascii_digits_only(capsys, argv, message):
    # str writes ASCII only, so other decimal digits and '_' are malformed input
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an option value itself
        code = exc.code
    _, err = capsys.readouterr()
    assert code == 1
    assert message in err


@pytest.mark.parametrize("command", [["count", "gl3"], ["count", "sl3"], ["center"], ["normal-form", "--word", "U"]])
def test_modulus_2_is_refused_where_the_voicing_group_collapses(capsys, command):
    code, out, err = run(capsys, *command, "--mod", "2")
    assert code == 1 and out == ""
    assert "voicing-group normal forms need modulus >= 3" in err


def test_solve_cyclic_flag_changes_result(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text('{"modulus": 12, "tuples": [[0,4,7],[1,5,8]]}')
    code, out, _ = run(capsys, "solve", str(path), "--sigma", "id", "--k", "0", "--format", "json")
    assert code == 0 and len(json.loads(out)["solutions"]) == 12
    code, out, _ = run(
        capsys, "solve", str(path), "--sigma", "id", "--k", "0", "--cyclic", "--format", "json"
    )
    assert code == 0 and json.loads(out)["solutions"] == []


def test_export_dot_without_solutions_warns(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text('{"modulus": 12, "tuples": [[0,4,7],[1,4,7]]}')
    code, out, err = run(capsys, "export-dot", str(path), "--sigma", "id", "--k", "0")
    assert code == 0
    assert "no solutions" in err


def test_export_dot(capsys, grail_file):
    code, out, _ = run(capsys, "export-dot", grail_file, "--sigma", "(12)", "--k", "1")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 6
    assert "(12) U (UV)^2 (UW)^7" in out


def test_export_network_json_schema(capsys, grail_file):
    code, out, _ = run(capsys, "export-dot", grail_file, "--format", "json")
    assert code == 0
    check("network", json.loads(out))


@pytest.mark.parametrize("command", ["solve", "export-dot"])
def test_mod_must_match_the_progression_file(capsys, fifths_file, command):
    # FALLING_FIFTHS is a mod-7 progression; the default of other commands, 12, must not apply
    code, out, err = run(capsys, command, fifths_file, "--mod", "12")
    assert code == 1
    assert out == ""
    assert "--mod 12" in err and "7" in err
    code, out, _ = run(capsys, command, fifths_file, "--mod", "7")
    assert code == 0 and out
    code, out_default, _ = run(capsys, command, fifths_file)
    assert code == 0 and out_default == out


def test_progression_schema_accepts_canonical_files():
    schema = load_schema("progression")
    jsonschema.validate(GRAIL.to_jsonable(), schema)
    jsonschema.validate(FALLING_FIFTHS.to_jsonable(), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"modulus": 12}, schema)


def test_printed_elements_reparse(ext12):
    for a in ext12:
        assert parse_element(str(a), Modulus(12)) == a


def test_element_payload_round_trip(capsys):
    # printed text and matrix stay mutually consistent through the CLI
    code, out, _ = run(capsys, "hook", "from-utt", "--utt", "<-,4,3>", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    element = parse_element(payload["text"], Modulus(12))
    assert [list(r) for r in element.matrix().rows] == payload["matrix"]
    assert element == parse_element("(13)V", Modulus(12))


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's voicegroup."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    return env


def test_orbit_into_closed_pipe_exits_cleanly():
    # 12108 orbit lines at mod 1009 outgrow the pipe buffer, so the CLI is
    # still writing when the reader goes away, as with `| head -1`.
    argv = ["orbit", "--seed", "0,4,7", "--group", "extension", "--mod", "1009"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "voicegroup.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    with proc.stderr:
        assert proc.stdout.readline() == b"size: 12108\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, error",
    [
        # 7 * 1428571429 * 10000000019 and 10000000019 * 10000000033: trial division hung on both
        (["count", "gl3", "--mod", "100000000220000000057"], "error: 7^9 = 40353607 candidates exceeds budget"),
        (["centralizer", "--ambient", "gl3", "--mod", "100000000520000000627"], "error: 10000000019^9 = "),
    ],
)
def test_large_moduli_are_factored_before_the_budget_refuses_them(argv, error):
    proc = subprocess.run(
        [sys.executable, "-m", "voicegroup.cli", *argv], capture_output=True, text=True, env=_child_env(), timeout=10
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith(error)


def test_importing_the_cli_loads_no_numpy():
    code = "import sys, voicegroup, voicegroup.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# The layers every subcommand loads; the table below adds each one's own.
_CLI_LAYERS = {"modring", "linalg", "voicing", "extension", "cli"}

# Runs cli.main(sys.argv[1:]) in a fresh interpreter and prints the exit code
# and the voicegroup modules it loaded.
_IMPORT_PROBE = """
import contextlib, io, sys
from voicegroup.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("voicegroup.")))
"""


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["normal-form", "--word", "VW"], set()),
        (["center"], {"structure"}),
        (["count", "gl3"], {"structure"}),
        (["centralizer", "--ambient", "aff"], {"structure"}),
        (["hook", "to-utt", "--element", "(13)W"], {"triadic"}),
        (["orbit", "--seed", "0,4,7"], {"triadic"}),
        # analysis reads the Hook points from voicing; none of them needs structure or triadic
        (["solve", "{grail}"], {"analysis"}),
        (["export-dot", "{grail}"], {"analysis"}),
        (["rich", "--seed", "0,4,7"], {"analysis"}),
    ],
)
def test_each_subcommand_imports_only_its_layers(grail_file, argv, extra):
    argv = [a.replace("{grail}", grail_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert set(loaded) == _CLI_LAYERS | extra


# Imports voicegroup and voicegroup.cli in a fresh interpreter, runs
# cli.main(sys.argv[1:]), and prints which of the heavy stdlib modules were
# loaded after the import and after the run, one line each.
_STDLIB_PROBE = """
import contextlib, io, sys
import voicegroup, voicegroup.cli
heavy = ("dataclasses", "inspect")
print(*[m for m in heavy if m in sys.modules], sep=",")
with contextlib.redirect_stdout(io.StringIO()):
    code = voicegroup.cli.main(sys.argv[1:])
print(*[m for m in heavy if m in sys.modules], sep=",")
print(code)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["normal-form", "--word", "VW"], ""),
        (["orbit", "--seed", "0,4,7"], ""),
        (["hook", "to-utt", "--element", "(13)W"], ""),
        (["hook", "from-utt", "--utt", "<+,1,0>"], ""),
        # these return the report records (CentralizerReport, DualityReport,
        # UniformSolution), which are still dataclasses
        (["center"], "dataclasses,inspect"),
        (["count", "gl3"], "dataclasses,inspect"),
        (["centralizer", "--ambient", "aff"], "dataclasses,inspect"),
        (["solve", "{grail}"], "dataclasses,inspect"),
        (["export-dot", "{grail}"], "dataclasses,inspect"),
        (["rich", "--seed", "0,4,7"], "dataclasses,inspect"),
    ],
)
def test_algebra_subcommands_load_no_dataclasses(grail_file, argv, loaded):
    argv = [a.replace("{grail}", grail_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE, *argv], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", loaded, "0"]


def test_widened_morphism_search_loads_neither_structure_nor_triadic():
    code = (
        "import sys; from voicegroup.analysis import find_affine_morphisms; "
        "from voicegroup.datasets import WEBERN_ROW_1, WEBERN_ROW_2; "
        "find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2, restrict_to_centralizer=True); "
        "print(sorted(m for m in ('voicegroup.structure', 'voicegroup.triadic') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_package_loads_no_module():
    code = "import sys, voicegroup; print(sorted(m for m in sys.modules if m.startswith('voicegroup.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_structure_loads_no_extension_module():
    # structure reads sigma_conjugate_generator from voicing, where it is defined
    code = "import sys, voicegroup.structure; print('voicegroup.extension' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_ambient_choices_are_the_ambient_values():
    # The choices are written out so that parsing needs no structure module.
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (ambient,) = [a for a in commands.choices["centralizer"]._actions if a.dest == "ambient"]
    assert list(ambient.choices) == [a.value for a in Ambient]


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so checks must be explicit raises.
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def _references(path, names):
    """Line numbers where path names any of names: an import, a name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]


def test_group_computations_use_no_matrix_kernel():
    # triadic acts through the element coordinates (voicing._act and the
    # point-product table), and structure reads its duality verdicts and
    # restriction table off the seed's intervals, acting on nothing; a matrix is
    # built only when it is the answer, and no determinant is taken (a
    # centralizer member's is the cube of its scalar).
    kernels = {"mat_mul", "_mat_vec_ints", "generator_matrix", "is_invertible", "determinant", "_det_int"}
    for name in ("structure.py", "triadic.py"):
        lines = _references(PACKAGE_DIR / name, kernels)
        assert lines == [], f"{name}: matrix kernel at lines {lines}"
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "linalg.py":
            lines = _references(path, {"_mat_vec_ints"})
            assert lines == [], f"{path.name}: _mat_vec_ints at lines {lines}"


def _element_make_calls(path):
    """(line, whether it passes exactly one plain argument) for each call in path
    that builds a group element through its trusted constructor: JElement._make or
    ExtElement._make, cls._make or type(self)._make in the element modules, and a
    name bound to any of these."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {"JElement", "ExtElement"} | ({"cls"} if path.name in ("voicing.py", "extension.py") else set())

    def is_make(node):
        if not (isinstance(node, ast.Attribute) and node.attr == "_make"):
            return False
        owner = node.value
        if isinstance(owner, ast.Call):  # type(self)._make
            return isinstance(owner.func, ast.Name) and owner.func.id == "type" and "cls" in owners
        return isinstance(owner, ast.Name) and owner.id in owners

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):  # make, out = X._make, []
                    pairs = zip(target.elts, node.value.elts)
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and is_make(v)}
    return [
        (node.lineno, len(node.args) == 1 and not isinstance(node.args[0], ast.Starred) and not node.keywords)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (is_make(node.func) or (isinstance(node.func, ast.Name) and node.func.id in aliases))
    ]


def test_elements_are_built_from_one_coordinate_tuple():
    # an element holds one slot, (point, m, n, modulus), and its trusted constructor is
    # the one-field one that modring._Value derives; a call that still passes four
    # fields would raise TypeError only on the path that runs it
    from voicegroup.extension import ExtElement
    from voicegroup.voicing import JElement, _Element

    assert _Element.__slots__ == ("_c",)
    for cls in (JElement, ExtElement):
        assert cls.__dict__["__slots__"] == ()
        assert cls._make.__code__ is Modulus._make.__code__ and cls._make.__qualname__ == f"{cls.__name__}._make"
    calls = {path.name: _element_make_calls(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert sum(len(found) for found in calls.values()) >= 15
    for name, found in calls.items():
        lines = [line for line, one in found if not one]
        assert lines == [], f"{name}: element _make without one coordinate tuple at lines {lines}"


@pytest.mark.parametrize(
    "entries",
    ["[[0.9,1,0],[1,0,0],[1,1,11]]", "[[true,1,0],[1,0,0],[1,1,11]]", '[[0,1,0],[1,0,0],[1,1,"11"]]'],
)
def test_normal_form_matrix_entries_must_be_integers(capsys, entries):
    # 0.9 was truncated to 0 and printed U; true was read as 1
    code, out, err = run(capsys, "normal-form", "--matrix", entries)
    assert code == 1 and out == ""
    assert "cannot parse matrix" in err


@pytest.mark.parametrize("text", ["5", "[[1,2,3],[4,5,6],7]", "null"])
def test_normal_form_matrix_must_be_three_rows_of_three(capsys, text):
    # Mat3 refuses these itself; a TypeError text ("'int' object is not iterable") leaked through before
    code, out, err = run(capsys, "normal-form", "--matrix", text, "--mod", "7")
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse matrix {text!r}: expected a 3x3 matrix\n"


def _readme_cli_lines():
    """The `voicegroup ...` lines of README's CLI block, as (argv, annotation):
    the words up to a shell redirect, and the text after a `# ->` comment, if any."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words[:1] == ["voicegroup"]:
            argv = words[1 : words.index(">")] if ">" in words else words[1:]
            annotation = comment.strip()
            out.append((argv, annotation[2:].strip() if annotation.startswith("->") else None))
    return out


README_CLI_LINES = _readme_cli_lines()


def test_readme_cli_block_shows_every_subcommand():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv, _ in README_CLI_LINES} == set(commands.choices)
    assert (["hook", "to-utt", "--element", "(13)W"], "<-,0,0>") in README_CLI_LINES


@pytest.mark.parametrize("argv, annotation", README_CLI_LINES, ids=[" ".join(a) for a, _ in README_CLI_LINES])
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, grail_file, fifths_file, argv, annotation):
    # the fixtures write the progression files the examples name into tmp_path
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out
    if annotation is not None:
        assert out.splitlines()[0] == annotation


def _progression_file(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["solve", "export-dot"])
@pytest.mark.parametrize(
    "text",
    [
        # bool("false") is True, so this was solved as a cyclic progression
        '{"modulus": 12, "cyclic": "false", "tuples": [[0,4,7],[4,7,11]]}',
        '{"modulus": 12, "cyclic": 0, "tuples": [[0,4,7],[4,7,11]]}',
        '{"modulus": 12, "tuples": [[0,4.9,7],[4,7,11]]}',
        '{"modulus": 12, "tuples": [[0,true,7],[4,7,11]]}',
        '{"modulus": "12", "tuples": [[0,4,7],[4,7,11]]}',
        '{"modulus": 12.5, "tuples": [[0,4,7],[4,7,11]]}',
        '{"modulus": 12, "tuples": [[0,4,7],[1,5,8]], "foo": 1}',
        '{"modulus": 12, "tuples": [[0,4],[1,5,8]]}',
        '{"modulus": 12, "tuples": [[0,4,7,1],[1,5,8]]}',
        '{"modulus": 12, "tuples": [5]}',
    ],
)
def test_progression_files_must_match_their_schema(capsys, tmp_path, command, text):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(text), load_schema("progression"))
    code, out, err = run(capsys, command, _progression_file(tmp_path, text))
    assert code == 1 and out == ""
    assert "malformed progression file" in err
    # the message names the problem, not the Python call that tripped over it
    assert "positional argument" not in err and "not iterable" not in err
