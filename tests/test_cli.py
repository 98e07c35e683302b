import io
import json
import os
import re
import subprocess
import sys

import pytest

import regdist
from regdist import automaton, cli, metric
from regdist.check import MAX_SPOT_INDEX
from regdist.cli import main
from regdist.proof import diagnose_certificate, from_json
from regdist.derivatives import output
from regdist.syntax import One, Sum, parse, state_normal

from descent_reference import kleene_descent as reference_descent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=120):
    """Run the CLI as its own process, so a stray traceback reaches stderr."""
    src = os.path.dirname(os.path.dirname(regdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "regdist.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_dist_text_report(capsys):
    code, out, err = run(capsys, "dist", "a*", "a+1")
    assert code == 0
    *head, last = out.splitlines()
    assert head == ["distance: 1/4 (0.250000)", "witness: aa", "states: 4  pairs: 6"]
    assert re.fullmatch(r"time: \d+\.\d\d ms", last)
    code, out, err = run(capsys, "dist", "a*", "a+1", "--trace")
    assert out.splitlines()[2] == "states: 4  pairs: 6  iterations: 3"


def test_dist_json_report(capsys):
    code, out, _ = run(capsys, "dist", "a*", "a+1", "--json")
    assert code == 0
    assert re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', out) == "\n".join(
        [
            "{",
            '  "left": "a*",',
            '  "right": "a+1",',
            '  "lambda": "1/2",',
            '  "distance": {',
            '    "exact": "1/4",',
            '    "decimal": "0.250000"',
            "  },",
            '  "witness": "aa",',
            '  "states": 4,',
            '  "pairs": 6,',
            '  "elapsed_ms": X',
            "}\n",
        ]
    )
    code, out, _ = run(capsys, "dist", "a*", "a+1", "--json", "--trace")
    doc = json.loads(out)
    keys = ["left", "right", "lambda", "distance", "witness", "states", "pairs", "iterations", "elapsed_ms"]
    assert list(doc) == keys
    assert doc["distance"]["exact"] == "1/4" and doc["iterations"] == 3


def test_dist_reports_the_empty_witness_distinctly(capsys):
    code, out, _ = run(capsys, "dist", "a*", "0", "--json")
    assert json.loads(out)["witness"] == ""
    code, out, _ = run(capsys, "dist", "a*", "0")
    assert 'witness: ""' in out


def test_dist_reports_no_witness_as_null(capsys):
    code, out, _ = run(capsys, "dist", "a*", "a*;1", "--json")
    doc = json.loads(out)
    assert doc["witness"] is None and doc["distance"]["exact"] == "0"
    code, out, _ = run(capsys, "dist", "a*", "a*;1")
    assert "witness: -" in out


def test_dist_lambda_flag(capsys):
    code, out, _ = run(capsys, "dist", "a*", "a+1", "--lambda", "1/3")
    assert "distance: 1/9" in out
    code, out, _ = run(capsys, "dist", "a*", "a+1", "--lambda", "0.25")
    assert "distance: 1/16" in out


def test_dist_trace(capsys):
    code, out, _ = run(capsys, "dist", "a*", "a+1", "--trace")
    assert code == 0
    assert "step 0:" in out and "step 3:" in out
    assert "(0,1)=2" in out


def test_dist_verify(capsys):
    code, _, _ = run(capsys, "dist", "a*", "a+1", "--verify")
    assert code == 0


def test_dist_verify_bounds_the_enumeration_by_the_witness(capsys, monkeypatch):
    # 72 product pairs are reachable; the witness has 8 letters, and only the
    # pairs reached by shorter words are checked.
    left, right = "(" + "(a+b)" * 8 + ")*", "(" + "(a+b)" * 9 + ")*"
    code, out, _ = run(capsys, "dist", left, right, "--verify")
    assert code == 0
    assert "witness: aaaaaaaa" in out
    # a claimed witness that does not separate, or is not the shortest, mismatches
    for wrong in ("a" * 7, "a" * 9):
        monkeypatch.setattr(cli, "separating_word", lambda aut, s, t: wrong)
        code, _, err = run(capsys, "dist", left, right, "--verify")
        assert code == 3
        assert "the product walk gives" in err


def test_dist_verify_checks_a_long_witness_without_enumerating(capsys, monkeypatch):
    # Enumerating every word up to the witness's 20 letters over two letters
    # does not finish; stepping the pairs reached by shorter words does.
    left, right = "(" + "(a+b)" * 20 + ")*", "(" + "(a+b)" * 21 + ")*"
    code, out, _ = run(capsys, "dist", left, right, "--verify")
    assert code == 0
    assert "witness: " + "a" * 20 in out
    for wrong in ("a" * 19, "a" * 21):
        monkeypatch.setattr(cli, "separating_word", lambda aut, s, t: wrong)
        code, _, err = run(capsys, "dist", left, right, "--verify")
        assert code == 3
        assert "is not a shortest separating word" in err


@pytest.mark.parametrize(
    "left,right,head",
    [
        ("a*", "a+1", ["distance: 1/4 (0.250000)", "witness: aa"]),
        ("(a+b)*", "(a*;b*)*", ["distance: 0 (0.00000)", "witness: -"]),
        ("(aaaa)*", "(aaaa)*;(aaaa)*", ["distance: 0 (0.00000)", "witness: -"]),
    ],
)
def test_dist_trace_prints_the_reference_descent(capsys, left, right, head):
    aut = automaton.build([parse(left), parse(right)])
    ref = reference_descent(aut)
    res = metric.kleene_descent(aut)
    assert (res.table, tuple(res.tables()), res.iterations) == (ref.table, ref.trace, ref.iterations)
    n = aut.n_states
    want = head + [f"states: {n}  pairs: {n * (n - 1) // 2}  iterations: {ref.iterations}"]
    for i, table in enumerate(ref.trace):
        cells = ", ".join(
            f"({a},{b})={'inf' if ev.exponent is None else ev.exponent}" for (a, b), ev in sorted(table.items())
        )
        want.append(f"step {i}: {cells or '(no pairs)'}")
    code, out, _ = run(capsys, "dist", left, right, "--trace")
    assert code == 0
    assert [line for line in out.splitlines() if not line.startswith("time:")] == want


def _ab_star_pair(k):
    x = "(" + "(a+b)" * k + ")*"
    return x, x + ";" + x


def test_dist_verify_checks_a_bisimulation_when_equal(capsys):
    # Enumerating every word up to the count of reachable pairs (21) over
    # two letters does not finish; one literal walk over the pairs does.
    code, out, _ = run(capsys, "dist", *_ab_star_pair(20), "--verify")
    assert code == 0
    assert "witness: -" in out


def _drop_a_pair(derive, roots):
    # a step that would change a form's output keeps the form, so the pair
    # whose outputs differ is never formed
    def patched(state, letter):
        got = derive(state, letter)
        return state if output(got) != output(state) else got

    return patched


def _flip_an_output(derive, roots):
    # the right root's successors gain the empty word, so the first level
    # holds a pair whose outputs differ
    def patched(state, letter):
        got = derive(state, letter)
        return state_normal(Sum(got, One())) if state == roots[1] else got

    return patched


@pytest.mark.parametrize(
    "patch,argv,found",
    [
        pytest.param(_drop_a_pair, ("a*", "a+1"), "1/4, but aa is not a shortest separating word", id="_drop_a_pair"),
        pytest.param(
            _flip_an_output, _ab_star_pair(20), "0, but a literal walk separates them at length 1", id="_flip_an_output"
        ),
    ],
)
def test_dist_verify_mismatches_on_a_patched_relation(capsys, monkeypatch, patch, argv, found):
    # The literal walk's relation is the set of pairs it steps; patch the
    # derivative its closure steps forms with, so the walk steps a wrong
    # relation while the automaton does not.
    roots = [state_normal(parse(x)) for x in argv]
    monkeypatch.setattr(metric, "_literal_step", patch(metric._literal_step, roots))
    code, _, err = run(capsys, "dist", *argv, "--verify")
    assert code == 3
    assert err.strip() == "verification mismatch: the product walk gives " + found


def test_dist_dot_output(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "dist", "a*", "a+1", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph") and "doublecircle" in text


def test_dist_json_with_dot_to_stdout_is_refused():
    # both would go to stdout, and the Graphviz text would come first
    proc = run_process("dist", "a*", "a+1", "--json", "--dot", "-")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    proc = run_process("dist", "a*", "a+1", "--dot", "-")
    assert proc.returncode == 0 and proc.stdout.startswith("digraph")


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "a*", "a+("),
        ("dist", "a*", "a+1", "--lambda", "3/2"),
        ("dist", "a*", "a+1", "--lambda", "zebra"),
        ("dist", "a*", "b", "--alphabet", "a"),
        ("prove", "a*", "a+1", "not-a-number"),
        ("dist", "a", "b", "--cap", "0"),
        ("dist", "a", "b", "--cap", "-1"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_dist_on_a_very_long_word_exits_2_without_a_traceback():
    proc = run_process("dist", "a" * 500, "b")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["distance: 1/2 (0.500000)", "witness: b"]
    # step_nf is a work list, so a word of 1,200 letters answers too
    proc = run_process("dist", "a" * 1200, "b")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["distance: 1/2 (0.500000)", "witness: b"]
    # sorting the summands of a sum of long words still compares their keys
    # by recursion
    proc = run_process("dist", "a" * 1200 + "+" + "a" * 1199 + "b", "b")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_prove_of_a_long_word_writes_a_certificate_that_checks(tmp_path):
    # the Unfold node's right side opens a group per letter of the word
    target = tmp_path / "long.json"
    proc = run_process("prove", "--tight", "a" * 250, "b", "-o", str(target))
    assert proc.returncode == 0, proc.stderr
    assert "(" * 249 in target.read_text()
    proc = run_process("check", str(target))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid:") and proc.stdout.rstrip().endswith(" = b within 1/2")


def test_check_of_a_deep_descent_instance_is_valid(capsys, tmp_path):
    code, cert_text, _ = run(capsys, "prove", "a*", "a*;a*", "0")
    assert code == 0
    doc = json.loads(cert_text)
    doc["root"]["meta"]["spot_indices"] = [2000]
    target = tmp_path / "deep.json"
    target.write_text(json.dumps(doc))
    proc = run_process("check", str(target))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid:")


# What ``prove 'a + 0' a 0`` wrote before pairs with the same state normal
# form got a direct bound-0 chain: a descent template.
_A_PLUS_ZERO_DESCENT = {
    "version": 1,
    "lambda": "1/2",
    "hypotheses": [],
    "root": {
        "rule": "ContTemplate",
        "conclusion": {"left": "a + 0", "right": "a", "eps": "0"},
        "premises": [],
        "meta": {
            "schema": "descent",
            "params": {"left": "a + 0", "right": "a"},
            "spot_indices": [0, 1, 2, 3, 4, 5, 6, 7, 8],
        },
    },
}


def test_prove_of_a_unit_equal_pair_needs_no_template(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, _, _ = run(capsys, "prove", "a + 0", "a", "0", "-o", str(target))
    assert code == 0
    assert "ContTemplate" not in target.read_text()
    code, out, _ = run(capsys, "check", str(target))
    assert (code, out.strip()) == (0, "valid: a + 0 = a within 0")
    target.write_text(json.dumps(_A_PLUS_ZERO_DESCENT))
    code, out, _ = run(capsys, "check", str(target))
    assert (code, out.strip()) == (0, "valid: a + 0 = a within 0")


def _star_unroll_document(spot_indices):
    """A star_unroll template over the hypothesis ``a = a;a + 0``."""
    return {
        "version": 1,
        "lambda": "1/2",
        "hypotheses": [{"left": "a", "right": "a;a + 0", "eps": "0"}],
        "root": {
            "rule": "ContTemplate",
            "conclusion": {"left": "a", "right": "a*;0", "eps": "0"},
            "premises": [],
            "meta": {
                "schema": "star_unroll",
                "params": {"g": "a", "e": "a", "f": "0"},
                "spot_indices": spot_indices,
            },
        },
    }


def test_check_of_a_deep_star_unroll_instance_is_valid_up_to_the_budget(tmp_path):
    target = tmp_path / "unroll.json"
    for spot in (3, 2000):
        target.write_text(json.dumps(_star_unroll_document([spot])))
        proc = run_process("check", str(target))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("valid:")
    target.write_text(json.dumps(_star_unroll_document([MAX_SPOT_INDEX + 1])))
    proc = run_process("check", str(target))
    assert proc.returncode == 1
    assert f"over the budget of {MAX_SPOT_INDEX}" in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


# Run by a fresh interpreter: the command in argv through ``cli.main`` (none
# for a bare import), then its exit code and the loaded regdist modules.
_LOADED_MODULES = """
import sys
from regdist import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in sys.modules if m.startswith("regdist")), file=sys.stderr)
"""


def _modules_loaded(*argv, stdin=""):
    src = os.path.dirname(os.path.dirname(regdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(modules)


def test_each_command_loads_only_the_certificate_code_it_runs(capsys, tmp_path):
    certificate_code = {"regdist.check", "regdist.proof"}
    bare = _modules_loaded()
    assert "regdist.cli" in bare and not bare & certificate_code
    assert not _modules_loaded("dist", "a", "b") & certificate_code
    assert not _modules_loaded("batch", "-", stdin="a*\ta+1\n") & certificate_code
    target = tmp_path / "cert.json"
    assert run(capsys, "prove", "a*", "a+1", "--tight", "-o", str(target))[0] == 0
    assert _modules_loaded("check", str(target)) & certificate_code == {"regdist.check"}
    assert _modules_loaded("prove", "a*", "a+1", "--tight") >= certificate_code
    assert _modules_loaded("nf", "a*") >= certificate_code


def test_prove_writes_a_checkable_certificate(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "prove", "a*", "a+1", "1/4", "-o", str(target))
    assert code == 0
    assert "wrote certificate: a* = a + 1 within 1/4" in out
    cert = from_json(target.read_text())
    assert str(cert.root.eps) == "1/4"

    code, out, _ = run(capsys, "check", str(target))
    assert code == 0
    assert out.strip() == "valid: a* = a + 1 within 1/4"


def test_prove_to_stdout_is_pure_json(capsys):
    code, out, _ = run(capsys, "prove", "a*", "a+1", "1/4")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1


def test_prove_refusal_names_the_distance(capsys):
    code, _, err = run(capsys, "prove", "a*", "a+1", "1/8")
    assert code == 1
    assert "refused" in err
    assert "distance: 1/4" in err
    assert "witness: aa" in err


def test_prove_tight(capsys):
    code, out, _ = run(capsys, "prove", "a*", "a+1", "--tight")
    assert json.loads(out)["root"]["conclusion"]["eps"] == "1/4"
    code, _, err = run(capsys, "prove", "a*", "a+1", "1/4", "--tight")
    assert code == 2
    code, _, err = run(capsys, "prove", "a*", "a+1")
    assert code == 2


def test_prove_tight_builds_the_automaton_once(capsys, monkeypatch):
    closures = []

    class CountingClosure(automaton.Closure):
        def __init__(self, roots, alphabet, cap, derive=None):
            closures.append(derive)
            super().__init__(roots, alphabet, cap, derive)

    for module in (automaton, metric):
        monkeypatch.setattr(module, "Closure", CountingClosure)
    code, tight, _ = run(capsys, "prove", "(a+b)*;a;b", "(a+b)*;b;b", "--tight")
    assert code == 0
    assert closures == [None]
    closures.clear()
    code, _, _ = run(capsys, "prove", "(a+b)*;a;b", "(a+b)*;b;b", "--tight", "--verify")
    assert code == 0
    assert closures.count(None) == 1
    assert set(closures) <= {None, metric._literal_step}
    code, explicit, _ = run(capsys, "prove", "(a+b)*;a;b", "(a+b)*;b;b", "1/4")
    assert (code, explicit) == (0, tight)


def test_prove_verify(capsys):
    code, out, _ = run(capsys, "prove", "a*", "a+1", "1/2", "--verify")
    assert code == 0


def test_check_rejects_tampering(capsys, tmp_path):
    target = tmp_path / "cert.json"
    run(capsys, "prove", "a*", "a+1", "1/4", "-o", str(target))
    doc = json.loads(target.read_text())
    doc["root"]["conclusion"]["eps"] = "1/8"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(target))
    assert code == 1
    assert out.startswith("invalid:")


def test_check_json_result(capsys, tmp_path):
    target = tmp_path / "cert.json"
    run(capsys, "prove", "a", "b", "1/2", "-o", str(target))
    code, out, _ = run(capsys, "check", str(target), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "valid": True,
        "conclusion": {"left": "a", "right": "b", "eps": "1/2"},
        "error": None,
        "nodes": 12,
        "lemmas": 2,
    }


def test_check_reads_stdin(capsys, monkeypatch):
    code, cert_text, _ = run(capsys, "prove", "a", "b", "1/2")
    monkeypatch.setattr("sys.stdin", io.StringIO(cert_text))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and out.startswith("valid:")


def test_check_malformed_documents_exit_2(capsys, tmp_path, monkeypatch):
    target = tmp_path / "junk.json"
    target.write_text("{nope")
    code, _, err = run(capsys, "check", str(target))
    assert code == 2
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2
    # a JSON boolean is not a bound, although Python counts it as an int
    run(capsys, "prove", "a*", "a+1", "1", "-o", str(target))
    doc = json.loads(target.read_text())
    doc["root"]["conclusion"]["eps"] = True
    target.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(target))
    assert code == 2
    # nor a version, and neither is 1.0: the version is the integer 1
    doc["root"]["conclusion"]["eps"] = "1"
    for version in (True, 1.0):
        target.write_text(json.dumps({**doc, "version": version}))
        code, out, err = run(capsys, "check", str(target))
        assert (code, out, err) == (2, "", f"error: unsupported certificate version {version!r}\n")


TOP_DOCUMENT = {
    "version": 1,
    "lambda": "1/2",
    "hypotheses": [],
    "root": {"rule": "Top", "conclusion": {"left": "1", "right": "0", "eps": "1"}, "premises": [], "meta": {}},
}


@pytest.mark.parametrize(
    "field, value",
    [("eps", "1e10000000"), ("lambda", "1e-10000000"), ("eps", "1e5000"), ("eps", "1E3")],
)
def test_check_refuses_exponent_notation_at_once(tmp_path, field, value):
    # Fraction would expand 1e10000000 for seconds, and 1e5000 has too many digits to print
    doc = json.loads(json.dumps(TOP_DOCUMENT))
    if field == "lambda":
        doc["lambda"] = value
    else:
        doc["root"]["conclusion"]["eps"] = value
    target = tmp_path / "exp.json"
    target.write_text(json.dumps(doc))
    proc = run_process("check", str(target), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: bad {'lambda' if field == 'lambda' else 'node root conclusion bound'}: {value!r}"]


def test_check_refuses_a_json_integer_past_the_digit_limit(tmp_path):
    # json.loads raises a plain ValueError, not JSONDecodeError, on such a number
    text = json.dumps(TOP_DOCUMENT).replace('"eps": "1"', '"eps": 1' + "0" * 5000)
    target = tmp_path / "big.json"
    target.write_text(text)
    proc = run_process("check", str(target), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: not valid JSON: a number of more than {sys.get_int_max_str_digits()} digits"]


def test_prove_and_lambda_refuse_exponent_notation():
    proc = run_process("prove", "a", "b", "1e5000", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot read '1e5000' as a rational"]
    proc = run_process("dist", "a", "b", "--lambda", "1e-1", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot read '1e-1' as a rational"]


def test_unreadable_and_negative_bounds_are_malformed_input(capsys):
    for argv, message in [
        (("prove", "a", "b", "1/0"), "cannot read '1/0' as a rational"),
        (("dist", "a", "b", "--lambda", "1/0"), "cannot read '1/0' as a rational"),
        (("prove", "a", "b", "-0.5"), "bound must be nonnegative, got -1/2"),
    ]:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, value", [("1/4", "1/4"), ("0.25", "1/4"), ("3", "3")])
def test_rationals_are_read_as_fractions_and_decimals(capsys, tmp_path, text, value):
    doc = json.loads(json.dumps(TOP_DOCUMENT))
    doc["root"]["conclusion"]["eps"] = text
    target = tmp_path / "top.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(target))
    assert code == 1 and f"bound {value} is not 1" in out
    doc["root"]["conclusion"]["eps"], doc["lambda"] = "1", text
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(target))
    assert (code, err) == ((0, "") if text != "3" else (2, "error: discount must lie strictly between 0 and 1, got 3\n"))
    code, out, _ = run(capsys, "prove", "a*", "a+1", text)
    assert code == 0 and json.loads(out)["root"]["conclusion"]["eps"] == value
    code, out, _ = run(capsys, "dist", "a", "b", "--lambda", text)
    assert code == (0 if text != "3" else 2)


def test_spot_checks_below_one_are_refused(capsys, tmp_path):
    # a = a*;0 does not hold (distance 1/2), and the document lacks the loop
    # hypothesis a = a;a + 0 that Salomaa's rule needs; no flag sets a count
    # of unrollings to check
    doc = {
        "version": 1,
        "lambda": "1/2",
        "hypotheses": [],
        "root": {
            "rule": "ContTemplate",
            "conclusion": {"left": "a", "right": "a*;0", "eps": "0"},
            "premises": [],
            "meta": {
                "schema": "star_unroll",
                "params": {"g": "a", "e": "a", "f": "0"},
                "spot_indices": [],
            },
        },
    }
    target = tmp_path / "unroll.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(target))
    assert code == 1 and out.startswith("invalid:")
    assert "the loop hypothesis a = a;a + 0 is not among the hypotheses" in out
    assert diagnose_certificate(from_json(json.dumps(doc))) is not None
    for k in ("0", "-1", "1"):
        for argv in (("check", str(target)), ("prove", "a*", "a*;a*", "0")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *argv, "--spot-checks", k)
            assert exc.value.code == 2
            assert "unrecognized arguments: --spot-checks" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "batch"])
def test_an_unreadable_input_file_is_malformed_input(tmp_path, command):
    for path in (tmp_path / "missing.txt", tmp_path):  # no such file; a directory
        proc = run_process(command, str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {path}: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "a*", "a+1", "--tight", "-o"),
        ("batch", "ROWS", "-o"),
        ("nf", "a*", "-o"),
        ("dist", "a*", "a+1", "--dot"),
    ],
)
def test_an_unwritable_output_path_is_malformed_input(tmp_path, argv):
    rows = tmp_path / "rows.tsv"
    rows.write_text("a*\ta+1\n")
    argv = [str(rows) if arg == "ROWS" else arg for arg in argv]
    for path in (tmp_path / "missing" / "out.txt", tmp_path):  # no such directory; a directory
        proc = run_process(*argv, str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {path}: ") and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


def test_prove_to_stdout_pipes_into_check():
    """``prove -o -`` writes the document alone, so ``check -`` reads it from a pipe."""
    src = os.path.dirname(os.path.dirname(regdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cli = [sys.executable, "-m", "regdist.cli"]
    prove = subprocess.Popen([*cli, "prove", "a*", "a+1", "--tight", "-o", "-"], stdout=subprocess.PIPE, env=env)
    check = subprocess.run([*cli, "check", "-"], stdin=prove.stdout, capture_output=True, text=True, env=env, timeout=120)
    prove.stdout.close()
    assert prove.wait(timeout=120) == 0
    assert check.returncode == 0, check.stderr
    assert check.stdout == "valid: a* = a + 1 within 1/4\n"


def test_batch_table(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a*\ta+1\na*\t0\na\ta\n\na*\ta*;1\n"))
    code, out, _ = run(capsys, "batch", "-")
    assert code == 0
    assert out.splitlines() == [
        "a*\ta+1\t1/4\taa\t",
        'a*\t0\t1\t""\t',
        "a\ta\t0\t-\t",
        "a*\ta*;1\t0\t-\t",
    ]


def test_batch_keeps_going_past_bad_rows(capsys, monkeypatch):
    deep = "a" * 1200 + "+" + "a" * 1199 + "b"
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(f"a*\ta+1\na(\tb\nno tabs here\n{deep}\tb\na\tb\n")
    )
    code, out, _ = run(capsys, "batch", "-")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "a*\ta+1\t1/4\taa\t"
    assert lines[1].split("\t")[2] == "-" and lines[1].split("\t")[4]
    assert "two tab-separated expressions" in lines[2]
    assert lines[3].split("\t")[2:4] == ["-", "-"] and "too deep" in lines[3]
    assert lines[4] == "a\tb\t1/2\ta\t"


def test_batch_empty_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, _ = run(capsys, "batch", "-")
    assert code == 0 and out == ""


def test_batch_file_io(capsys, tmp_path):
    src = tmp_path / "pairs.tsv"
    dst = tmp_path / "result.tsv"
    src.write_text("a*\ta+1\n")
    code, _, _ = run(capsys, "batch", str(src), "--lambda", "1/3", "-o", str(dst))
    assert code == 0
    assert dst.read_text() == "a*\ta+1\t1/9\taa\t\n"


def test_nf_prints_decomposition_then_certificate(capsys):
    code, out, _ = run(capsys, "nf", "a*", "--alphabet", "ab")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "a;(1;a*) + b;(0;a*) + 1"
    cert = from_json(rest)
    assert cert.root.left == from_json(rest).root.left


def test_nf_certificate_checks(capsys, tmp_path, monkeypatch):
    target = tmp_path / "nf.json"
    code, out, _ = run(capsys, "nf", "(a+1);b", "-o", str(target))
    assert code == 0
    assert out.strip() == "a;((1 + 0);b + 1;0) + b;((0 + 0);b + 1;1) + 0"
    monkeypatch.setattr("sys.stdin", io.StringIO(target.read_text()))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0


#: What ``tests/compat/hash_outputs.py`` prints for the output of every
#: command over the bench pairs; a change to it is named in CHANGES.md.
OUTPUT_DIGEST = "71cf152a1564108fe6ebfe9b078f5403a264ca5fa65d5ebe0cf146e00318e210"


def test_command_output_over_the_bench_pairs_is_pinned():
    script = os.path.join(os.path.dirname(__file__), "compat", "hash_outputs.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == OUTPUT_DIGEST
