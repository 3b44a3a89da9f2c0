import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from mixhom import cli
from mixhom import poisson as po
from mixhom.cli import ParseError, main, parse_job, run_job

Q = Fraction

EXT_JOB = """
[algebra]
kind exterior
n 2

[window]
p_max 3
w_max 3

[tasks]
hh
check
"""

POLY_POISSON_JOB = """
[algebra]
kind polynomial
n 2
cutoff 4

[poisson]
c 1 2 1 2 1

[window]
p_max 2
w_max 3

[tasks]
poisson
"""


class TestParse:
    def test_minimal_exterior_job(self):
        spec = parse_job(EXT_JOB)
        assert spec.kind == "exterior" and spec.n == 2
        assert spec.tasks == ["hh", "check"]

    def test_rational_coefficient(self):
        spec = parse_job(
            "[algebra]\nkind polynomial\nn 2\n[poisson]\nc 1 2 1 2 1/3\n"
        )
        assert spec.poisson_coeffs == {(1, 2, 1, 2): Q(1, 3)}

    def test_index_out_of_range_reports(self):
        with pytest.raises(ParseError) as exc:
            parse_job("[algebra]\nkind polynomial\nn 2\n[poisson]\nc 1 5 1 2 1\n")
        assert "5" in str(exc.value)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_job("[algebra]\nkind exterior\nn 2\n[window]\np_max zero\n")
        assert exc.value.line_no == 5

    def test_unknown_task_rejected(self):
        with pytest.raises(ParseError):
            parse_job("[algebra]\nkind exterior\nn 1\n[tasks]\nfly\n")


class TestRun:
    def test_exterior_check_passes(self, tmp_path):
        spec = parse_job(EXT_JOB)
        code = run_job(spec, str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "check.json").read_text())
        assert data["schema"].startswith("mixhom-result@")
        assert data["result"]["passed"] is True

    def test_poisson_task_reports_verdicts(self, tmp_path):
        spec = parse_job(POLY_POISSON_JOB)
        code = run_job(spec, str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "poisson.json").read_text())
        res = data["result"]
        assert res["unimodular"] is False
        assert res["equivalence_holds"] is True

    def test_outputs_have_no_floats(self, tmp_path):
        spec = parse_job(POLY_POISSON_JOB)
        run_job(spec, str(tmp_path))
        blob = (tmp_path / "poisson.json").read_text()
        decoded = json.loads(blob)

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(decoded)

    def test_byte_determinism(self, tmp_path):
        spec = parse_job(EXT_JOB)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_job(spec, str(out1))
        run_job(spec, str(out2))
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_main_exit_codes(self, tmp_path):
        job = tmp_path / "job.txt"
        job.write_text(EXT_JOB)
        assert main(["hh", "--input", str(job), "--out", str(tmp_path / "o")]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("[algebra]\nkind exterior\n")
        assert main(["hh", "--input", str(bad), "--out", str(tmp_path / "o2")]) == 4
        assert main(["hh", "--input", str(tmp_path / "missing"), "--out", str(tmp_path / "o3")]) == 4

    def test_gravity_on_non_unimodular_pi_reports_and_continues(self, tmp_path):
        # POLY_POISSON_JOB's π is not unimodular: the volume form is no
        # cycle, so the gravity task has no duality to work with
        job = tmp_path / "job.txt"
        job.write_text(POLY_POISSON_JOB.replace("[tasks]\npoisson\n", "[tasks]\ngravity\nhh\n"))
        assert main(["run", "--input", str(job), "--out", str(tmp_path / "o")]) == 2
        result = json.loads((tmp_path / "o" / "gravity.json").read_text())["result"]
        assert result["error"] == "verification failure"
        assert "not unimodular" in result["detail"]
        assert (tmp_path / "o" / "hh.json").exists()


@pytest.mark.parametrize(
    "command, job",
    [
        ("run", "[algebra]\nkind quadratic\nn 2\nrelation 1 x 1\n[tasks]\nkoszul\n"),
        ("run", "[algebra]\nkind exterior\nn 2\n[tasks]\npoisson\nhh\n"),
        ("poisson", "[algebra]\nkind exterior\nn 2\n"),
        ("run", "[algebra]\nkind quadratic\nn 2\nrelation 1 2 1\n[tasks]\nhh\n"),
        ("hh", "[algebra]\nkind quadratic\nn 2\nrelation 1 2 1\n"),
        ("run", "[algebra]\nkind quadratic\nn 2\nrelation 1 2 1\nrelation 1 2 -2\n[tasks]\nkoszul\n"),
        ("hh", "[algebra]\nkind polynomial\nn 1\ncutoff -2\n"),
        ("hh", "[algebra]\nkind polynomial\nn 1\ncutoff 0\n"),
    ],
    ids=["relation-index", "poisson-on-exterior", "poisson-subcommand", "hh-on-quadratic",
         "hh-subcommand", "dependent-relations", "negative-cutoff", "zero-cutoff"],
)
def test_bad_jobs_are_parse_errors(tmp_path, command, job):
    import subprocess
    import sys

    path = tmp_path / "job.txt"
    path.write_text(job)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mixhom.cli", command, "--input", str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line ")
    assert not (tmp_path / "o").exists()


def test_relation_index_out_of_range_names_its_line(tmp_path):
    path = tmp_path / "job.txt"
    path.write_text("[algebra]\nkind quadratic\nn 2\nrelation 1 2 1\nrelation 1 3 1\n[tasks]\nkoszul\n")
    proc = _run_cli("run", path, tmp_path / "o")
    assert proc.returncode == 4
    assert proc.stderr == "parse error: line 5: relation index (1,3) out of range 1..2\n"
    assert not (tmp_path / "o").exists()


def test_poisson_index_out_of_range_names_its_line(tmp_path):
    path = tmp_path / "job.txt"
    path.write_text("[algebra]\nkind polynomial\nn 2\ncutoff 4\n[poisson]\nc 1 2 1 2 1\nc 1 3 1 3 1\n"
                    "c 4 1 1 1 1\n[tasks]\npoisson\n")
    proc = _run_cli("run", path, tmp_path / "o")
    assert proc.returncode == 4
    assert proc.stderr == "parse error: line 7: poisson coefficient index 3 out of range 1..2\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "job, line_no",
    [
        ("[algebra]\nkind exterior\nn 2 7\n[tasks]\nhh\n", 3),
        ("[algebra]\nkind polynomial\nn 1\ncutoff 4 5\n[tasks]\nhh\n", 4),
        ("[algebra]\nkind exterior\nn 2\n[window]\nw_max 3 9\n[tasks]\nhh\n", 5),
        ("[algebra]\nkind exterior\nn 2\n[tasks]\nhh extra\n", 5),
        ("[algebra]\nkind exterior\nn 2 7\n[window]\nw_max 3 9\n[tasks]\nhh extra\n", 3),
    ],
    ids=["n", "cutoff", "window", "task", "all-three"],
)
def test_trailing_tokens_are_parse_errors(tmp_path, capsys, job, line_no):
    # a token after the value is an error on its line, not silently dropped
    with pytest.raises(ParseError) as exc:
        parse_job(job)
    assert exc.value.line_no == line_no
    path = tmp_path / "job.txt"
    path.write_text(job)
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith(f"parse error: line {line_no}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("flag", ["--pmax", "--wmax", "--utrunc", "--nmax"])
def test_window_flags_must_be_positive(tmp_path, capsys, flag, value):
    path = tmp_path / "job.txt"
    path.write_text(EXT_JOB)
    assert main(["hh", "--input", str(path), "--out", str(tmp_path / "o"), flag, str(value)]) == 4
    assert capsys.readouterr().err == f"parse error: line 0: {flag} must be positive\n"
    assert not (tmp_path / "o").exists()


def _run_cli(command, path, out):
    """The CLI in a fresh interpreter, so a crash shows as a traceback on stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-m", "mixhom.cli", command, "--input", str(path), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.mark.parametrize("under", ["", "x"], ids=["out-is-a-file", "out-under-a-file"])
def test_unwritable_out_is_exit_4_without_a_traceback(tmp_path, under):
    path = tmp_path / "job.txt"
    path.write_text(EXT_JOB)
    blocker = tmp_path / "F"
    blocker.write_text("")
    proc = _run_cli("run", path, blocker / under if under else blocker)
    assert proc.returncode == 4
    assert proc.stderr.startswith("cannot write output: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert blocker.read_text() == ""


def test_exterior_check_below_the_volume_weight_is_a_window_error(tmp_path):
    # the volume element of Λ(ξ1, ξ2) has weight 2, outside a w_max 1 slice
    path = tmp_path / "job.txt"
    path.write_text("[algebra]\nkind exterior\nn 2\n[window]\nw_max 1\n"
                    "[tasks]\nhh\nhc-minus\ncheck\nkoszul\n")
    proc = _run_cli("run", path, tmp_path / "o")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    result = json.loads((tmp_path / "o" / "check.json").read_text())["result"]
    assert result["error"] == "window too small"
    assert (tmp_path / "o" / "koszul.json").exists()


# -- one build per job ------------------------------------------------------------


def _spy_on_job_reads(monkeypatch) -> dict[str, set]:
    """Record which shared structures each task, and each structure's builder, reads."""
    structures = {name for name, v in vars(cli.JobContext).items() if isinstance(v, cached_property)}
    reads: dict[str, set] = {}
    readers: list[str] = []

    def read(reader, fn, *args):
        readers.append(reader)
        try:
            return fn(*args)
        finally:
            readers.pop()

    def spy(self, name):
        if name not in structures:
            return object.__getattribute__(self, name)
        reads.setdefault(readers[-1], set()).add(name)
        if name in object.__getattribute__(self, "__dict__"):
            return object.__getattribute__(self, name)
        return read(name, object.__getattribute__, self, name)

    monkeypatch.setattr(cli.JobContext, "__getattribute__", spy)
    for task, fn in cli.TASK_RUNNERS.items():
        monkeypatch.setitem(cli.TASK_RUNNERS, task, lambda job, task=task, fn=fn: read(task, fn, job))
    return reads


@pytest.mark.parametrize(
    "tasks",
    ["hh hc-minus poisson gravity koszul check", "check koszul gravity poisson hc-minus hh",
     "hh check poisson koszul hc-minus gravity"],
    ids=["listed", "reversed", "interleaved"],
)
def test_a_job_builds_each_shared_structure_once(tmp_path, monkeypatch, tasks):
    built: dict[str, list] = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            built.setdefault(name, []).append(args[0])
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [(cli, "NegativeCyclic"), (cli, "les_check"), (po, "unimodularity_check"),
                         (po, "frobenius_poisson_check")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    structures = []
    build = cli.koszul_dual_algebra
    monkeypatch.setattr(cli, "koszul_dual_algebra", lambda *args: structures.append(build(*args)) or structures[-1])
    reads = _spy_on_job_reads(monkeypatch)
    spec = parse_job(POLY_POISSON_JOB)
    spec.tasks = tasks.split()
    # π is not unimodular, so gravity stops with a verification failure
    assert run_job(spec, str(tmp_path)) == 2
    # release keeps what TASK_READS and BUILT_FROM name, so they must list
    # every structure a task or a builder really reads
    for reader, names in reads.items():
        listed = cli.TASK_READS[reader] if reader in cli.TASK_RUNNERS else cli.BUILT_FROM.get(reader, ())
        if reader == "koszul" and cli._bar_reads_the_slice(spec):
            listed += ("hh_dims",)  # the one conditional read, which release adds the same way
        assert names <= set(listed), reader
    assert set(spec.tasks) <= set(reads)
    # gravity builds HC⁻ of its own, wider Poisson slice; the Hochschild
    # slice's HC⁻ is shared by hc-minus and check
    slices = built.pop("NegativeCyclic")
    assert len(slices) == 2 and slices[0] is not slices[1]
    assert {name: len(args) for name, args in built.items()} == {
        "les_check": 1,
        "unimodularity_check": 1,
        "frobenius_poisson_check": 1,
    }
    # one Koszul structure, which built TV/(R) and the verdict on itself:
    # the Koszul functions take no structure that they could rebuild
    (data,) = structures
    assert {"quotient", "verdict"} <= set(vars(data))


def test_check_pairs_the_jobs_exterior_algebra(tmp_path, monkeypatch):
    # task_check takes the job's exterior(n) for the Frobenius pairing: the
    # algebra is built and validated once, wherever it is built from
    from mixhom import algebra

    built = []
    build = algebra.make_exterior_algebra
    for module in (algebra, cli):
        monkeypatch.setattr(module, "make_exterior_algebra", lambda n: built.append(n) or build(n))
    spec = parse_job("[algebra]\nkind exterior\nn 3\n[window]\np_max 3\nw_max 4\n[tasks]\ncheck\n")
    assert run_job(spec, str(tmp_path)) == 0
    checks = json.loads((tmp_path / "check.json").read_text())["result"]["checks"]
    assert checks["frobenius_pairing"] == {"passed": True}
    assert built == [3]


def test_gravity_runs_to_arity_max(tmp_path):
    # the circulant π on k[x1, x2, x3] is unimodular, and at w_max 4 its
    # brackets are nonzero up to arity 4; arity_max is not clamped at 3
    job = ("[algebra]\nkind polynomial\nn 3\n[poisson]\nc 1 2 1 2 1\nc 2 3 2 3 1\nc 3 1 3 1 1\n"
           "[window]\np_max 3\nw_max 4\narity_max {}\n[tasks]\ngravity\n")
    results = {}
    for arity in (3, 4):
        path = tmp_path / f"job{arity}.txt"
        path.write_text(job.format(arity))
        assert main(["run", "--input", str(path), "--out", str(tmp_path / str(arity))]) == 0
        results[arity] = json.loads((tmp_path / str(arity) / "gravity.json").read_text())["result"]
    assert sorted(results[3]["tables"]) == ["2", "3"]
    assert sorted(results[4]["tables"]) == ["2", "3", "4"] and results[4]["tables"]["4"]
    for arity in ("2", "3"):
        assert results[4]["tables"][arity] == results[3]["tables"][arity]
    assert results[4]["skew_checked"] > results[3]["skew_checked"]
    assert results[4]["violations"] == [] and results[4]["window_skips"] == 0


def test_koszul_chain_map_holds_for_a_pi_that_is_not_poisson(tmp_path):
    # [π, π] ≠ 0 here, so no validated or Jacobi-checked dual slice may stand
    # between the identification and its check
    path = tmp_path / "job.txt"
    path.write_text("[algebra]\nkind polynomial\nn 3\n[poisson]\nc 1 1 1 2 1\nc 2 2 2 3 1\n"
                    "[window]\nw_max 3\n[tasks]\nkoszul\n")
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
    result = json.loads((tmp_path / "o" / "koszul.json").read_text())["result"]
    assert "error" not in result
    assert result["poisson_identification_chain_map"] is True


def test_koszul_bar_dims_reuse_the_jobs_slice_when_the_algebra_is_the_same(tmp_path, monkeypatch):
    built = []
    build = cli.slice_from_hochschild
    monkeypatch.setattr(cli, "slice_from_hochschild", lambda *args: built.append(args) or build(*args))
    job = "[algebra]\nkind polynomial\nn 2\n{}\n[window]\np_max 2\nw_max 3\n[tasks]\nhh\nhc-minus\nkoszul\n"
    results = {}
    for name, cutoff, code, builds in (("own", "", 0, 1), ("cutoff", "cutoff 4", 0, 1), ("below", "cutoff 2", 3, 3)):
        built.clear()
        assert run_job(parse_job(job.format(cutoff)), str(tmp_path / name)) == code
        results[name] = json.loads((tmp_path / name / "koszul.json").read_text())["result"]
        # at any cutoff >= w_max the job's slice is the complex of k[x1, x2]
        # truncated at w_max, and koszul reads the HH dims the hh task kept;
        # at cutoff 2 hh and hc-minus cannot build the job's slice (exit 3)
        # and koszul builds its own, at w_max
        assert len(built) == builds, name
    assert built[-1][0].weight_cutoff == 3
    assert results["own"]["cross_model_dims_match"] is True
    for key in ("bar_dims", "cross_model_dims_match"):
        assert results["own"][key] == results["cutoff"][key] == results["below"][key]


def test_release_keeps_only_what_later_tasks_read():
    job = cli.JobContext(parse_job(EXT_JOB))
    job.les
    job.koszul
    job.release(["check"])
    # check reads the LES report and the algebra, which its Frobenius
    # pairing takes; the slice and HC⁻ the report came from go
    assert set(vars(job)) == {"spec", "algebra", "les"}
    job = cli.JobContext(parse_job(EXT_JOB))
    job.slice
    job.release(["check"])
    # the LES report is still to be built, so the slice it needs stays
    assert set(vars(job)) == {"spec", "algebra", "slice"}
    job = cli.JobContext(parse_job(POLY_POISSON_JOB))
    job.hh_dims
    job.release(["koszul"])
    # at cutoff 4 >= w_max 3 the bar dims are the job's HH dims: those stay, not the slice
    assert set(vars(job)) == {"spec", "hh_dims"}
    job = cli.JobContext(parse_job(POLY_POISSON_JOB))
    job.les
    job.release(["check"])
    # check reads a polynomial job's algebra through nothing but the LES report, which is built
    assert set(vars(job)) == {"spec", "les"}


POLY3_WINDOW = "[window]\np_max 2\nw_max 3\narity_max 2\n"


@pytest.mark.parametrize(
    "job",
    [
        # acceptance criterion 10
        POLY_POISSON_JOB.replace("p_max 2\n", "p_max 2\narity_max 2\n").replace(
            "[tasks]\npoisson\n", "[tasks]\nhh\nhc-minus\npoisson\nkoszul\ncheck\n"
        ),
        "[algebra]\nkind exterior\nn 3\n[window]\np_max 3\nw_max 4\n"
        "[tasks]\nhh\nhc-minus\nkoszul\ncheck\n",
        "[algebra]\nkind polynomial\nn 3\n[poisson]\nc 1 2 1 3 1\n" + POLY3_WINDOW
        + "[tasks]\npoisson\ngravity\ncheck\n",
        "[algebra]\nkind polynomial\nn 3\n[poisson]\nc 1 2 1 2 1\nc 1 3 2 3 1\n" + POLY3_WINDOW
        + "[tasks]\npoisson\ngravity\ncheck\n",
        "[algebra]\nkind quadratic\nn 2\nrelation 1 1 1\n[window]\nw_max 4\n[tasks]\nkoszul\ncheck\n",
        "[algebra]\nkind quadratic\nn 3\nrelation 1 1 1\nrelation 1 2 1\nrelation 1 3 1 3 3 1\n"
        "[window]\nw_max 4\n[tasks]\nkoszul\ncheck\n",
    ],
    ids=["criterion-10", "exterior-3", "non-unimodular-pi", "non-jacobi-pi", "monomial-quadratic",
         "non-koszul"],
)
def test_shared_job_writes_what_separate_tasks_write(tmp_path, job):
    path = tmp_path / "job.txt"
    path.write_text(job)
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    code = main(["run", "--input", str(path), "--out", str(shared)])
    # one fresh job per task, so nothing is shared between them
    codes = [main([task, "--input", str(path), "--out", str(alone)]) for task in parse_job(job).tasks]
    assert code == max(codes)
    names = sorted(os.listdir(shared))
    assert names == sorted(os.listdir(alone))
    for name in names:
        assert (shared / name).read_bytes() == (alone / name).read_bytes(), name


# -- the CLI contract under fuzzing --------------------------------------------------


@st.composite
def _small_jobs(draw):
    """A job text and window flags: exterior or polynomial n <= 2, quadratic n = 1, windows <= 3."""
    kind = draw(st.sampled_from(cli.KINDS))
    n = 1 if kind == "quadratic" else draw(st.integers(1, 2))
    lines = ["[algebra]", f"kind {kind}", f"n {n}"]
    if kind == "polynomial" and draw(st.booleans()):
        lines.append(f"cutoff {draw(st.integers(1, 3))}")
    if kind == "quadratic":
        lines.append(f"relation 1 1 {draw(st.sampled_from(['1', '-2/3']))}")
    if kind == "polynomial" and draw(st.booleans()):
        lines.append("[poisson]")
        for _ in range(draw(st.integers(1, 2))):
            idx = " ".join(str(draw(st.integers(1, n))) for _ in range(4))
            lines.append(f"c {idx} {draw(st.sampled_from(['1', '-1', '1/2']))}")
    lines += ["[window]", f"p_max {draw(st.integers(1, 3))}", f"w_max {draw(st.integers(1, 3))}"]
    for key in ("u_trunc", "arity_max"):
        if draw(st.booleans()):
            lines.append(f"{key} {draw(st.integers(1, 3))}")
    # tasks that do not fit the kind are parse errors, which test_bad_jobs_are_parse_errors covers
    tasks = [task for task in cli.TASKS if kind in cli.TASK_KINDS[task]]
    lines += ["[tasks]", *draw(st.lists(st.sampled_from(tasks), min_size=1, max_size=3, unique=True))]
    flags = []
    for flag in ("--pmax", "--wmax", "--utrunc", "--nmax"):
        if draw(st.integers(0, 3)) == 0:
            flags += [flag, str(draw(st.sampled_from([1, 2, 3, 0, -1])))]
    return "\n".join(lines) + "\n", flags


@settings(max_examples=25, deadline=None)
@given(_small_jobs())
def test_fuzzed_small_jobs_keep_the_exit_code_contract(job):
    text, flags = job
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.txt")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--input", path, "--out", os.path.join(tmp, "o"), *flags])
    assert code in (0, 2, 3, 4), (code, text, flags)
    assert "Traceback" not in err.getvalue()


NESTED_RESULT = {"b": {"y": [2, 1], "x": Fraction(1, 2), "z": {"deep": {"er": 1}}}, "a": 3, "passed": True}


def test_summary_flattens_sorted_key_paths():
    assert cli._summarize("t", NESTED_RESULT) == (
        "task: t\na: 3\nb.x: 1/2\nb.y: [2, 1]\nb.z.deep.er: 1\npassed: True\n"
    )


def test_summary_leaves_no_reference_cycles():
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        cli._summarize("t", NESTED_RESULT)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_main_leaves_no_cyclic_garbage(tmp_path):
    # many in-process jobs must not pile up garbage between full collections
    job = tmp_path / "job.txt"
    job.write_text(EXT_JOB)
    gc.collect()
    assert main(["run", "--input", str(job), "--out", str(tmp_path / "o")]) == 0
    assert gc.collect() == 0


def test_no_module_catches_every_exception():
    # no error may be hidden: no handler in the package is a bare ``except:``
    # or names ``Exception``, alone or in a tuple
    import ast
    import mixhom

    root = os.path.dirname(mixhom.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or isinstance(t, ast.Name) and t.id == "Exception" for t in types):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_the_readme_job_example_runs(tmp_path):
    # the fenced block under "### Job files" in README.md, run as written
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Job files", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "[tasks]" in block
    job = tmp_path / "job.txt"
    job.write_text(block)
    out = tmp_path / "o"
    assert main(["run", "--input", str(job), "--out", str(out)]) == 0
    tasks = ["check", "gravity", "koszul", "poisson"]
    assert sorted(os.listdir(out)) == [f"{t}.{ext}" for t in tasks for ext in ("json", "txt")]
    results = {t: json.loads((out / f"{t}.json").read_text())["result"] for t in tasks}
    assert results["check"]["passed"] is True
    assert results["gravity"]["violations"] == [] and results["gravity"]["window_skips"] == 0
    assert results["koszul"]["poisson_identification_chain_map"] is True
    assert results["poisson"]["equivalence_holds"] is True
