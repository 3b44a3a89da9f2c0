import json
import os
from fractions import Fraction

import pytest

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
