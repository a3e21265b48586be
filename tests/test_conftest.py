"""The test session's own report: the numeric environment it names."""

import os
import pathlib

import conftest

FAILING = "def test_fails():\n    assert False\n"
PASSING = "def test_passes():\n    pass\n"
FAILING_GIVEN = ("from hypothesis import given, strategies as st\n\n\n"
                 "@given(st.integers())\ndef test_fails(x):\n    assert False\n\n\n"
                 + PASSING)
PYPROJECT = pathlib.Path(conftest.__file__).parent.parent / "pyproject.toml"


def _run_quietly(pytester, test_source, numeric_env=True, subprocess=False):
    pytester.makeconftest(pathlib.Path(conftest.__file__).read_text(encoding="utf-8"))
    if numeric_env:
        pytester.mkdir("data")
        pytester.path.joinpath("data", "NUMERIC_ENV").write_text(
            "".join(line + "\n" for line in conftest._numeric_env()))
    path = pytester.makepyfile(test_source)
    run = pytester.runpytest_subprocess if subprocess else pytester.runpytest
    return run("-q", "-p", "no:cacheprovider", path)


def test_failing_quiet_run_names_the_numeric_environment(pytester):
    result = _run_quietly(pytester, FAILING)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*numeric environment*", "numpy *: SIMD baseline *",
                                 "BLAS *, OpenBLAS core *", *conftest._numeric_env()])


def test_passing_quiet_run_prints_no_environment(pytester):
    result = _run_quietly(pytester, PASSING)
    result.assert_outcomes(passed=1)
    result.stdout.no_fnmatch_line("*numeric environment*")


def test_missing_numeric_env_file_reads_unknown(pytester):
    result = _run_quietly(pytester, FAILING, numeric_env=False)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*numeric environment*",
                                 f"*{os.path.join('data', 'NUMERIC_ENV')}: unknown"])


def test_failing_hypothesis_test_lets_the_session_finish(pytester, monkeypatch):
    """hypothesis's failure report imports libcst, which warns; under this
    project's warning filters the session still runs the next test and
    ends with its report.  A fresh process, so that libcst is imported
    anew."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(PYPROJECT.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    result = _run_quietly(pytester, FAILING_GIVEN, subprocess=True)
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*numeric environment*", "numpy *: SIMD baseline *"])
