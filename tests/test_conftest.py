"""The test session's own report: the numeric environment it names."""

import os
import pathlib

import conftest

FAILING = "def test_fails():\n    assert False\n"
PASSING = "def test_passes():\n    pass\n"


def _run_quietly(pytester, test_source, numeric_env=True):
    pytester.makeconftest(pathlib.Path(conftest.__file__).read_text(encoding="utf-8"))
    if numeric_env:
        pytester.mkdir("data")
        pytester.path.joinpath("data", "NUMERIC_ENV").write_text(
            "".join(line + "\n" for line in conftest._numeric_env()))
    pytester.makepyfile(test_source)
    return pytester.runpytest("-q", "-p", "no:cacheprovider")


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
