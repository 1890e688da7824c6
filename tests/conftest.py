"""Set-up shared by every test module."""

import warnings


def pytest_runtest_makereport(item, call):
    """Import Hypothesis's patching module once a test fails, with
    DeprecationWarning ignored for this import alone.

    Hypothesis imports that module, and with it libcst, to report a failing
    example, and libcst's mypy_extensions.TypedDict raises a
    DeprecationWarning.  Under `-W error` that warning, raised inside
    Hypothesis's report hook, would end the whole session with INTERNALERROR
    and hide every later result; this hook runs ahead of that one.  `-W
    error` still applies to everything else.  The import waits for a failure
    because libcst is large, and a child process started from the test
    session reports the session's peak resident set as its own."""
    if call.excinfo is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # no libcst: the report imports nothing more
            pass
