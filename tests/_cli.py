"""invoke(args): run the barnesg CLI in this process and keep what it prints."""

import contextlib
import io
from types import SimpleNamespace

from barnesg.cli import main


def invoke(args):
    """`barnesg *args` in-process: exit_code, output (stdout), stderr, and exception,
    which is None unless an exception other than SystemExit left main."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse: a usage error, --help or --version
            code = exc.code
        except Exception as exc:  # left to the test to report
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, output=out.getvalue(), stderr=err.getvalue(),
                           exception=exception)
