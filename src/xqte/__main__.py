"""The command line, as `python -m xqte` and as the `xqte` script.

xqte makes no BLAS call on data, so OpenBLAS's thread pool only costs
start-up time; the command starts it with one thread unless
OPENBLAS_NUM_THREADS is already set. The setting has to come before
numpy is first imported, which is why it lives here and not in the
package: importing xqte as a library leaves the environment alone.
"""

import os


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    raise SystemExit(cli.main())


if __name__ == "__main__":
    main()
