"""``python -m netscreen``: the command line of :mod:`netscreen.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
