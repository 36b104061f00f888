"""`python -m pwlu ...`: the same command line as the `pwlu` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
