"""`python -m cyconf`: the same command line as the `cyconf` script."""

from .cli import entry

if __name__ == "__main__":  # not when a worker process re-imports it
    entry()
