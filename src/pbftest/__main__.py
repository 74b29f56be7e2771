"""`python -m pbftest ...` runs the command-line tool."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
