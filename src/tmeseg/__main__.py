"""``python -m tmeseg``: the ``tmeseg`` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
