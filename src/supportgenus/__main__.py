"""``python -m supportgenus``: the same entry point as the ``supportgenus`` script."""

from .cli import console

if __name__ == "__main__":
    console()
