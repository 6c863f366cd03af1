"""Command-line entry point: python -m tavopt <mode> ..."""

from .cli import main

if __name__ == "__main__":
    main()
