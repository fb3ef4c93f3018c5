"""One line per value at 17 significant digits: the array body's formatter.

The Matrix Market writer formats every array body value with :func:`lines`.
Run as a script, this module reads native float64 values from stdin and
writes their lines to stdout, one chunk at a time; ``gen random`` starts
it (``python -I -S _lines.py``) to format its later columns on another
CPU.  It imports only the standard library, so it starts in a few
milliseconds, and both processes write the same bytes for the same values.
"""

import sys

# values, or coordinate entries, per %-format call, so a writer holds a few kB
# whatever the order or the nonzero count; chunks of 32 to 192 entries gave a
# `gen random --n 1000` process its lowest peak RSS, and 512 or 1024 one MB
# more (see CHANGES.md)
CHUNK = 128


def lines(values) -> str:
    """The values, a sequence of floats, as one %.17g line each: the bytes
    of a per-value f"{v:.17g}" loop, in one % call."""
    return ("%.17g\n" * len(values)) % tuple(values)


def _main() -> None:
    read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
    while raw := read(8 * CHUNK):
        write(lines(memoryview(raw).cast("d").tolist()).encode("ascii"))
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    _main()
