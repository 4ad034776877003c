"""Byte-level mutations of a valid file, for the parser fuzz tests.

A variant overwrites up to four bytes, truncates the file or appends up to
16 bytes. Half of the overwritten positions fall in ``raw[:hot]``, where a
format keeps most of what its parser checks; the rest anywhere. ``alphabet``
adds bytes the format's grammar reads (digits, separators) to the random
ones, so mutations of text files also reach past the tokenizer.
"""

from hypothesis import strategies as st


def variants(raw: bytes, hot: int, alphabet: bytes = b""):
    position = st.one_of(st.integers(0, hot - 1), st.integers(0, len(raw) - 1))
    value = st.integers(0, 255)
    if alphabet:
        value = st.one_of(value, st.sampled_from(alphabet))
    return st.one_of(
        st.tuples(st.just("mutate"), st.lists(st.tuples(position, value), min_size=1, max_size=4)),
        st.tuples(st.just("truncate"), st.integers(0, len(raw) - 1)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    )


def apply(raw: bytes, variant) -> bytes:
    kind, arg = variant
    out = bytearray(raw)
    if kind == "mutate":
        for pos, value in arg:
            out[pos] = value
    elif kind == "truncate":
        del out[arg:]
    else:
        out += arg
    return bytes(out)
