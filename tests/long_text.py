"""Comparison of long texts, such as whole JSON documents, that fails fast.

A failing ``assert got == want`` on two texts of hundreds of kilobytes makes
pytest diff them in full, which can take minutes; ``assert_same_text``
reports the first offset where they differ, with a short window of each.
"""

import os


def assert_same_text(got: str, want: str, context: str = "", window: int = 80) -> None:
    """Raise ``AssertionError`` unless ``got == want``, naming the first
    differing offset, both lengths and ``window`` characters of each text
    from shortly before that offset.  ``context`` leads the message."""
    __tracebackhide__ = True  # pytest shows the caller's line, not this frame
    if got == want:
        return
    at = len(os.path.commonprefix([got, want]))
    start = max(at - window // 4, 0)
    raise AssertionError(
        f"{context}{' ' if context else ''}texts differ at offset {at} "
        f"(lengths {len(got)} and {len(want)}):\n"
        f"  got  {got[start:start + window]!r}\n  want {want[start:start + window]!r}"
    )
