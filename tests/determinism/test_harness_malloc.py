"""The benchmark harness pins glibc's malloc thresholds.

Without the pin, freeing one large mmap'd block lifts glibc's mmap
threshold to that block's size, so the next block below it is carved
from the heap, where whether it is ever returned depends on what else
lies there (``pin_malloc_thresholds``).
"""

import ctypes

import pytest

import benchmarks.harness  # noqa: F401  (pins the thresholds on import)

MIB = 1024 * 1024


class _Mallinfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc >= 2.33 (mallinfo2)")
    fn.restype = _Mallinfo2
    return fn


def test_large_block_stays_mmapped_after_a_larger_one_is_freed():
    mallinfo2 = _mallinfo2()
    big = bytearray(16 * MIB)  # mmap'd: above the initial 128 KiB threshold
    del big  # unpinned, this free lifts the mmap threshold to 16 MiB
    before = mallinfo2().hblkhd
    block = bytearray(8 * MIB)
    assert mallinfo2().hblkhd - before >= 8 * MIB
    del block
