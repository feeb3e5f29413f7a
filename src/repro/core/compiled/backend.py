"""What the frozen benchmark harness (``benchmarks/e2e``) still needs from
here; delete with ROADMAP item 1(b), once it stops."""

# asyncio recv()s into fresh 256 KiB blocks, an mmap/munmap pair each until
# a freed block this large raises glibc's thresholds.  The array-library
# import deleted from here did that, by accident, for the harness's load
# generator, whose read latency is the benchmark's (ROADMAP item 1(e)).
bytearray(1 << 20)


def backend_name() -> str:
    return "python"
