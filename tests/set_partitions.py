"""Set partitions by restricted growth strings, for the Bell-number
references of the tests."""


def iter_partitions(n: int):
    """All set partitions of range(n) as restricted growth strings."""
    rgs = [0] * n

    def rec(i: int, maxid: int):
        if i == n:
            yield tuple(rgs)
            return
        for c in range(maxid + 2):
            rgs[i] = c
            yield from rec(i + 1, max(maxid, c))

    yield from rec(1, 0) if n > 1 else iter([(0,) * n])
