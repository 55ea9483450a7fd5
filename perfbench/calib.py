"""Host-speed calibration.

On a VM whose cores are shared with other tenants, the same pure-Python
loop runs up to twice as slowly for tens of seconds at a time, which moves
every wall-clock figure by as much.  A fixed calibration loop timed
right before and right after an operation measures the host's speed at that
moment; the benchmark scales the operation's wall time by
CAL_REF_S / (mean of the two loop times), giving its time on a host where the
loop takes CAL_REF_S.  Raw wall times are printed next to the scaled ones.
"""

from time import perf_counter

# the loop's median time between operations on the 2-vCPU reference VM
# (Python 3.11.7, process pinned to one CPU)
CAL_REF_S = 0.0033


def calibrate() -> float:
    """Seconds taken by a fixed dict-and-integer loop (about 3.3 ms)."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i & 1023] = d.get(i & 1023, 0) + i * i
    return perf_counter() - t0
