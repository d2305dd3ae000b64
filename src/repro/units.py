"""Unit constants and conversion helpers.

The simulator uses a small set of canonical units everywhere:

* time        — seconds (``float``) at API boundaries, CPU cycles (``int``)
                inside the execution model,
* energy      — joules,
* power       — watts,
* memory      — bytes (``int``); helpers exist for KiB/MiB,
* temperature — degrees Celsius.
"""

KB = 1024
MB = 1024 * 1024

MICROSECOND = 1e-6
MILLISECOND = 1e-3

#: DAQ sampling period used throughout the paper (Section IV-D).
DAQ_SAMPLE_PERIOD_S = 40e-6

#: HPM sampling period on the Pentium M platform (Section IV-E).
HPM_PERIOD_P6_S = 1e-3

#: HPM sampling period on the DBPXA255 platform (Section IV-E).
HPM_PERIOD_PXA255_S = 10e-3


def mb(n):
    """Return *n* mebibytes expressed in bytes (as an ``int``)."""
    return int(n * MB)


def kb(n):
    """Return *n* kibibytes expressed in bytes (as an ``int``)."""
    return int(n * KB)


def cycles_to_seconds(cycles, clock_hz):
    """Convert a cycle count at ``clock_hz`` into seconds."""
    return cycles / float(clock_hz)


def seconds_to_cycles(seconds, clock_hz):
    """Convert seconds into a whole number of cycles at ``clock_hz``."""
    return int(round(seconds * float(clock_hz)))


def joules(power_w, seconds):
    """Energy in joules for ``power_w`` watts sustained for ``seconds``."""
    return power_w * seconds
