"""ASCII figure rendering: one-line sparklines for power and live-set
series, with no plotting dependency.
"""

from repro.errors import ConfigurationError


def sparkline(values, width=None, charset=" .:-=+*#%@"):
    """One-line intensity strip for a numeric sequence."""
    if values is None or len(values) == 0:
        raise ConfigurationError("nothing to sparkline")
    values = list(values)
    if width is not None and width > 0 and len(values) > width:
        # Downsample by block means.
        block = len(values) / width
        values = [
            sum(values[int(i * block):int((i + 1) * block) or None])
            / max(len(values[int(i * block):int((i + 1) * block)]), 1)
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    steps = len(charset) - 1
    return "".join(
        charset[int((v - lo) / span * steps)] for v in values
    )
