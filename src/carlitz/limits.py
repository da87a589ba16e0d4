"""Work-bound defaults and the error raised when a bound would be exceeded.

Exact polynomial construction and brute-force enumeration both grow without
bound in n, so every entry point that can blow up takes an explicit limit
with one of these defaults.  Hitting a limit raises GuardrailError rather
than grinding away; callers (and the CLI) can raise the limit deliberately.
"""

# Largest degree allowed for exactly constructed polynomials (D_i, factorials).
DEFAULT_EXACT_DEGREE_LIMIT = 10**6

# Largest n the linear distribution scan will enumerate.
DEFAULT_ENUM_LIMIT = 10**7

# Largest word value z(w) the class-set enumeration will scan.
DEFAULT_CLASS_ENUM_LIMIT = 10**6

# The first discrete log builds a full lookup table while q^h - 1 stays at or
# below this; above it, ceil(sqrt(q^h - 1)) baby steps shared by later logs.
DLOG_TABLE_LIMIT = 2**20


class GuardrailError(Exception):
    """A requested computation exceeds its configured work bound."""
