"""Work bounds, and the one check that refuses a request above one.

Exact polynomials, brute scans, discrete logs, factoring and the dense
census grow without bound, so each is refused with GuardrailError (CLI exit
3) before its work starts.  Every bound, with its error text:

- DEFAULT_EXACT_DEGREE_LIMIT: "degree {h} exceeds the exact-degree limit
  1000000" for polynomial text and a searched prime or field modulus, and
  under a degree_limit "deg D_{i} = {deg} ..." and "deg {n}!_C = {deg} ...".
- DEFAULT_ENUM_LIMIT: "brute scan of n = {n} exceeds the enumeration limit
  {limit}", for the brute census and check's --max-n.
- DEFAULT_CLASS_ENUM_LIMIT: "class-set scan of z = {z} exceeds the limit {limit}".
- DLOG_TABLE_LIMIT: "a discrete log mod {prime} needs {m} baby steps, above
  the table limit {limit}", a full table up to q^h - 1 = limit, and above it
  ceil(sqrt(q^h - 1)) baby steps that later logs share.
- DENSE_CENSUS_LIMIT: "q^h - 1 = {L} exceeds the dense-census limit
  16777216", for a census, digit counts and a census read from JSON.
- intfactor._RHO_BOUND = 2^24 Brent steps: "factoring {n} needs more than
  16777216 Pollard rho steps".
"""

DEFAULT_EXACT_DEGREE_LIMIT = 10**6
DEFAULT_ENUM_LIMIT = 10**7
DEFAULT_CLASS_ENUM_LIMIT = 10**6
DLOG_TABLE_LIMIT = 2**20
DENSE_CENSUS_LIMIT = 2**24


class GuardrailError(Exception):
    """A requested computation exceeds its configured work bound."""


def refuse_above(value, limit, what, bound):
    """GuardrailError("{what} {value} exceeds the {bound} {limit}") if value > limit."""
    if value > limit:
        raise GuardrailError(f"{what} {value} exceeds the {bound} {limit}")
