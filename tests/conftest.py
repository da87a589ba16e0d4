import pytest

from carlitz import DigitBinomCache, Field, ResidueCtx, BaseTable, parse_poly


@pytest.fixture(scope="session")
def f2():
    return Field(2)


@pytest.fixture(scope="session")
def f3():
    return Field(3)


@pytest.fixture(scope="session")
def f4():
    return Field(2, 2)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def ctx9(f3):
    """q = 3, prime T^2+1, root T+1: the worked-example ring (units of order 8)."""
    return ResidueCtx(parse_poly("T^2+1", f3), primitive_root=parse_poly("T+1", f3))


@pytest.fixture(scope="session")
def cache9(ctx9):
    return DigitBinomCache(ctx9)


@pytest.fixture(scope="session")
def table9(ctx9, cache9):
    return BaseTable(ctx9, cache9)


@pytest.fixture(scope="session")
def small_rings(f2, f3, f4):
    """(ctx, cache) pairs with q^h <= 81, one per shape we care about."""
    out = []
    for field, prime_text in [
        (f2, "T"),          # trivial unit group
        (f2, "T^2+T+1"),    # q = 2, h = 2
        (f3, "T+1"),        # q = 3, h = 1
        (f3, "T^2+1"),      # q = 3, h = 2
        (f4, "T+u"),        # extension field, h = 1
    ]:
        ctx = ResidueCtx(parse_poly(prime_text, field))
        out.append((ctx, DigitBinomCache(ctx)))
    return out


@pytest.fixture
def dlog_calls(monkeypatch):
    """The residues passed to ResidueCtx.dlog from here on, in call order."""
    calls = []
    real = ResidueCtx.dlog
    monkeypatch.setattr(ResidueCtx, "dlog", lambda self, r: calls.append(r) or real(self, r))
    return calls
