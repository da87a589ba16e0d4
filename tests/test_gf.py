import pytest

from carlitz import Field
from carlitz.polyring import Poly, is_irreducible


FIELDS = [Field(2), Field(3), Field(5), Field(2, 2), Field(3, 2), Field(2, 3), Field(2, 4)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        assert field.pow(a, field.q) == a  # Frobenius fixes nothing extra
        if a:
            assert field.mul(a, field.inv(a)) == 1
            assert field.inv(field.inv(a)) == a
    for a in els:
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.sub(a, b) == field.add(a, field.neg(b))


@pytest.mark.parametrize("field", [Field(2, 2), Field(3, 2), Field(2, 3)],
                         ids=lambda f: f"q{f.q}")
def test_field_distributivity_exhaustive(field):
    els = list(field.elements())
    for a in els:
        for b in els:
            for c in els:
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_encoding_bijection():
    for field in FIELDS:
        seen = set()
        for a in field.elements():
            cs = field.coords(a)
            assert len(cs) == field.s
            assert all(0 <= c < field.p for c in cs)
            assert field.from_coords(cs) == a
            seen.add(cs)
        assert len(seen) == field.q


def test_default_modulus_is_first_irreducible():
    # Oracle: enumerate all monic quadratics over F_2 by ascending coefficient
    # encoding and find the irreducibles by brute root/factor check.
    def has_root(coeffs, p):
        return any(
            sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
            for x in range(p)
        )

    quadratics = [(c0, c1, 1) for c1 in (0, 1) for c0 in (0, 1)]
    quadratics.sort(key=lambda cs: cs[0] + 2 * cs[1])
    irr = [cs for cs in quadratics if not has_root(cs, 2)]
    assert irr[0] == (1, 1, 1)
    assert Field(2, 2).modulus == (1, 1, 1)

    # Degree-2 over F_3: first candidate without a root is u^2+1.
    assert Field(3, 2).modulus == (1, 0, 1)

    # field_modulus is a JSON field, so the canonical moduli are pinned.
    goldens = {
        (2, 2): "u^2+u+1", (2, 3): "u^3+u+1", (2, 4): "u^4+u+1",
        (2, 5): "u^5+u^2+1", (2, 8): "u^8+u^4+u^3+u+1",
        (3, 2): "u^2+1", (3, 3): "u^3+2*u+1", (3, 4): "u^4+u+2",
        (5, 2): "u^2+2", (5, 3): "u^3+u+1", (7, 2): "u^2+1", (65537, 2): "u^2+3",
    }
    for (p, s), text in goldens.items():
        assert Field(p, s).modulus_str() == text, (p, s)


def test_default_modulus_passes_ring_irreducibility():
    # The chosen modulus must test irreducible over F_p in the polynomial ring.
    for p, s in [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]:
        field = Field(p, s)
        as_poly = Poly(Field(p), field.modulus)
        assert is_irreducible(as_poly)


def test_supplied_modulus_validation():
    assert Field(2, 2, modulus=(1, 1, 1)).q == 4
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 0, 1))  # (u+1)^2, reducible
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ValueError):
        Field(3, 1, modulus=(1, 1))  # prime field takes none
    with pytest.raises(ValueError):
        Field(3, 3, modulus=(1, 1, 1, 1))  # u^3+u^2+u+1 = (u+1)(u^2+1)
    assert Field(3, 3, modulus=(1, 2, 0, 1)).modulus_str() == "u^3+2*u+1"


def test_pow_skips_the_last_squaring(monkeypatch):
    f9 = Field(3, 2)
    a = f9.from_coords((1, 2))
    fourth = f9.mul(f9.mul(a, a), f9.mul(a, a))
    calls = []
    mul = Field.mul

    def counting_mul(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(Field, "mul", counting_mul)
    assert f9.pow(a, 1) == a
    assert calls == [(1, a)]  # no squaring after the exponent's last bit
    calls.clear()
    assert f9.pow(a, 4) == fourth
    assert len(calls) == 3  # two squarings and one product


def test_bad_parameters():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(3, 0)


def test_element_text():
    f9 = Field(3, 2)
    assert [f9.element_str(a) for a in f9.elements()] == [
        "0", "1", "2", "u", "u+1", "u+2", "2*u", "2*u+1", "2*u+2"
    ]
    assert f9.modulus_str() == "u^2+1"
    assert Field(2, 3).modulus_str() == "u^3+u+1"
    assert Field(5).modulus_str() is None


def test_field_identity():
    assert Field(3) == Field(3)
    assert Field(2, 2) == Field(2, 2, modulus=(1, 1, 1))
    assert Field(2) != Field(3)
    assert hash(Field(3, 2)) == hash(Field(3, 2))
