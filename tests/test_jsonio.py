import json
from fractions import Fraction
from pathlib import Path

import pytest

from wdreps import (Matrix, NumberField, ParseError, Poly, QQ, QT, WDRep,
                    frss_signature, monodromy_filtration, purity_check,
                    sp_construct)
from wdreps.fields import format_poly
from wdreps.jsonio import (ValidationError, canonical_json_bytes,
                           filtration_to_json, load_wdrep,
                           matrix_from_json, purity_report_to_json,
                           scalar_from_json, signature_to_json,
                           wdrep_from_json, wdrep_to_json)

from support import flagship_family, trivial_onedim

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def roundtrip_bytes(doc_bytes: bytes) -> bytes:
    rho = wdrep_from_json(json.loads(doc_bytes))
    return canonical_json_bytes(wdrep_to_json(rho))


class TestScalars:
    def test_string_forms(self):
        assert scalar_from_json("3/4", QQ, "x") == Fraction(3, 4)
        assert scalar_from_json(7, QQ, "x") == 7
        t = QT.gen()
        assert scalar_from_json("(t^2-1)/(t+2)", QT, "x") == (t * t - 1) / (t + 2)

    def test_object_form_for_function_field(self):
        x = scalar_from_json({"num": [0, 1], "den": [1, 1]}, QT, "x")
        t = QT.gen()
        assert x == t / (t + 1)
        with pytest.raises(ParseError):
            scalar_from_json({"num": [1]}, QT, "x")
        with pytest.raises(ParseError):
            scalar_from_json({"num": [1], "den": [0]}, QT, "x")

    def test_number_field_array_form(self):
        K = NumberField([1, 0, 1])
        assert scalar_from_json([0, 1], K, "x") == K.gen()
        assert scalar_from_json("a+1", K, "x") == K.gen() + 1

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            scalar_from_json(True, QQ, "x")
        with pytest.raises(ParseError):
            scalar_from_json("q+1", QQ, "x")

    @pytest.mark.parametrize("value, field", [
        ({"num": [True], "den": [True]}, QT),
        ({"num": [0, 1], "den": [1, False]}, QT),
        ({"num": "12", "den": [1]}, QT),   # a string is not a coefficient array
        ({"num": 5, "den": [1]}, QT),
        ({"num": {}, "den": [1]}, QT),
        ([True, False], NumberField([-2, 0, 1])),
        ([1, True], NumberField([-2, 0, 1])),
    ])
    def test_rejects_non_numeric_coefficients(self, value, field):
        with pytest.raises(ParseError):
            scalar_from_json(value, field, "x")

    @pytest.mark.parametrize("minpoly", [[True, 0, 1], [-2, 0, True], "101", None,
                                         [-2.0, 0, 1.0], [-2, 0, 1.5]])
    def test_rejects_non_numeric_minpoly(self, minpoly):
        doc = {"q": 5, "field": {"type": "NumberField", "minpoly": minpoly},
               "phi": [["1"]], "nilp": [["0"]], "inertia": []}
        with pytest.raises(ParseError):
            wdrep_from_json(doc)


class TestMatrices:
    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json([["1"], ["1", "2"]], QQ, "m")

    def test_empty(self):
        assert matrix_from_json([], QQ, "m").nrows == 0


class TestRepresentationDocuments:
    def test_corpus_roundtrip_idempotent(self):
        for path in sorted(CORPUS.glob("*.json")):
            raw = path.read_bytes()
            once = roundtrip_bytes(raw)
            assert once == roundtrip_bytes(once)
            # the shipped corpus is already canonical
            assert once == raw

    def test_canonicalizes_scalars(self):
        doc = {"q": 5, "field": {"type": "Qt"},
               "phi": [["(t-1)/(t-1)"]], "nilp": [["0"]], "inertia": []}
        rho = wdrep_from_json(doc)
        assert wdrep_to_json(rho)["phi"] == [["1"]]

    def test_noninvertible_phi_is_validation_error(self):
        doc = {"q": 5, "field": {"type": "Q"},
               "phi": [["0"]], "nilp": [["0"]]}
        with pytest.raises(ValidationError, match="phi"):
            wdrep_from_json(doc)

    def test_missing_and_unknown_keys(self):
        with pytest.raises(ParseError, match="missing"):
            wdrep_from_json({"q": 5, "field": {"type": "Q"}, "phi": [["1"]]})
        with pytest.raises(ParseError, match="unknown"):
            wdrep_from_json({"q": 5, "field": {"type": "Q"}, "phi": [["1"]],
                             "nilp": [["0"]], "extra": 1})

    def test_bad_q(self):
        with pytest.raises(ParseError):
            wdrep_from_json({"q": 1, "field": {"type": "Q"},
                             "phi": [["1"]], "nilp": [["0"]]})

    def test_inertia_schema(self):
        doc = {"q": 5, "field": {"type": "Q"}, "phi": [["1"]], "nilp": [["0"]],
               "inertia": [{"label": "g", "matrix": [["-1"]]}]}
        rho = wdrep_from_json(doc)
        assert dict(rho.inertia)["g"] == Matrix(QQ, [[-1]])
        with pytest.raises(ParseError):
            wdrep_from_json({**doc, "inertia": [{"label": ""}]})

    def test_load_reports_path(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError, match="broken.json"):
            load_wdrep(str(bad))

    def test_number_field_document(self):
        doc = {"q": 5, "field": {"type": "NumberField", "minpoly": [1, 0, 1]},
               "phi": [["a"]], "nilp": [["0"]]}
        rho = wdrep_from_json(doc)
        assert rho.field == NumberField([1, 0, 1])
        assert wdrep_to_json(rho)["phi"] == [["a"]]


class TestReports:
    def test_format_poly(self):
        assert format_poly(Poly(QQ, [Fraction(-1, 5), 1])) == "x-1/5"
        assert format_poly(Poly(QQ, [1, 0, 1])) == "x^2+1"
        assert format_poly(Poly(QQ, [0])) == "0"
        assert format_poly(Poly(QQ, [2])) == "2"

    def test_signature_json(self):
        sig = frss_signature(sp_construct(2, trivial_onedim()))
        assert signature_to_json(sig) == [{"t": 2, "charpoly": ["-1/5", "1"]}]

    def test_purity_json(self):
        report = purity_check(sp_construct(2, trivial_onedim()), "infer")
        doc = purity_report_to_json(report)
        assert doc["verdict"] == "pure" and doc["weight"] == -1
        assert [g["k"] for g in doc["graded"]] == [-1, 1]
        for g in doc["graded"]:
            for root in g["roots"]:
                assert root["match"] is True
                assert float(root["modulus"]["lo"]) <= float(root["modulus"]["hi"])

    def test_filtration_json(self):
        filt = monodromy_filtration(Matrix(QQ, [[0, 0], [1, 0]]))
        doc = filtration_to_json(filt)
        assert [(s["k"], s["dim"]) for s in doc] == [(-2, 0), (-1, 1), (0, 1), (1, 2)]

    def test_canonical_bytes_stable(self):
        doc = wdrep_to_json(flagship_family())
        assert canonical_json_bytes(doc) == canonical_json_bytes(
            json.loads(canonical_json_bytes(doc)))


# ---------------------------------------------------------------------------
# the canonical emitter against json.dumps(sort_keys=True, indent=2)
# ---------------------------------------------------------------------------

def _json_values():
    """Nested dicts, lists and tuples of None, booleans, big ints and strings
    with non-ASCII characters, control characters, quotes and backslashes;
    plus documents holding one container object twice at one depth and at
    two further depths."""
    st = pytest.importorskip("hypothesis.strategies")
    strings = st.one_of(st.text(max_size=5), st.sampled_from(
        ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "€ß", "\U0001d11e", "\u2028"]))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(-10 ** 80, 10 ** 80), strings)
    values = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4)), max_leaves=16)

    @st.composite
    def sharing(draw):
        shared = draw(st.one_of(st.lists(values, min_size=1, max_size=3),
                                st.dictionaries(strings, values, min_size=1, max_size=3)))
        return {"a": shared, "b": [shared, {"c": (shared,)}], "d": shared,
                "e": draw(values), "f": [shared, shared]}

    return st.one_of(values, sharing())


def test_canonical_bytes_equal_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_json_values())
    def check(obj):
        expected = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
        assert canonical_json_bytes(obj) == expected

    check()


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", {1: "a"}, [{"k": [0.0]}]],
                         ids=["float", "set", "bytes", "int key", "nested float"])
def test_canonical_bytes_refuse_other_values(value):
    with pytest.raises(TypeError):
        canonical_json_bytes({"value": value})


# ---------------------------------------------------------------------------
# loader fuzzing: any document either loads or is refused as an input error
# ---------------------------------------------------------------------------

def _fuzz_documents():
    """Documents that are mostly well formed, so that the loader gets past
    its key checks: a field, q and square matrices of scalar strings for
    that field, then a few mutations (junk values, booleans, also inside
    coefficient arrays, floats, bad fields, ragged or non-square shapes, missing or unknown keys)."""
    st = pytest.importorskip("hypothesis.strategies")
    coeffs = st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=3)
    junk = st.one_of(st.booleans(), st.floats(allow_nan=True), st.none(),
                     st.text(max_size=4), coeffs,
                     st.fixed_dictionaries({"num": st.one_of(coeffs, st.text(max_size=3), st.integers()),
                                            "den": coeffs}))
    fields = st.sampled_from([
        {"type": "Q"}, {"type": "Qt"}, {"type": "NumberField", "minpoly": [-2, 0, 1]},
        {"type": "NumberField", "minpoly": [-1, 0, 1]},
        {"type": "NumberField", "minpoly": [1, 0, 1]}])
    bad_fields = st.one_of(
        junk, st.sampled_from([{}, {"type": "R"}, {"type": "NumberField"},
                               {"type": "NumberField", "minpoly": [0, 0, 1]},
                               {"type": "NumberField", "minpoly": [1, 2]},
                               {"type": "NumberField", "minpoly": ["1/2", 0, 1]}]),
        st.fixed_dictionaries({"type": st.just("NumberField"), "minpoly": junk}))
    rationals = ["0", "0", "0", "1", "-1", "1/5", "5", "-3/4"]
    scalars = {"Q": rationals, "Qt": rationals + ["t", "t+1", "1/(t-1)", "(t^2+1)/(t+2)"],
               "NumberField": rationals + ["a", "a+1", "a-1", "2*a-3", "a^2-1"]}
    junk_scalars = st.one_of(junk, st.sampled_from(
        ["1/0", "t^", "((t)", "2^99999", "", "x", "1/2/3", "t/0", "9" * 40, "a/(a+1)"]))

    @st.composite
    def documents(draw):
        n = draw(st.integers(0, 3))
        field = draw(fields)
        entries = st.one_of(st.integers(-6, 6), st.sampled_from(scalars[field["type"]]))

        def square():
            return [[draw(entries) for _ in range(n)] for _ in range(n)]

        # a strictly lower triangular nilp is nilpotent, so validation gets
        # as far as the conjugation relation and the inertia checks
        nilp = [[draw(entries) if j < i and draw(st.booleans()) else "0" for j in range(n)]
                for i in range(n)]
        doc = {"q": draw(st.sampled_from([2, 3, 5])), "field": field,
               "phi": square(), "nilp": nilp}
        if draw(st.booleans()):
            doc["inertia"] = [{"label": draw(st.sampled_from(["g", "h"])),
                               "matrix": square()}
                              for _ in range(draw(st.integers(0, 2)))]
        matrices = [doc["phi"], nilp] + [g["matrix"] for g in doc.get("inertia", [])]
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.integers(0, 8))
            if kind == 0:
                doc["q"] = draw(st.one_of(junk, st.integers(-2, 1)))
            elif kind == 1:
                doc["field"] = draw(bad_fields)
            elif kind in (2, 3) and n:
                row = draw(st.sampled_from(draw(st.sampled_from(matrices))))
                row[draw(st.integers(0, n - 1))] = draw(junk_scalars)
            elif kind == 4:
                key = draw(st.sampled_from(["phi", "nilp"]))
                doc[key] = draw(st.one_of(junk, st.lists(st.lists(entries, max_size=3),
                                                         max_size=3)))
            elif kind == 5 and isinstance(doc.get("inertia"), list) and doc["inertia"]:
                doc["inertia"][0] = draw(st.one_of(junk, st.fixed_dictionaries(
                    {"label": junk, "matrix": st.just(square())})))
            elif kind == 6:
                del doc[draw(st.sampled_from(sorted(doc)))]
            elif kind == 7:
                doc[draw(st.sampled_from(["mu", "Phi", ""]))] = draw(junk)
            elif kind == 8:
                doc["inertia"] = draw(junk)
        return doc

    return st.one_of(documents(), documents(), documents(), junk)


def test_loader_fuzz():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_fuzz_documents())
    def load(doc):
        try:
            assert isinstance(wdrep_from_json(doc), WDRep)
        except (ParseError, ValidationError):
            pass

    load()
