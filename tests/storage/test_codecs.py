"""Codec round-trips: dictionary, prepared relation, encoding, stamps.

Property-based where the input space matters (empty relations,
single-token groups, columns spilling past one page), example-based for
the generation-stamp semantics (SSJ114).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictionary import TokenDictionary
from repro.core.encoded import EncodedPreparedRelation
from repro.core.prepared import PreparedRelation
from repro.errors import StaleArtifactError, StorageError
from repro.storage import codecs
from repro.storage.pages import PAGE_SIZE, PageFileReader, PageFileWriter

TOKENS = ["main", "oak", "st", "ave", "elm", "blvd", "seattle", "12", "99b"]


def tokenize(s):
    return s.split()


@st.composite
def corpora(draw):
    """String corpora spanning the edge shapes: possibly empty, possibly
    single-token groups, possibly duplicated values."""
    n = draw(st.integers(min_value=0, max_value=12))
    return [
        " ".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6)))
        for _ in range(n)
    ]


def prepared_of(values, name="R"):
    return PreparedRelation.from_strings(values, tokenize, name=name)


def roundtrip_prepared(tmp_path, prepared, chunk_rows=codecs.CHUNK_ROWS):
    path = str(tmp_path / "t.rpsf")
    with PageFileWriter(path) as writer:
        layout = codecs.write_prepared(writer, prepared, chunk_rows=chunk_rows)
    reader = PageFileReader(path)
    return reader, layout


class TestPreparedRoundTrip:
    @given(values=corpora())
    @settings(max_examples=50, deadline=None)
    def test_groups_norms_survive(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("codec")
        prepared = prepared_of(values)
        reader, layout = roundtrip_prepared(tmp_path, prepared)
        try:
            decoded = codecs.read_prepared(reader, "R")
            assert decoded.groups == prepared.groups
            assert decoded.norms == prepared.norms
            assert layout["num_groups"] == len(prepared.groups)
        finally:
            reader.close()

    def test_empty_relation(self, tmp_path):
        prepared = prepared_of([])
        reader, layout = roundtrip_prepared(tmp_path, prepared)
        try:
            decoded = codecs.read_prepared(reader, "R")
            assert decoded.groups == {}
            assert layout == {
                "num_rows": 0, "num_groups": 0,
                "chunk_rows": codecs.CHUNK_ROWS, "n_chunks": 0,
                "columns": ["a", "b", "w", "norm"],
            }
        finally:
            reader.close()

    def test_single_token_groups(self, tmp_path):
        prepared = prepared_of(["oak", "elm", "oak"])
        reader, _ = roundtrip_prepared(tmp_path, prepared)
        try:
            decoded = codecs.read_prepared(reader, "R")
            assert decoded.groups == prepared.groups
        finally:
            reader.close()

    def test_multi_chunk_columns_match_fnf_rows(self, tmp_path):
        # Tiny chunk_rows forces many chunks; enough distinct rows that
        # the weight column alone also spills past one 4 KiB page.
        values = [f"prefix token{i} t{i % 7}" for i in range(PAGE_SIZE // 4)]
        prepared = prepared_of(values)
        reader, layout = roundtrip_prepared(tmp_path, prepared, chunk_rows=64)
        try:
            assert layout["n_chunks"] > 1
            assert reader.info("groups/weights").num_pages > 1
            rows = []
            for c in range(layout["n_chunks"]):
                chunk_cols = [
                    codecs.read_row_chunk(reader, col, c)
                    for col in layout["columns"]
                ]
                rows.extend(zip(*chunk_cols))
            assert rows == list(prepared.relation.rows)
        finally:
            reader.close()


class TestDictionaryRoundTrip:
    @given(values=corpora())
    @settings(max_examples=30, deadline=None)
    def test_ids_and_generation_survive(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("codec")
        prepared = prepared_of(values)
        dictionary = TokenDictionary.from_relations(prepared, prepared)
        path = str(tmp_path / "d.rpsf")
        with PageFileWriter(path) as writer:
            generation = codecs.write_dictionary(writer, dictionary)
        with PageFileReader(path) as reader:
            decoded, decoded_gen = codecs.read_dictionary(reader)
        assert decoded_gen == generation
        assert len(decoded) == len(dictionary)
        for i in range(len(dictionary)):
            assert decoded.element_of(i) == dictionary.element_of(i)


class TestEncodedRoundTrip:
    @given(values=corpora())
    @settings(max_examples=30, deadline=None)
    def test_columnar_arrays_identical(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("codec")
        prepared = prepared_of(values)
        dictionary = TokenDictionary.from_relations(prepared, prepared)
        encoded = EncodedPreparedRelation(prepared, dictionary)
        path = str(tmp_path / "e.rpsf")
        with PageFileWriter(path) as writer:
            generation = codecs.write_dictionary(writer, dictionary)
            codecs.write_encoded(writer, encoded, generation)
        with PageFileReader(path) as reader:
            decoded = codecs.read_encoded(
                reader, prepared, dictionary, generation
            )
        assert list(decoded.keys) == list(encoded.keys)
        assert [list(g) for g in decoded.ids] == [list(g) for g in encoded.ids]
        assert [list(g) for g in decoded.weights] == [
            list(g) for g in encoded.weights
        ]
        assert list(decoded.norms) == list(encoded.norms)
        assert list(decoded.set_norms) == list(encoded.set_norms)


class TestGenerationStamps:
    def test_stale_encoding_raises(self, tmp_path):
        from repro.storage.fixtures import seed_stale_table

        path = str(tmp_path / "stale.rpsf")
        real_generation = seed_stale_table(path)
        with PageFileReader(path) as reader:
            prepared = prepared_of(["stale stamp fixture",
                                    "seeded defect corpus"])
            dictionary, generation = codecs.read_dictionary(reader)
            assert generation == real_generation
            with pytest.raises(StaleArtifactError):
                codecs.read_encoded(reader, prepared, dictionary, generation)

    def test_tampered_dictionary_cannot_masquerade(self, tmp_path):
        # A dictionary whose stamp doesn't match its re-derived content
        # digest is rejected even though every page checksum is valid.
        prepared = prepared_of(["oak elm", "elm st"])
        dictionary = TokenDictionary.from_relations(prepared, prepared)
        elements = [dictionary.element_of(i) for i in range(len(dictionary))]
        path = str(tmp_path / "t.rpsf")
        with PageFileWriter(path) as writer:
            writer.add_segment(
                "dict/elements", 1, codecs._dumps(elements)
            )
            writer.add_segment(
                "dict/meta", 0,
                codecs._dumps({"description": dictionary.description,
                               "generation": "f" * 64,
                               "size": len(elements)}),
            )
        with PageFileReader(path) as reader:
            with pytest.raises(StaleArtifactError):
                codecs.read_dictionary(reader)

    def test_stable_fingerprint_is_content_keyed(self):
        a = prepared_of(["oak elm", "elm st"])
        b = prepared_of(["oak elm", "elm st"])
        c = prepared_of(["oak elm", "elm ave"])
        assert codecs.stable_fingerprint(a) == codecs.stable_fingerprint(b)
        assert codecs.stable_fingerprint(a) != codecs.stable_fingerprint(c)

    def test_corrupted_page_surfaces_as_storage_error(self, tmp_path):
        prepared = prepared_of(["oak elm", "elm st"])
        path = str(tmp_path / "t.rpsf")
        with PageFileWriter(path) as writer:
            codecs.write_prepared(writer, prepared)
        raw = bytearray((tmp_path / "t.rpsf").read_bytes())
        raw[PAGE_SIZE + 24] ^= 0xFF  # first data page, just past its header
        (tmp_path / "t.rpsf").write_bytes(bytes(raw))
        with PageFileReader(path) as reader:
            with pytest.raises(StorageError):
                codecs.read_prepared(reader, "R")
