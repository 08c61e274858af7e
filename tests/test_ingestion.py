import numpy as np
import pytest

from ripsph.errors import (EmptySelection, MalformedRecord, NonNumeric,
                           RaggedRows)
from ripsph.ingestion import load_csv, parse_pdb, write_csv


def atom_line(serial, name, res, chain, resseq, x, y, z, altloc=" "):
    return (f"ATOM  {serial:>5} {name:<4}{altloc}{res:<3} {chain}{resseq:>4}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00")


class TestParsePdb:
    def test_single_ca_record(self):
        line = "ATOM      1  CA  ALA A   1      11.104  13.207   2.100  1.00  0.00"
        cloud = parse_pdb(line)
        assert cloud.shape == (1, 3)
        assert cloud[0].tolist() == [11.104, 13.207, 2.100]

    def test_many_records_keep_file_order(self):
        lines = [atom_line(i + 1, " CA ", "GLY", "A", i + 1, float(i), 0.0, 0.0)
                 for i in range(111)]
        cloud = parse_pdb("\n".join(lines))
        assert cloud.shape == (111, 3)
        assert cloud[:, 0].tolist() == [float(i) for i in range(111)]

    def test_non_ca_atoms_skipped(self):
        text = "\n".join([
            atom_line(1, " N  ", "ALA", "A", 1, 1.0, 2.0, 3.0),
            atom_line(2, " CA ", "ALA", "A", 1, 4.0, 5.0, 6.0),
            atom_line(3, " C  ", "ALA", "A", 1, 7.0, 8.0, 9.0),
        ])
        cloud = parse_pdb(text)
        assert cloud.tolist() == [[4.0, 5.0, 6.0]]

    def test_hetatm_only_raises_empty_selection(self):
        text = "HETATM    1  O   HOH A   1      0.000   0.000   0.000  1.00  0.00"
        with pytest.raises(EmptySelection):
            parse_pdb(text)

    def test_chain_filter(self):
        text = "\n".join([
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0),
            atom_line(2, " CA ", "ALA", "B", 1, 2.0, 0.0, 0.0),
        ])
        assert parse_pdb(text, chain="B").tolist() == [[2.0, 0.0, 0.0]]

    def test_altloc_b_skipped(self):
        text = "\n".join([
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0, altloc="A"),
            atom_line(2, " CA ", "ALA", "A", 1, 9.0, 0.0, 0.0, altloc="B"),
            atom_line(3, " CA ", "ALA", "A", 2, 2.0, 0.0, 0.0),
        ])
        cloud = parse_pdb(text)
        assert cloud[:, 0].tolist() == [1.0, 2.0]

    def test_only_first_model_read(self):
        text = "\n".join([
            "MODEL        1",
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0),
            "ENDMDL",
            "MODEL        2",
            atom_line(1, " CA ", "ALA", "A", 1, 5.0, 0.0, 0.0),
            "ENDMDL",
        ])
        assert parse_pdb(text).shape == (1, 3)

    def test_endmdl_without_model_ends_the_first_model(self):
        text = "\n".join([
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0),
            "ENDMDL",
            atom_line(2, " CA ", "ALA", "A", 2, 5.0, 0.0, 0.0),
        ])
        assert parse_pdb(text).tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("end", ["ENDMDL", "MODEL        2"])
    def test_malformed_atom_after_first_model_ignored(self, end):
        text = "\n".join([
            "MODEL        1",
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0),
            end,
            "ATOM      2  CA  ALA A   2      bad",
        ])
        assert parse_pdb(text).tolist() == [[1.0, 0.0, 0.0]]

    def test_short_record_raises_with_line_number(self):
        text = "\n".join([
            atom_line(1, " CA ", "ALA", "A", 1, 1.0, 0.0, 0.0),
            "ATOM      2  CA  ALA A   2      bad",
        ])
        with pytest.raises(MalformedRecord) as exc:
            parse_pdb(text)
        assert exc.value.line_number == 2

    def test_bad_coordinates_raise(self):
        line = ("ATOM      1  CA  ALA A   1      xx.xxx  13.207   2.100"
                "  1.00  0.00")
        with pytest.raises(MalformedRecord):
            parse_pdb(line)

    def test_bytes_input(self):
        line = b"ATOM      1  CA  ALA A   1      11.104  13.207   2.100  1.00  0.00"
        assert parse_pdb(line).shape == (1, 3)

    @pytest.mark.parametrize("bom", ["\ufeff", b"\xef\xbb\xbf"])
    def test_byte_order_mark_keeps_first_atom(self, bom):
        lines = "\n".join(atom_line(i, " CA ", "GLY", "A", i, float(i), 0.0, 0.0)
                          for i in range(1, 3))
        text = bom + (lines.encode() if isinstance(bom, bytes) else lines)
        assert parse_pdb(text).tolist() == [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]


class TestLoadCsv:
    def test_header_detected(self):
        cloud = load_csv("x,y,z\n0,0,0\n1,0,0")
        assert cloud.shape == (2, 3)

    def test_header_after_blank_lines(self):
        cloud = load_csv("\nx,y\n0,0\n3,4\n")
        assert cloud.tolist() == [[0.0, 0.0], [3.0, 4.0]]
        assert load_csv("\r\n \r\nx,y\r\n1,2\r\n").tolist() == [[1.0, 2.0]]

    def test_only_one_header(self):
        with pytest.raises(NonNumeric) as exc:
            load_csv("\nx,y\nx,y\n0,0")
        assert exc.value.line_number == 3

    def test_single_value(self):
        cloud = load_csv("0.5")
        assert cloud.shape == (1, 1)
        assert cloud[0, 0] == 0.5

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            load_csv("1,2\n3,4,5")

    def test_non_numeric_mid_file(self):
        with pytest.raises(NonNumeric) as exc:
            load_csv("1,2\n3,oops")
        assert exc.value.line_number == 2

    def test_crlf_and_blank_lines(self):
        # float() rejects a field wrapped in \x1f, and strip() drops it
        for text in ("1,2\r\n\r\n3,4\r\n", "1,2\r\n\r\n\x1f3\x1f,4\r\n"):
            cloud = load_csv(text)
            assert cloud.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_raises(self):
        with pytest.raises(EmptySelection):
            load_csv("")

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    @pytest.mark.parametrize("kind", [str, bytes])
    def test_cr_and_crlf_line_ends(self, newline, kind):
        def source(*rows):
            text = newline.join(rows)
            return text.encode() if kind is bytes else text
        cloud = load_csv(source("x,y", "1,2", "", "3,4", ""))
        assert cloud.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(NonNumeric) as exc:
            load_csv(source("x,y", "1,2", "", "3,?"))
        assert exc.value.line_number == 4

    @pytest.mark.parametrize("source", ["\ufeff0,0\n1,0\n1,1\n0,1\n",
                                        b"\xef\xbb\xbf0,0\n1,0\n1,1\n0,1\n"])
    def test_byte_order_mark_is_not_a_header(self, source):
        assert load_csv(source).tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


class TestRoundTrip:
    def test_write_then_load_is_identical(self):
        rng = np.random.default_rng(42)
        cloud = rng.normal(size=(17, 3))
        again = load_csv(write_csv(cloud))
        assert np.array_equal(cloud, again)

    def test_pdb_extract_roundtrip(self):
        lines = [atom_line(i, " CA ", "GLY", "A", i, 0.1 * i, -1.5, 2.25)
                 for i in range(1, 6)]
        cloud = parse_pdb("\n".join(lines))
        assert np.array_equal(load_csv(write_csv(cloud)), cloud)
