"""Verb-placement dataset loading and consistency reporting."""

import pytest

from harmonia import ValidationError
from harmonia.typology import (
    PERCENT_TOL,
    TypologyRow,
    bundled_dataset_text,
    load_typology,
    typology_report,
)

GOOD_CSV = """\
# a comment line
source,unit,order_position,frequency,percentage

demo,languages,1,10,10.0
demo,languages,2,40,40.0
demo,languages,3,50,50.0
"""


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_bundled_dataset_loads():
    rows = load_typology()
    assert len(rows) == 9
    assert {(r.source, r.unit) for r in rows} == {
        ("wals", "languages"),
        ("hammarstrom", "languages"),
        ("hammarstrom", "families"),
    }


def test_a_byte_order_mark_reads_like_none(tmp_path):
    """The bundled data saved as ``utf-8-sig``, as some spreadsheets save CSV,
    gives the bundled rows: the mark does not hide the leading comment line."""
    path = tmp_path / "bom.csv"
    path.write_text(bundled_dataset_text(), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_typology(path) == load_typology()


def test_bundled_report_totals_and_flags():
    by_key = {(g.source, g.unit): g for g in typology_report(load_typology())}

    wals = by_key[("wals", "languages")]
    assert wals.total == 1056
    assert wals.consistent == (True, True, True)

    h_lang = by_key[("hammarstrom", "languages")]
    assert h_lang.total == 5128
    # The printed medial percentage (41.3) does not match its own counts.
    assert h_lang.consistent == (True, False, True)
    assert h_lang.recomputed[1] == pytest.approx(42.063, abs=5e-4)

    h_fam = by_key[("hammarstrom", "families")]
    assert h_fam.total == 340
    assert h_fam.consistent == (True, False, True)
    assert h_fam.recomputed[1] == pytest.approx(17.059, abs=5e-4)


def test_bundled_recomputed_percentages():
    by_key = {(g.source, g.unit): g for g in typology_report(load_typology())}
    assert [round(x, 1) for x in by_key[("wals", "languages")].recomputed] == [10.5, 42.0, 47.4]
    assert [round(x, 1) for x in by_key[("hammarstrom", "languages")].recomputed] == [13.2, 42.1, 44.7]
    assert [round(x, 1) for x in by_key[("hammarstrom", "families")].recomputed] == [12.4, 17.1, 70.6]


def test_verb_final_dominates_everywhere():
    """In every group the verb-final count is the largest and verb-initial the smallest."""
    groups = typology_report(load_typology())
    assert all(g.counts_monotonic for g in groups)
    for group in groups:
        counts = [r.frequency for r in group.rows]
        assert counts[0] < counts[1] < counts[2]


def test_load_from_path_skips_comments_and_blanks(tmp_path):
    rows = load_typology(write(tmp_path, GOOD_CSV))
    assert len(rows) == 3
    assert rows[0].frequency == 10


def test_custom_data_is_consistent_when_exact(tmp_path):
    (group,) = typology_report(load_typology(write(tmp_path, GOOD_CSV)))
    assert group.consistent == (True, True, True)
    assert group.recomputed == (10.0, 40.0, 50.0)


def test_consistency_uses_the_documented_tolerance(tmp_path):
    text = GOOD_CSV.replace("demo,languages,1,10,10.0", "demo,languages,1,10,10.04")
    (group,) = typology_report(load_typology(write(tmp_path, text)))
    assert group.consistent[0]  # inside PERCENT_TOL
    text = GOOD_CSV.replace("demo,languages,1,10,10.0", "demo,languages,1,10,10.06")
    (group,) = typology_report(load_typology(write(tmp_path, text, "t2.csv")))
    assert not group.consistent[0]
    assert PERCENT_TOL == 0.05


def test_missing_column_is_reported(tmp_path):
    text = GOOD_CSV.replace(",percentage", "").replace(",10.0", "").replace(",40.0", "").replace(",50.0", "")
    with pytest.raises(ValidationError, match="missing column 'percentage'"):
        load_typology(write(tmp_path, text))


def test_unexpected_column_is_reported(tmp_path):
    text = GOOD_CSV.replace(",percentage", ",percentage,note").replace(
        ",10.0", ",10.0,x"
    ).replace(",40.0", ",40.0,x").replace(",50.0", ",50.0,x")
    with pytest.raises(ValidationError, match="unexpected column"):
        load_typology(write(tmp_path, text))


def test_duplicate_position_is_reported(tmp_path):
    text = GOOD_CSV.replace("demo,languages,2,40,40.0", "demo,languages,1,40,40.0")
    with pytest.raises(ValidationError, match="duplicate position 1"):
        load_typology(write(tmp_path, text))


def test_incomplete_group_is_reported(tmp_path):
    text = "source,unit,order_position,frequency,percentage\ndemo,languages,1,10,100.0\n"
    with pytest.raises(ValidationError, match="covers positions"):
        load_typology(write(tmp_path, text))


def test_bad_row_reports_path_and_line(tmp_path):
    text = GOOD_CSV.replace("demo,languages,2,40,40.0", "demo,languages,2,forty,40.0")
    with pytest.raises(ValidationError, match=r"t\.csv, data row"):
        load_typology(write(tmp_path, text))


def test_row_validation():
    with pytest.raises(ValidationError):
        TypologyRow("s", "u", 4, 1, 1.0)
    with pytest.raises(ValidationError):
        TypologyRow("s", "u", 1, -1, 1.0)
    with pytest.raises(ValidationError):
        TypologyRow("s", "u", 1, 1, 101.0)


def test_zero_total_group_is_rejected():
    rows = [TypologyRow("s", "u", p, 0, 0.0) for p in (1, 2, 3)]
    with pytest.raises(ValidationError, match="zero total"):
        typology_report(rows)
