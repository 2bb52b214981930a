"""Corpus extraction pipeline: goldens, filters, idempotence."""

import json

import numpy as np
import pytest

from ramm.corpus import (
    ArticleDocument, PatientNote, PipelineReport, compile_patterns,
    extract_case_sections, filter_notes, pair_figures, pair_id_for,
    read_pairs_jsonl, run_harvest,
)

LONG = ("the patient presented with a three day history of chest pain and "
        "shortness of breath, and examination revealed decreased breath "
        "sounds at the right base with dullness to percussion. imaging "
        "confirmed a moderate right pleural effusion.")


def _doc(article_id="A1"):
    return ArticleDocument(
        article_id=article_id,
        sections=[
            ("Introduction", "background text " * 30),
            ("Case Report", LONG),
            ("CASE PRESENTATION", LONG + " further details of the clinical course."),
            ("Discussion", "discussion text " * 30),
        ],
        figures=[
            ("f1", "chest radiograph showing right pleural effusion", "img/a1_f1.ten"),
            ("f2", "  ", "img/a1_f2.ten"),
            ("f3", "follow-up radiograph after drainage", "img/a1_f3.ten"),
        ],
    )


def test_extract_matches_case_headings():
    notes = extract_case_sections(_doc(), compile_patterns())
    assert [n.heading for n in notes] == ["Case Report", "CASE PRESENTATION"]


def test_extract_custom_patterns():
    notes = extract_case_sections(_doc(), compile_patterns(["discussion"]))
    assert [n.heading for n in notes] == ["Discussion"]


def test_filter_drops_short_nonalpha_and_duplicates():
    notes = [
        PatientNote("A1", "Case Report", "too short"),
        PatientNote("A1", "Case Report", "1 2 3 4 5 " * 40),
        PatientNote("A1", "Case Report", LONG),
        PatientNote("A1", "Case Report", LONG),  # exact duplicate
    ]
    kept = filter_notes(notes)
    assert len(kept) == 1
    assert kept[0].text == LONG


def test_pair_figures_goldens():
    doc = _doc()
    kept = filter_notes(extract_case_sections(doc, compile_patterns()))
    pairs = pair_figures(doc, kept)
    # empty caption f2 is dropped, f1 and f3 kept in document order
    assert [p.image_ref for p in pairs] == ["img/a1_f1.ten", "img/a1_f3.ten"]
    assert pairs[0].pair_id == pair_id_for("A1", "f1")
    assert pairs[0].caption == "chest radiograph showing right pleural effusion"


def test_pair_figures_requires_surviving_note():
    doc = _doc()
    assert pair_figures(doc, []) == []
    other = [PatientNote("A2", "Case Report", LONG)]
    assert pair_figures(doc, other) == []


def test_pair_id_is_stable_and_distinct():
    assert pair_id_for("A1", "f1") == pair_id_for("A1", "f1")
    assert pair_id_for("A1", "f1") != pair_id_for("A1", "f2")
    assert pair_id_for("A1", "f1") != pair_id_for("A2", "f1")
    assert 0 <= pair_id_for("A1", "f1") < 2**64


def _write_articles(path, docs):
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(json.dumps({
                "article_id": doc.article_id,
                "sections": [{"heading": h, "body": b} for h, b in doc.sections],
                "figures": [{"figure_id": i, "caption": c, "image_ref": r}
                            for i, c, r in doc.figures],
            }) + "\n")


def test_run_harvest_end_to_end(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    _write_articles(in_dir / "b.jsonl", [_doc("A2")])
    _write_articles(in_dir / "a.jsonl", [_doc("A1")])
    # one malformed line in the middle of a file
    with open(in_dir / "a.jsonl", "a", encoding="utf-8") as f:
        f.write("{not json\n")
        f.write(json.dumps({"article_id": "A3", "sections": []}) + "\n")

    out = tmp_path / "out"
    report = run_harvest(in_dir, out)
    assert report.articles_seen == 4
    assert report.articles_failed == 1
    assert report.notes_kept == 4
    assert report.pairs_emitted == 4
    assert len(report.errors) == 1

    pairs = read_pairs_jsonl(out / "pairs.jsonl")
    # sorted file order: a.jsonl (A1) before b.jsonl (A2)
    assert [p.article_id for p in pairs] == ["A1", "A1", "A2", "A2"]
    assert (out / "report.txt").read_text().startswith("articles seen")


def test_run_harvest_idempotent(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    _write_articles(in_dir / "a.jsonl", [_doc("A1"), _doc("A2")])
    out = tmp_path / "out"
    run_harvest(in_dir, out)
    first = (out / "pairs.jsonl").read_bytes()
    run_harvest(in_dir, out)
    assert (out / "pairs.jsonl").read_bytes() == first


def test_read_articles_rejects_duplicate_figures(tmp_path):
    doc = _doc()
    doc.figures.append(("f1", "duplicate id", "img/x.ten"))
    _write_articles(tmp_path / "a.jsonl", [doc])
    report = run_harvest(tmp_path, tmp_path / "out")
    assert report.articles_failed == 1
    assert report.pairs_emitted == 0


def test_multiline_caption_survives_harvest_and_index(tmp_path):
    """A harvested caption that spans lines reaches the index as one line
    and round-trips through save_index/load_index exactly."""
    from ramm.model import Vocab
    from ramm.store import build_store, load_index, save_index

    from conftest import micro_config, micro_params

    doc = _doc()
    doc.figures[0] = ("f1", "  chest radiograph\nshowing right\r\n\tpleural effusion ",
                      "img/a1_f1.ten")
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    _write_articles(in_dir / "a.jsonl", [doc])
    run_harvest(in_dir, tmp_path / "out")
    pairs = read_pairs_jsonl(tmp_path / "out" / "pairs.jsonl")
    assert pairs[0].caption == "chest radiograph showing right pleural effusion"

    cfg = micro_config()
    patches = np.ones((cfg.n_patches, cfg.d_patch))
    index, _ = build_store(pairs, micro_params(cfg), cfg, Vocab(["chest"]),
                           lambda ref: patches)
    save_index(index, tmp_path / "i.idx")
    back = load_index(tmp_path / "i.idx")
    assert back.captions == [p.caption for p in pairs]
    assert back.checksum() == index.checksum()
