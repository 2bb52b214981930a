"""Case-report corpus construction: regex section extraction, noise filters,
and figure-caption pairing into image-text pairs.

Input is one JSON object per line with article_id, sections, and figures;
figures reference image tensor files on disk.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .textio import read_jsonl, read_text, write_jsonl

DEFAULT_PATTERNS = [
    r"case report",
    r"case presentation",
    r"case description",
    r"patient presentation",
    r"clinical case",
]

MIN_CHARS = 200
MAX_NONALPHA_FRACTION = 0.5


@dataclass
class ArticleDocument:
    article_id: str
    sections: list[tuple[str, str]]
    figures: list[tuple[str, str, str]]  # (figure_id, caption, image_ref)


@dataclass
class PatientNote:
    article_id: str
    heading: str
    text: str


@dataclass
class ImageTextPair:
    pair_id: int
    article_id: str
    caption: str
    image_ref: str
    source_tag: str = "OTHER"

    def __post_init__(self):
        if not 0 <= self.pair_id < 2**64:   # an index stores pair ids as uint64
            raise ValueError(f"pair_id {self.pair_id} is outside [0, 2**64)")


@dataclass
class PipelineReport:
    articles_seen: int = 0
    articles_failed: int = 0
    notes_extracted: int = 0
    notes_kept: int = 0
    pairs_emitted: int = 0
    errors: list[str] = field(default_factory=list)

    def as_text(self) -> str:
        lines = [
            f"articles seen     {self.articles_seen}",
            f"articles failed   {self.articles_failed}",
            f"notes extracted   {self.notes_extracted}",
            f"notes kept        {self.notes_kept}",
            f"pairs emitted     {self.pairs_emitted}",
        ]
        return "\n".join(lines) + "\n"


def compile_patterns(patterns: list[str] | None = None) -> list[re.Pattern]:
    try:
        return [re.compile(p, re.IGNORECASE) for p in (patterns or DEFAULT_PATTERNS)]
    except re.error as exc:
        raise ConfigError(f"pattern {exc.pattern!r} is not a regex: {exc}") from None


def pair_id_for(article_id: str, figure_id: str) -> int:
    """Stable 64-bit id from (article, figure); unique per corpus in practice."""
    digest = hashlib.blake2b(f"{article_id}/{figure_id}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def extract_case_sections(doc: ArticleDocument,
                          patterns: list[re.Pattern]) -> list[PatientNote]:
    """Sections whose heading matches any pattern yield patient notes."""
    notes = []
    for heading, body in doc.sections:
        if any(p.search(heading) for p in patterns):
            notes.append(PatientNote(doc.article_id, heading, body))
    return notes


def filter_notes(notes: list[PatientNote], min_chars: int = MIN_CHARS) -> list[PatientNote]:
    """Drop short notes, mostly non-alphabetic notes, and exact duplicates."""
    kept = []
    seen_texts: set[str] = set()
    for note in notes:
        text = note.text.strip()
        if len(text) < min_chars:
            continue
        nonalpha = sum(1 for ch in text if not ch.isalpha())
        if nonalpha / max(len(text), 1) > MAX_NONALPHA_FRACTION:
            continue
        if text in seen_texts:
            continue
        seen_texts.add(text)
        kept.append(PatientNote(note.article_id, note.heading, text))
    return kept


def pair_figures(doc: ArticleDocument,
                 surviving_notes: list[PatientNote]) -> list[ImageTextPair]:
    """Every captioned figure of an article with >= 1 surviving note pairs up."""
    if not any(n.article_id == doc.article_id for n in surviving_notes):
        return []
    pairs = []
    for figure_id, caption, image_ref in doc.figures:
        if not caption.strip():
            continue
        pairs.append(ImageTextPair(
            pair_id=pair_id_for(doc.article_id, figure_id),
            article_id=doc.article_id,
            # one line: the index's caption sidecar is newline-separated
            caption=" ".join(caption.split()),
            image_ref=image_ref,
            source_tag="PMCPM",
        ))
    return pairs


def read_articles_jsonl(path, report: PipelineReport) -> list[ArticleDocument]:
    docs = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        report.articles_seen += 1
        try:
            obj = json.loads(line)
            doc = ArticleDocument(
                article_id=str(obj["article_id"]),
                sections=[(s["heading"], s["body"]) for s in obj["sections"]],
                figures=[(f["figure_id"], f["caption"], f["image_ref"])
                         for f in obj.get("figures", [])],
            )
            if not doc.article_id:
                raise ValueError("empty article_id")
            fig_ids = [f[0] for f in doc.figures]
            if len(fig_ids) != len(set(fig_ids)):
                raise ValueError("duplicate figure ids")
            docs.append(doc)
        except Exception as exc:  # malformed document: record, keep going
            report.articles_failed += 1
            report.errors.append(f"{path}:{lineno}: {exc}")
    return docs


def read_pairs_jsonl(path) -> list[ImageTextPair]:
    return read_jsonl(path, ImageTextPair)


def emit_corpus(pairs: list[ImageTextPair], out_dir, report: PipelineReport) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.pairs_emitted = len(pairs)
    write_jsonl(out_dir / "pairs.jsonl", pairs)
    (out_dir / "report.txt").write_text(report.as_text(), encoding="utf-8")
    return out_dir / "pairs.jsonl"


def run_harvest(in_dir, out_dir, patterns: list[str] | None = None,
                min_chars: int = MIN_CHARS) -> PipelineReport:
    """End to end: read article JSONL files, extract, filter, pair, emit.

    Deterministic and order-preserving over input files (sorted by name)
    and documents (file order).
    """
    compiled = compile_patterns(patterns)
    report = PipelineReport()
    all_pairs: list[ImageTextPair] = []
    for path in sorted(Path(in_dir).glob("*.jsonl")):
        for doc in read_articles_jsonl(path, report):
            notes = extract_case_sections(doc, compiled)
            report.notes_extracted += len(notes)
            kept = filter_notes(notes, min_chars=min_chars)
            report.notes_kept += len(kept)
            all_pairs.extend(pair_figures(doc, kept))
    emit_corpus(all_pairs, out_dir, report)
    return report
