"""Snippet generation — per-hit highlighted fragment from the body for the
query (the analog of tantivy's SnippetGenerator use at
/root/reference/tantivy-cli/src/commands/serve.rs:443-453,428-433).

Pure function of (content, matched query terms): picks the window of at
most ``window`` whitespace tokens that holds the most matched tokens — a raw
token matches when any of its ``expand_token`` forms is a query term, and
every occurrence counts, so a term repeated twice outscores two distinct
terms once each (earliest such window on ties) — and wraps the matched raw
tokens in <b></b>, mirroring the HTML fragment the reference returns in its
SERP JSON.
"""

from __future__ import annotations

from typing import List, Sequence

from prosearch_ray.text.tokenizer import expand_token


def make_snippet(content: str, terms: Sequence[str], window: int = 24) -> str:
    term_set = set(terms)
    raw = content.split()
    if not raw:
        return ""
    # code bodies repeat many of their tokens: expand each distinct raw
    # token once per call
    hit = {t for t in set(raw) if not term_set.isdisjoint(expand_token(t))}
    n = len(raw)
    w = min(window, n)
    best_start = 0
    if hit:
        matched: List[bool] = [t in hit for t in raw]
        count = best_count = sum(matched[:w])
        for s in range(1, n - w + 1):
            count += matched[s + w - 1] - matched[s - 1]
            if count > best_count:
                best_start, best_count = s, count
    return " ".join(f"<b>{t}</b>" if t in hit else t
                    for t in raw[best_start:best_start + w])
