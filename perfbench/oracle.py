"""Independent tokenization + BM25 oracle.

Re-derived from the rules the program documents, not from its code (this
module imports nothing from ``riot_ray``):

* Code-mode tokenization (``riot_ray/tokenize.py`` module docstring): take
  every ``[A-Za-z0-9_]+`` run of the original text; emit the lowercased
  whole run, then, when splitting it on ``_`` and on camelCase boundaries
  (lower->Upper, an acronym before a TitleCase word, letter<->digit) gives
  more than one part, each distinct lowercased part not equal to the whole.
  A doc's length is the number of emitted tokens; tf counts occurrences.
* riot's float32 BM25 (k1 = 2.0, b = 0.75), every operation rounded to
  float32 left to right: ``idf = f32(log2(N/df + 1))`` (log in float64),
  ``norm = k1 * ((1 - b) + (b * len) / avgdl)``,
  ``term = ((idf * tf) * (k1 + 1)) / (tf + norm)``, summed per query token
  in query-token order (a repeated token counts again).
  ``avgdl = f32(f32(total_len) / f32(N))``.  Hits order by score
  descending, then doc_id ascending.
* Content hashes are ``hashlib.sha256`` hex digests of the UTF-8 content.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from collections import Counter

import numpy as np

K1 = np.float32(2.0)
B = np.float32(0.75)
ONE = np.float32(1.0)

_RUN = re.compile(r"[A-Za-z0-9_]+")
# one part per match: an uppercase run not followed by a lowercase letter
# (acronym), an optionally capitalised lowercase run, or a digit run
_PART = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+|[0-9]+")


def expand(ident: str) -> list[str]:
    whole = ident.lower()
    parts = [p.lower() for chunk in ident.split("_") for p in _PART.findall(chunk)]
    if len(parts) <= 1:
        return [whole]
    out = [whole]
    for p in parts:
        if p not in out:
            out.append(p)
    return out


class Tokenizer:
    """Code-mode tokenizer with a memo of identifier expansions."""

    def __init__(self):
        self._memo: dict[str, list[str]] = {}

    def tokens(self, text: str) -> list[str]:
        memo = self._memo
        out: list[str] = []
        for ident in _RUN.findall(text):
            e = memo.get(ident)
            if e is None:
                e = memo[ident] = expand(ident)
            out.extend(e)
        return out

    def counts(self, text: str) -> tuple[Counter, int]:
        toks = self.tokens(text)
        return Counter(toks), len(toks)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def idf(n_docs: int, df: int) -> np.float32:
    return np.float32(math.log2(float(n_docs) / float(df) + 1.0))


def avgdl(total_len: float, n_docs: int) -> np.float32:
    return np.float32(np.float32(total_len) / np.float32(n_docs))


def term_scores(idf_t, tf: np.ndarray, dl: np.ndarray, avg) -> np.ndarray:
    """float32 BM25 term weight, vectorised over candidate docs."""
    tf = tf.astype(np.float32)
    norm = K1 * ((ONE - B) + (B * dl.astype(np.float32)) / np.float32(avg))
    return ((np.float32(idf_t) * tf) * (K1 + ONE)) / (tf + norm)


class Index:
    """Brute-force inverted index over a set of live docs.

    ``add`` / ``drop`` keep it current under updates.  A dropped doc can
    stay a *ghost*: it still counts toward df, but not toward N or avgdl
    (the program's tombstoned-but-not-compacted docs)."""

    def __init__(self):
        self.tok = Tokenizer()
        self.ids: list[str] = []            # slot -> doc_id
        self.lang: list[str] = []
        self.dl = array("i")
        self.tfs: list[Counter] = []        # slot -> term counts
        self.live = bytearray()             # slot -> 1 if live
        self.ghost = bytearray()            # slot -> 1 if dead but in df
        self.slot: dict[str, int] = {}      # live doc_id -> slot
        self.post: dict[str, tuple] = {}    # term -> (slots, tfs), built on first use
        self.dfc: Counter = Counter()       # term -> docs counted in df
        self.total_len = 0
        self.content_bytes = 0              # UTF-8 bytes of live content
        self.nbytes = array("q")

    def add(self, doc_id: str, content: str, lang: str) -> int:
        """Insert (or replace, keep-last) a doc."""
        if doc_id in self.slot:
            self.drop(doc_id, ghost=False)
        c, dl = self.tok.counts(content)
        s = len(self.ids)
        self.ids.append(doc_id)
        self.lang.append(lang)
        self.tfs.append(c)
        self.dfc.update(c.keys())
        self.dl.append(dl)
        self.nbytes.append(len(content.encode()))
        self.content_bytes += self.nbytes[s]
        self.live.append(1)
        self.ghost.append(0)
        self.slot[doc_id] = s
        for t, p in self.post.items():
            n = c.get(t)
            if n:
                p[0].append(s)
                p[1].append(n)
        self.total_len += dl
        return s

    def drop(self, doc_id: str, ghost: bool) -> None:
        """Take a doc out of the live set; ``ghost`` keeps it in df."""
        s = self.slot.pop(doc_id)
        self.live[s] = 0
        self.total_len -= self.dl[s]
        self.content_bytes -= self.nbytes[s]
        if ghost:
            self.ghost[s] = 1
        else:
            self.dfc.subtract(self.tfs[s].keys())

    def clear_ghosts(self) -> None:
        """Ghosts stop counting toward df (the program compacted)."""
        for s in np.flatnonzero(np.frombuffer(bytes(self.ghost), np.uint8)):
            self.dfc.subtract(self.tfs[int(s)].keys())
        self.ghost = bytearray(len(self.ghost))

    @property
    def n_live(self) -> int:
        return len(self.slot)

    def tf_len(self, doc_id: str) -> tuple[Counter, int]:
        """(term -> tf, token length) of one live doc."""
        s = self.slot[doc_id]
        return self.tfs[s], self.dl[s]

    def _postings(self, term: str) -> tuple:
        p = self.post.get(term)
        if p is None:
            slots = [i for i, c in enumerate(self.tfs) if term in c]
            p = self.post[term] = (array("i", slots),
                                   array("i", [self.tfs[i][term] for i in slots]))
        return p

    def df(self, term: str) -> int:
        return self.dfc.get(term, 0)

    def search(self, text: str, k: int, offset: int = 0, facet_lang: bool = False):
        """Top ``offset .. offset+k`` hits of the AND query as
        [(doc_id, score)], the number of matching docs and lang counts."""
        toks = self.tok.tokens(text)
        if not toks or self.n_live == 0:
            return [], 0, {}
        live = np.frombuffer(bytes(self.live), np.uint8).astype(bool)
        cand = None
        lists = {}
        for t in dict.fromkeys(toks):
            df = self.df(t)
            if df == 0:
                return [], 0, {}
            p = self._postings(t)
            slots = np.frombuffer(p[0], np.int32)
            lists[t] = (slots, np.frombuffer(p[1], np.int32), df)
            s = slots[live[slots]]
            cand = s if cand is None else np.intersect1d(cand, s, assume_unique=True)
        if cand.size == 0:
            return [], 0, {}
        n = self.n_live
        avg = avgdl(float(self.total_len), n)
        dl = np.frombuffer(self.dl, np.int32)[cand]
        score = np.zeros(cand.size, np.float32)
        for t in toks:
            slots, tfs, df = lists[t]
            tf = tfs[np.searchsorted(slots, cand)]
            score = score + term_scores(idf(n, df), tf, dl, avg)
        want = offset + k
        by_score = np.argsort(-score, kind="stable")
        if want < cand.size:
            # everything tied with the last wanted score competes on doc_id
            sel = np.flatnonzero(score >= score[by_score[want - 1]])
        else:
            sel = by_score
        ranked = sorted(((-float(score[j]), self.ids[cand[j]]) for j in sel))
        top = [(d, -ns) for ns, d in ranked[offset: want]]
        facets = dict(Counter(self.lang[i] for i in cand.tolist())) if facet_lang else {}
        return top, int(cand.size), facets

