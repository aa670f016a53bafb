"""Seeded input generator for the benchmark (independent of riot_ray.corpus).

Everything a run feeds the program comes from ``numpy`` generators seeded
with ``--seed``: the source corpus, the update batches and the query
streams, all drawn from one fixed vocabulary.
The program only ever sees the generated Parquet files and request strings.

Corpus rows are ``(repo, path, commit, lang, content, seq)``:

* ``content`` is code-like text over a Zipfian identifier vocabulary.  The
  identifiers are built from pseudo-word stems as plain words, snake_case,
  camelCase, PascalCase, acronym-led and digit-suffixed compounds, so the
  code-mode tokenizer's sub-token expansion does real work.
* A few percent of rows repeat an earlier ``(repo, path, commit)`` with new
  content and a higher ``seq``; keep-last dedup (``EngineOpts.seq_col``)
  must keep the newest one.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ("py", "go", "js", "java", "rs", "c", "ts", "rb")
LANG_P = np.array([0.30, 0.18, 0.15, 0.12, 0.09, 0.07, 0.05, 0.04])
KEYWORDS = ("def", "return", "if", "else", "for", "while", "import", "class",
            "func", "let", "const", "var", "struct", "impl", "pub", "fn",
            "self", "this", "new", "nil", "None", "true", "false", "try")
NUMBERS = np.array([str(i) for i in range(4096)], dtype=object)
SEPS = np.array([" ", "(", ")", ", ", ".", " = ", ": ", "[", "] ", " + ", "->", "; "])
_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "kr",
           "pl", "pr", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "x", "k")

# sizes: stems outnumber the 4096-entry per-shard postings cache twice over,
# so a Zipfian query stream both hits the cache (head) and decodes (tail)
# one vocabulary for every seed: seeds vary the documents, updates and
# queries drawn from it, not the language itself
VOCAB_SEED = 20261018
N_STEMS = 8192
N_IDENTS = 24000
ZIPF_A = 1.07


def zipf_cdf(n: int, a: float = ZIPF_A) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** (-a)
    return np.cumsum(p / p.sum())


def draw(rng: np.random.Generator, cdf: np.ndarray, size=None):
    """Zipf-rank draws by inverse CDF (``rng.choice(p=...)`` rebuilds the
    CDF on every call)."""
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _compose(parts: list, style: int, digit: int) -> str:
    """One identifier from 1-3 stems in one of eight spelling styles."""
    if style == 0 or len(parts) == 1 and style < 4:
        return parts[0]
    if style in (1, 2):
        return "_".join(parts)
    if style == 3:
        return parts[0] + "".join(p.capitalize() for p in parts[1:])
    if style == 4:
        return "".join(p.capitalize() for p in parts)
    if style == 5:
        return parts[0][:3].upper() + "".join(p.capitalize() for p in parts[1:])
    if style == 6:
        return "_".join(parts) + str(digit)
    return "_".join(p.upper() for p in parts)


class Vocab:
    """Stems and identifiers, both in Zipf rank order (rank 0 = hottest)."""

    def __init__(self, rng: np.random.Generator):
        stems: list[str] = []
        seen: set = set()
        while len(stems) < N_STEMS:
            m = 4 * N_STEMS
            k = rng.integers(1, 4, size=m).tolist()
            syl = [
                _ONSETS[o] + _VOWELS[v] + _CODAS[c]
                for o, v, c in zip(rng.integers(len(_ONSETS), size=3 * m).tolist(),
                                   rng.integers(len(_VOWELS), size=3 * m).tolist(),
                                   rng.integers(len(_CODAS), size=3 * m).tolist())
            ]
            for i, ki in enumerate(k):
                w = "".join(syl[3 * i: 3 * i + ki])
                if len(w) >= 3 and w not in seen and w not in KEYWORDS:
                    seen.add(w)
                    stems.append(w)
                    if len(stems) == N_STEMS:
                        break
        self.stems = stems
        self.stem_cdf = zipf_cdf(N_STEMS)
        idents: list[str] = []
        iseen: set = set()
        while len(idents) < N_IDENTS:
            m = 2 * N_IDENTS
            nparts = rng.integers(1, 4, size=m).tolist()
            flat = draw(rng, self.stem_cdf, 3 * m).tolist()
            styles = rng.integers(8, size=m).tolist()
            digits = rng.integers(0, 10, size=m).tolist()
            for i in range(m):
                parts = [stems[j] for j in flat[3 * i: 3 * i + nparts[i]]]
                w = _compose(parts, styles[i], digits[i])
                if w not in iseen:
                    iseen.add(w)
                    idents.append(w)
                    if len(idents) == N_IDENTS:
                        break
        self.idents = np.array(idents, dtype=object)
        self.ident_cdf = zipf_cdf(N_IDENTS)


def _contents(rng: np.random.Generator, vocab: Vocab, lengths: np.ndarray,
              langs: list, markers: list) -> list[str]:
    """Code-like text for many docs at once (one draw per token kind over
    the whole batch, then per-doc joins)."""
    total = int(lengths.sum())
    toks = vocab.idents[draw(rng, vocab.ident_cdf, total)]
    kw = rng.random(total) < 0.12
    toks = np.where(kw, np.array(KEYWORDS, dtype=object)[rng.integers(len(KEYWORDS), size=total)], toks)
    num = rng.random(total) < 0.03
    toks = np.where(num, NUMBERS[rng.integers(len(NUMBERS), size=total)], toks)
    seps = SEPS[rng.integers(len(SEPS), size=total)].astype(object)
    seps = np.where(rng.random(total) < 0.14, "\n    ", seps)
    pieces = (toks + seps).tolist()
    ends = np.cumsum(lengths).tolist()
    out, start = [], 0
    for end, lang, marker in zip(ends, langs, markers):
        head = f"// {lang} source\n" + (f"{marker} = 1\n" if marker else "")
        out.append(head + "".join(pieces[start:end]))
        start = end
    return out


def _table(rows: list) -> pa.Table:
    cols = list(zip(*rows)) if rows else [()] * 6
    return pa.table({
        "repo": pa.array(cols[0], pa.string()),
        "path": pa.array(cols[1], pa.string()),
        "commit": pa.array(cols[2], pa.string()),
        "lang": pa.array(cols[3], pa.string()),
        "content": pa.array(cols[4], pa.string()),
        "seq": pa.array(cols[5], pa.int64()),
    })


class Inputs:
    """All seeded inputs of one run.  ``rng`` streams are split per purpose
    so e.g. the query stream does not shift when the corpus size changes."""

    def __init__(self, seed: int):
        self.seed = seed
        cs, us, qs = np.random.SeedSequence(seed).spawn(3)
        self.vocab = Vocab(np.random.default_rng(VOCAB_SEED))
        self._corpus_rng = np.random.default_rng(cs)
        self._update_rng = np.random.default_rng(us)
        self._query_rng = np.random.default_rng(qs)
        self._next_id = 0
        self._next_seq = 0

    def _rows(self, rng, n: int, idents=None, markers=None) -> list:
        first = self._next_id
        self._next_id += n
        seq0 = self._next_seq
        self._next_seq += n
        v = self.vocab
        if idents is None:
            orgs = rng.integers(40, size=n).tolist()
            rstem = rng.integers(N_STEMS, size=n).tolist()
            pstem = rng.integers(N_STEMS, size=n).tolist()
            idents = [
                (f"org{o}/{v.stems[r]}", f"src/{v.stems[p]}/file_{first + i}",
                 hashlib.sha1(f"{self.seed}:{first + i}".encode()).hexdigest())
                for i, (o, r, p) in enumerate(zip(orgs, rstem, pstem))
            ]
        markers = markers or [None] * n
        langs = [LANGS[i] for i in rng.choice(len(LANGS), size=n, p=LANG_P)]
        lengths = np.clip(rng.lognormal(4.6, 0.55, size=n), 12, 600).astype(np.int64)
        contents = _contents(rng, v, lengths, langs, markers)
        return [(*ident, lang, c, seq0 + i)
                for i, (ident, lang, c) in enumerate(zip(idents, langs, contents))]

    def corpus(self, n_docs: int, dup_frac: float = 0.03) -> pa.Table:
        """``n_docs`` distinct docs plus ``dup_frac`` re-versions of
        earlier ones, in shuffled row order (``seq`` decides keep-last)."""
        rng = self._corpus_rng
        rows = self._rows(rng, n_docs)
        dup_of = rng.choice(n_docs, size=int(n_docs * dup_frac), replace=False)
        rows += self._rows(rng, len(dup_of), idents=[rows[int(j)][:3] for j in dup_of])
        order = rng.permutation(len(rows))
        return _table([rows[int(k)] for k in order])

    def update_batch(self, n_new: int, replace_ids: list) -> pa.Table:
        """``n_new`` new docs plus one new version of each ``(repo, path,
        commit)`` in ``replace_ids``.  Every doc carries a unique marker
        identifier so an oracle can find it by a rare term."""
        rng = self._update_rng
        rows = self._rows(rng, n_new, markers=[
            f"upd_{self.seed}_{self._next_id + i}_mark" for i in range(n_new)])
        if replace_ids:
            rows += self._rows(rng, len(replace_ids), idents=list(replace_ids), markers=[
                f"upd_{self.seed}_{self._next_id + i}_mark" for i in range(len(replace_ids))])
        return _table(rows)

    def pick(self, n: int, k: int) -> np.ndarray:
        """k distinct indices below n from the update stream."""
        return self._update_rng.choice(n, size=min(k, n), replace=False)

    def query_texts(self, n: int) -> list[str]:
        """1-3-term queries: mostly Zipfian stems, some whole identifiers
        (which the code tokenizer expands into several tokens)."""
        rng = self._query_rng
        v = self.vocab
        nterms = rng.choice([1, 2, 3], size=n, p=[0.35, 0.45, 0.20])
        out = []
        for k in nterms:
            terms = []
            for _ in range(int(k)):
                if rng.random() < 0.2:
                    terms.append(str(v.idents[draw(rng, v.ident_cdf)]))
                else:
                    terms.append(v.stems[draw(rng, v.stem_cdf)])
            out.append(" ".join(terms))
        return out

    def query_mix(self, n: int) -> list[dict]:
        """HTTP request parameters: 20% ask for lang facets, 15% page two."""
        rng = self._query_rng
        texts = self.query_texts(n)
        reqs = []
        for t in texts:
            r = {"query": t, "maxOutputs": 10, "outputOffset": 0}
            u = rng.random()
            if u < 0.20:
                r["facets"] = "lang"
            elif u < 0.35:
                r["outputOffset"] = 10
            reqs.append(r)
        return reqs


def write(table: pa.Table, path: str) -> str:
    pq.write_table(table, path)
    return path


def keep_last(table: pa.Table) -> dict:
    """doc_id -> (content, lang) of the highest-``seq`` row per doc_id."""
    cols = [table[c].to_pylist() for c in ("repo", "path", "commit", "lang", "content", "seq")]
    best: dict = {}
    for repo, path, commit, lang, content, seq in zip(*cols):
        d = f"{repo}/{path}@{commit}"
        if d not in best or seq > best[d][0]:
            best[d] = (seq, content, lang)
    return {d: (c, lang) for d, (_, c, lang) in best.items()}
