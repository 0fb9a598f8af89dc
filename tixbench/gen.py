"""Seeded input generators for the four workloads (README.md).

Everything here is a pure function of its arguments and the seed, so a
run is reproducible from ``--seed`` alone. The corpus itself is fixed
(CORPUS_ARTICLES articles, CORPUS_SEED) and cached; the workload seed
chooses the query sequences, the ingested documents and the hot set.
"""

import bisect
import math
import random

CORPUS_ARTICLES = 3000
CORPUS_SEED = 42
HOT_SET_DOCS = 300
PLANTED_SWEEP = (100, 10000)   # postings of the Table 1 sweep terms used
BACKGROUND_MIN_POSTINGS = 100
BACKGROUND_BUCKETS = 4
ZIPF_S = 1.1                   # skew of ingest_live's repeated queries

# The query that times set-up: corpus-wide top-K over one planted term.
# The generators never emit it, so the result cache cannot carry it
# into a measured sequence.
SETUP_QUERY = ('FOR $a IN document("*")//* SCORE $a USING foo({"xt1f1000"}) '
               'THRESHOLD STOP AFTER 10 RETURN $a')


class Terms:
    """Posting counts per term, from the corpus build's terms.tsv."""

    def __init__(self, postings):
        self.postings = dict(postings)
        background = sorted((n, t) for t, n in self.postings.items()
                            if t.startswith("w") and n >= BACKGROUND_MIN_POSTINGS)
        self.background_counts = [n for n, _ in background]
        self.background_terms = [t for _, t in background]
        lo, hi = PLANTED_SWEEP
        self.sweep = sorted(t for t, n in self.postings.items()
                            if t.startswith("xt") and lo <= n <= hi * 1.01)
        self.planted = sorted(t for t in self.postings if t.startswith("x"))
        self.phrases = sorted((t, t[:-1] + "b") for t in self.postings
                              if t.startswith("xq") and t.endswith("a")
                              and t[:-1] + "b" in self.postings)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
        return cls((term, int(n)) for term, n in rows)

    def background_in_bucket(self, rng, bucket):
        """A background word whose posting count is log-uniform within
        the bucket-th of BACKGROUND_BUCKETS equal slices of the log range."""
        lo = math.log(self.background_counts[0])
        width = (math.log(self.background_counts[-1]) - lo) / BACKGROUND_BUCKETS
        target = math.exp(lo + width * (bucket + rng.random()))
        i = min(bisect.bisect_left(self.background_counts, target),
                len(self.background_counts) - 1)
        return self.background_terms[i]


class Deck:
    """Draws items in seeded shuffled rounds, each item once per round.

    Stratifies the generators: every run sees nearly the same mix of
    query shapes and posting-list sizes, and the seed picks only which
    terms fill them, so run-to-run spread reflects the system, not the
    luck of the draw.
    """

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pending = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _phrase_list(items):
    return "{" + ", ".join(f'"{item}"' for item in items) + "}"


def _score_clause(scorer, items):
    """Splits 1-3 phrases into the primary and desirable sets."""
    split = max(1, (len(items) + 1) // 2)
    primary, desirable = items[:split], items[split:]
    args = _phrase_list(primary)
    if desirable:
        args += ", " + _phrase_list(desirable)
    return f"SCORE $a USING {scorer}({args})"


def topk_maker(rng, terms, scorers):
    """Corpus-wide top-K queries eligible for pushdown, scored by one of
    `scorers`: 1-3 terms or two-word phrases, half planted sweep terms and
    half background words log-uniform in posting count."""
    shapes = Deck(rng, [(k, scorer, n) for k in (1, 10, 100) for scorer in scorers
                        for n in (1, 2, 3)])
    kinds = Deck(rng, ["sweep"] * 3 + ["background"] * 3
                 + ["planted phrase", "background phrase"])
    sweep = Deck(rng, terms.sweep)
    buckets = Deck(rng, range(BACKGROUND_BUCKETS))
    phrases = Deck(rng, terms.phrases)

    def background():
        return terms.background_in_bucket(rng, buckets.draw())

    def make():
        k, scorer, n = shapes.draw()
        items = []
        for _ in range(n):
            kind = kinds.draw()
            if kind == "sweep":
                items.append(sweep.draw())
            elif kind == "background":
                items.append(background())
            elif kind == "planted phrase":
                items.append(" ".join(phrases.draw()))
            else:
                items.append(background() + " " + background())
        return (f'FOR $a IN document("*")//* {_score_clause(scorer, items)} '
                f"THRESHOLD STOP AFTER {k} RETURN $a")
    return make


def hot_set(seed):
    """Names of the article documents per-document queries scope to."""
    rng = random.Random(f"hot-{seed}")
    docs = sorted(rng.sample(range(CORPUS_ARTICLES), HOT_SET_DOCS))
    return [f"article{i}.xml" for i in docs]


def pick_maker(rng, terms, hot):
    """Pick queries ineligible for pushdown (complex scorers, Pick,
    multi-step paths) over planted terms, each scoped to a hot document.

    The paths end in //*: Pick chooses among an element and its scored
    descendants, so a path ending in a named tag (//article//sec) leaves
    it nothing to choose from and every answer would be empty.

    Every query is scoped: a corpus-wide Pick query costs about ten
    scoped ones, and a mix of the two splits the latencies into two
    humps whose median and tail jump with the share of each."""
    shapes = Deck(rng, [(scorer, criterion, path)
                        for scorer in ("complexfoo", "bm25")
                        for criterion in ("pickfoo", "parity", "topfraction")
                        for path in ("//article//*", "//sec//*")])
    counts = Deck(rng, (1, 2))
    planted = Deck(rng, terms.planted)
    ks = Deck(rng, (5, 10, 20))

    def make():
        scorer, criterion, path = shapes.draw()
        doc = rng.choice(hot)
        items = [planted.draw() for _ in range(counts.draw())]
        threshold = rng.randrange(10, 95, 5) / 100
        fraction = rng.randrange(10, 95, 5) / 100
        return (f'FOR $a IN document("{doc}"){path} {_score_clause(scorer, items)} '
                f"PICK $a USING {criterion}({threshold:.2f}, {fraction:.2f}) "
                f"THRESHOLD STOP AFTER {ks.draw()} RETURN $a")
    return make


def live_maker(rng, terms, hot):
    """ingest_live's query pool: corpus-wide top-K and per-document
    queries. Only foo and complexfoo, which use no collection statistics,
    and only corpus terms, which ingested documents never contain: the
    answers stay those of the seeded corpus while documents come and go."""
    shapes = Deck(rng, [("*", "foo", 1), ("*", "foo", 10), ("doc", "foo", 10),
                        ("doc", "complexfoo", 10)])
    counts = Deck(rng, (1, 2))
    planted = Deck(rng, terms.planted)

    def make():
        scope, scorer, k = shapes.draw()
        items = [planted.draw() for _ in range(counts.draw())]
        if scope == "*":
            return (f'FOR $a IN document("*")//* {_score_clause(scorer, items)} '
                    f"THRESHOLD STOP AFTER {k} RETURN $a")
        return (f'FOR $a IN document("{rng.choice(hot)}")//article//* '
                f"{_score_clause(scorer, items)} THRESHOLD STOP AFTER {k} RETURN $a")
    return make


def distinct_sequences(maker, seed, stream, connections, length, taken):
    """`connections` sequences of `length` queries, none in `taken`.

    `maker(rng)` returns one connection's query factory. Adds every
    emitted query to `taken`, so a warm-up stream drawn first can never
    share query text with the measured stream drawn after it.
    """
    sequences = []
    for c in range(connections):
        rng = random.Random(f"{stream}-{seed}-{c}")
        make = maker(rng)
        sequence = []
        while len(sequence) < length:
            query = make()
            if query not in taken:
                taken.add(query)
                sequence.append(query)
        sequences.append(sequence)
    return sequences


def zipf_sequence(rng, pool, length):
    """`length` draws from `pool` with Zipf(ZIPF_S) rank weights (repeats)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=length)


def live_document(seed, i):
    """(name, xml, marker) of the i-th ingested document.

    Its words come from a vocabulary ("v" words) disjoint from the seeded
    corpus, and its title carries a unique marker the final check looks
    for.
    """
    rng = random.Random(f"doc-{seed}-{i}")
    marker = f"live{seed}m{i}"

    def words(n):
        return " ".join(f"v{min(int(rng.paretovariate(1.0)), 5000):04d}"
                        for _ in range(n))

    sections = []
    for _ in range(rng.randint(2, 5)):
        paragraphs = "".join(f"<p>{words(rng.randint(20, 80))}</p>"
                             for _ in range(rng.randint(2, 6)))
        sections.append(f"<sec><st>{words(3)}</st>{paragraphs}</sec>")
    xml = (f"<article><fm><atl>{marker} {words(4)}</atl></fm>"
           f"<bdy>{''.join(sections)}</bdy></article>")
    return f"live-{seed}-{i}.xml", xml, marker


def ingest_plan(seed, count):
    """The open-loop op stream: ("ingest", i) with one ("delete", i) per
    ten ingests, deleting a seeded earlier ingest that is still live."""
    rng = random.Random(f"plan-{seed}")
    plan, live = [], []
    ingested = 0
    while len(plan) < count:
        if ingested > 0 and ingested % 10 == 0 and plan[-1][0] == "ingest":
            victim = live.pop(rng.randrange(len(live)))
            plan.append(("delete", victim))
        else:
            plan.append(("ingest", ingested))
            live.append(ingested)
            ingested += 1
    return plan
