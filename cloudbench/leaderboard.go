package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"recordlayer"
	"recordlayer/internal/cursor"
	"recordlayer/internal/fdb"
	"recordlayer/internal/index"
	"recordlayer/internal/keyexpr"
	"recordlayer/internal/message"
	"recordlayer/internal/metadata"
	"recordlayer/internal/tuple"
	gen "recordlayer/internal/workload"
)

const (
	rankIndex = "by_score" // RANK on score
	textIndex = "bio_text" // TEXT on bio
	bioTokens = 12         // tokens per player bio
	pageSize  = 10         // leaderboard page size
)

// player is the model's copy of one record.
type player struct {
	id    int64
	score int64
	bio   string
}

// rankKey orders players the way the RANK index does: by score, then by
// primary key.
type rankKey struct{ score, id int64 }

func (a rankKey) less(b rankKey) bool {
	return a.score < b.score || a.score == b.score && a.id < b.id
}

// game is the model of one game tenant.
type game struct {
	id      int64
	key     string
	players []*player // indexed by player id
	ranked  []rankKey // every player, in rank order
	// postings maps token → player id → token positions in the bio.
	postings map[string]map[int64][]int
}

func (g *game) rank(k rankKey) int {
	return sort.Search(len(g.ranked), func(i int) bool { return !g.ranked[i].less(k) })
}

// set installs p in the model, replacing the player with the same id.
func (g *game) set(p *player) {
	if p.id < int64(len(g.players)) {
		old := g.players[p.id]
		i := g.rank(rankKey{old.score, old.id})
		g.ranked = append(g.ranked[:i], g.ranked[i+1:]...)
		g.index(old, false)
		g.players[p.id] = p
	} else {
		g.players = append(g.players, p)
	}
	k := rankKey{p.score, p.id}
	i := g.rank(k)
	g.ranked = append(g.ranked, rankKey{})
	copy(g.ranked[i+1:], g.ranked[i:])
	g.ranked[i] = k
	g.index(p, true)
}

// index adds or removes p's bio tokens from the postings.
func (g *game) index(p *player, add bool) {
	for pos, tok := range strings.Fields(p.bio) {
		ps := g.postings[tok]
		if add {
			if ps == nil {
				ps = map[int64][]int{}
				g.postings[tok] = ps
			}
			ps[p.id] = append(ps[p.id], pos)
			continue
		}
		delete(ps, p.id)
		if len(ps) == 0 {
			delete(g.postings, tok)
		}
	}
}

// matches lists, in id order, the players whose bio holds every token
// (phrase: the two tokens adjacent and in order).
func (g *game) matches(tokens []string, phrase bool) []int64 {
	var out []int64
	for id, pos0 := range g.postings[tokens[0]] {
		ok := true
		if len(tokens) == 2 {
			pos1, has := g.postings[tokens[1]][id]
			ok = has
			if has && phrase {
				ok = false
				for _, p := range pos0 {
					for _, q := range pos1 {
						ok = ok || q == p+1
					}
				}
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// leaderboard is a few large game tenants with a RANK index on score and a
// TEXT index on a bio drawn from the Table 2 vocabulary.
type leaderboard struct {
	e       *env
	desc    *message.Descriptor
	rng     *rand.Rand
	kinds   *deck
	games   []*game
	tokens  []string // Zipf-distributed token stream bios and queries draw from
	live    int64
	written int64
}

func newLeaderboard(ctx context.Context, seed int64, sz sizes) (workload, error) {
	desc, err := message.NewDescriptor("Player",
		message.Field("id", 1, message.TypeInt64),
		message.Field("score", 2, message.TypeInt64),
		message.Field("bio", 3, message.TypeString),
	)
	if err != nil {
		return nil, err
	}
	md, err := metadata.NewBuilder(1).
		AddRecordType(desc, keyexpr.Field("id")).
		AddIndex(&metadata.Index{Name: rankIndex, Type: metadata.IndexRank,
			Expression: keyexpr.Field("score")}, "Player").
		AddIndex(&metadata.Index{Name: textIndex, Type: metadata.IndexText,
			Expression: keyexpr.Field("bio")}, "Player").
		Build()
	if err != nil {
		return nil, err
	}
	e, err := newEnv(md, "games")
	if err != nil {
		return nil, err
	}
	w := &leaderboard{e: e, desc: desc, rng: rand.New(rand.NewSource(seed))}
	for _, d := range gen.Corpus(40, seed) {
		w.tokens = append(w.tokens, strings.Fields(d.Text)...)
	}
	for i := 0; i < sz.tenants; i++ {
		g := &game{id: int64(i), key: "game-" + strconv.Itoa(i), postings: map[string]map[int64][]int{}}
		w.games = append(w.games, g)
		for done := 0; done < sz.records; done += batchRecords {
			batch := make([]*player, min(batchRecords, sz.records-done))
			for j := range batch {
				batch[j] = &player{id: int64(done + j), score: w.rng.Int63n(1_000_000), bio: w.bio()}
			}
			if _, err := w.save(ctx, g, batch); err != nil {
				return nil, fmt.Errorf("populate %s: %w", g.key, err)
			}
		}
	}
	w.written = 0
	w.kinds = newDeck(w.rng, 5, 3, 2)
	return w, nil
}

func (w *leaderboard) env() *env           { return w.e }
func (w *leaderboard) liveBytes() int64    { return w.live }
func (w *leaderboard) writtenBytes() int64 { return w.written }

func (w *leaderboard) bio() string {
	off := w.rng.Intn(len(w.tokens) - bioTokens)
	return strings.Join(w.tokens[off:off+bioTokens], " ")
}

func (w *leaderboard) game() *game { return w.games[w.rng.Intn(len(w.games))] }

func playerPayload(p *player) int64 { return int64(len(p.bio)) + 16 }

// save commits players in one transaction and applies them to the model once
// the commit succeeds.
func (w *leaderboard) save(ctx context.Context, g *game, ps []*player) (sample, error) {
	msgs := make([]*message.Message, len(ps))
	for i, p := range ps {
		msgs[i] = message.New(w.desc).MustSet("id", p.id).MustSet("score", p.score).MustSet("bio", p.bio)
	}
	s, err := w.e.do(ctx, g.key, true, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := w.e.open(ctx, tr, g.id)
		if err != nil {
			return nil, err
		}
		return nil, w.e.save(tr, store, msgs)
	})
	if err != nil {
		return s, err
	}
	for _, p := range ps {
		if p.id < int64(len(g.players)) {
			w.live -= playerPayload(g.players[p.id])
		}
		g.set(p)
		w.live += playerPayload(p)
		w.written += playerPayload(p)
	}
	return s, nil
}

func (w *leaderboard) step(ctx context.Context) (sample, error) {
	g := w.game()
	switch w.kinds.deal() {
	case 0:
		old := g.players[w.rng.Intn(len(g.players))]
		score := max(0, old.score+w.rng.Int63n(20_001)-5_000)
		return w.save(ctx, g, []*player{{id: old.id, score: score, bio: w.bio()}})
	case 1:
		return w.rankLookup(ctx, g)
	default:
		return w.textQuery(ctx, g)
	}
}

// rankLookup loads a player, asks its rank, and reads the leaderboard page
// that starts five places above the player.
func (w *leaderboard) rankLookup(ctx context.Context, g *game) (sample, error) {
	p := g.players[w.rng.Intn(len(g.players))]
	want := g.rank(rankKey{p.score, p.id})
	start := int64(max(0, min(want-pageSize/2, len(g.ranked)-pageSize)))
	var rec *recordlayer.Record
	var rank int64
	var found bool
	var page []index.Entry
	s, err := w.e.do(ctx, g.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := w.e.open(ctx, tr, g.id)
		if err != nil {
			return nil, err
		}
		if rec, err = w.e.load(tr, store, tuple.Tuple{p.id}); err != nil {
			return nil, err
		}
		m := w.e.begin(tr)
		defer w.e.end(m, tr, spanRank, 1)
		if rank, found, err = store.Rank(rankIndex, tuple.Tuple{p.score}, tuple.Tuple{p.id}); err != nil {
			return nil, err
		}
		c, err := store.ScanByRank(rankIndex, start, index.ScanOptions{})
		if err != nil {
			return nil, err
		}
		page, _, _, err = cursor.Collect(cursor.Limit(c, pageSize))
		return nil, err
	})
	if err != nil {
		return s, err
	}
	if rec == nil || i64(rec.Message, "score") != p.score || str(rec.Message, "bio") != p.bio {
		return s, mismatchf("player %d differs from the model", p.id)
	}
	if !found || rank != int64(want) {
		return s, mismatchf("player %d has rank %d, model has %d", p.id, rank, want)
	}
	return s, checkPage(g, page, start, pageSize)
}

// checkPage compares up to n index entries from rank start on with the model.
func checkPage(g *game, page []index.Entry, start int64, n int) error {
	want := g.ranked[start:min(len(g.ranked), int(start)+n)]
	if len(page) != len(want) {
		return mismatchf("page at rank %d has %d entries, want %d", start, len(page), len(want))
	}
	for i, e := range page {
		if len(e.Key) != 1 || len(e.PrimaryKey) != 1 || e.Key[0] != want[i].score || e.PrimaryKey[0] != want[i].id {
			return mismatchf("rank %d is %v/%v, model has %v", start+int64(i), e.Key, e.PrimaryKey, want[i])
		}
	}
	return nil
}

// textQuery searches bios for two tokens drawn from the Zipf stream: half
// the queries want both anywhere in the bio, half want them as a phrase.
func (w *leaderboard) textQuery(ctx context.Context, g *game) (sample, error) {
	phrase := w.rng.Intn(2) == 0
	var tokens []string
	if phrase {
		off := w.rng.Intn(len(w.tokens) - 1)
		tokens = w.tokens[off : off+2]
	} else {
		tokens = []string{w.tokens[w.rng.Intn(len(w.tokens))], w.tokens[w.rng.Intn(len(w.tokens))]}
	}
	var got []tuple.Tuple
	s, err := w.e.do(ctx, g.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
		store, err := w.e.open(ctx, tr, g.id)
		if err != nil {
			return nil, err
		}
		m := w.e.begin(tr)
		if phrase {
			got, err = store.TextSearchPhrase(textIndex, tokens[0]+" "+tokens[1])
		} else {
			got, err = store.TextSearchAll(textIndex, tokens, 0)
		}
		w.e.end(m, tr, spanText, len(got))
		return nil, err
	})
	if err != nil {
		return s, err
	}
	want := g.matches(tokens, phrase)
	if len(got) != len(want) {
		return s, mismatchf("text search %q returned %d hits, model has %d", tokens, len(got), len(want))
	}
	for i, pk := range got {
		if len(pk) != 1 || pk[0] != want[i] {
			return s, mismatchf("text search %q hit %d is %v, model has %d", tokens, i, pk, want[i])
		}
	}
	return s, nil
}

// audit compares every game with the model: all records, the whole rank
// order, and the postings of a sample of tokens.
func (w *leaderboard) audit(ctx context.Context) error {
	for _, g := range w.games {
		var ranked []index.Entry
		probes := make([]string, 20)
		for i := range probes {
			probes[i] = w.tokens[w.rng.Intn(len(w.tokens))]
		}
		postings := make([][]index.Posting, len(probes))
		_, err := w.e.do(ctx, g.key, false, func(ctx context.Context, tr *fdb.Transaction) (interface{}, error) {
			store, err := w.e.provider.Open(ctx, tr, g.id)
			if err != nil {
				return nil, err
			}
			c, err := store.ScanByRank(rankIndex, 0, index.ScanOptions{})
			if err != nil {
				return nil, err
			}
			if ranked, _, _, err = cursor.Collect(c); err != nil {
				return nil, err
			}
			for i, tok := range probes {
				if postings[i], err = store.TextSearchToken(textIndex, tok); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			return fmt.Errorf("audit %s: %w", g.key, err)
		}
		recs, err := scanAll(ctx, w.e, g.key, g.id)
		if err != nil {
			return fmt.Errorf("audit %s: %w", g.key, err)
		}
		if len(recs) != len(g.players) {
			return fmt.Errorf("audit %s: %d records stored, model has %d", g.key, len(recs), len(g.players))
		}
		for _, rec := range recs {
			id := i64(rec.Message, "id")
			if id < 0 || id >= int64(len(g.players)) {
				return fmt.Errorf("audit %s: unexpected record %v", g.key, rec.PrimaryKey)
			}
			p := g.players[id]
			if i64(rec.Message, "score") != p.score || str(rec.Message, "bio") != p.bio {
				return fmt.Errorf("audit %s: player %d differs from the model", g.key, id)
			}
		}
		if err := checkPage(g, ranked, 0, len(g.ranked)); err != nil {
			return fmt.Errorf("audit %s: %w", g.key, err)
		}
		for i, tok := range probes {
			want := g.matches([]string{tok}, false)
			if len(postings[i]) != len(want) {
				return fmt.Errorf("audit %s: token %q has %d postings, model has %d", g.key, tok, len(postings[i]), len(want))
			}
			for j, p := range postings[i] {
				if len(p.PrimaryKey) != 1 || p.PrimaryKey[0] != want[j] {
					return fmt.Errorf("audit %s: token %q posting %d is %v, model has %d", g.key, tok, j, p.PrimaryKey, want[j])
				}
			}
		}
	}
	return nil
}
